// Synchronization domains: the host-side sharding of one simulated machine.
//
// A domain is a contiguous slice of Origin2000 *nodes* (never splitting the
// two PEs that share a Hub): the PEs' fibers and run queue on one host
// worker, and one stage of the barrier combine.  A domain owns no model
// state — MP mailboxes and the CC-SAS directory are shared by every domain
// and correct whichever host thread runs a rank — so only rt::Machine and
// the fiber engine read the map.  `O2K_WORKERS=N` selects N domains; the
// default 1 reproduces the single-domain scheduler exactly.
//
// Domains advance virtual time independently between barriers.  That is
// safe — bit-identical to the single-domain run, not merely statistically
// close — because every virtual-clock update is derived from *published
// virtual values* (arrival times, release times, committed epoch state),
// never from host scheduling: a cross-domain interaction moves a clock only
// through a predicate wait on such a value, and wakes only mean
// "re-evaluate your predicate" (DESIGN.md §2.1, §11).
//
// The map is a pure function of (nprocs, domains, pes_per_node) — no host
// state — and stays fixed for the whole run.  It only steers host
// placement; it can never perturb results.
#pragma once

#include <vector>

namespace o2k::rt {

/// Rank→domain partition by whole nodes: contiguous node slices.
class DomainMap {
 public:
  /// Trivial single-domain map (every rank in domain 0).
  DomainMap() = default;

  /// Partition `nprocs` ranks into at most `domains` slices of whole nodes
  /// (`pes_per_node` ranks per node).  Requests beyond the node count clamp
  /// down: a node is the smallest unit (its PEs share a Hub), so a 1-node
  /// run always yields one domain regardless of the request.
  DomainMap(int nprocs, int domains, int pes_per_node);

  [[nodiscard]] int domains() const { return domains_; }

  [[nodiscard]] int domain_of(int rank) const {
    return domains_ == 1 ? 0 : rank_domain_[static_cast<std::size_t>(rank)];
  }

  /// Ranks owned by domain `d`.
  [[nodiscard]] int owned(int d) const {
    return domains_ == 1 ? nprocs_ : owned_[static_cast<std::size_t>(d)];
  }

  /// Full rank→domain table (the fiber-engine affinity vector).  Empty for
  /// the trivial single-domain map.
  [[nodiscard]] const std::vector<int>& affinity() const { return rank_domain_; }

 private:
  int nprocs_ = 1;
  int domains_ = 1;
  std::vector<int> rank_domain_;  ///< rank -> domain (empty when domains_ == 1)
  std::vector<int> owned_;        ///< domain -> rank count
};

}  // namespace o2k::rt
