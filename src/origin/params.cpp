#include "origin/params.hpp"

#include <bit>
#include <cmath>

#include "common/check.hpp"

namespace o2k::origin {

MachineParams MachineParams::origin2000() { return MachineParams{}; }

MachineParams MachineParams::origin2000_scaled(int max_pes) {
  O2K_REQUIRE(max_pes >= 1, "machine needs at least one PE");
  MachineParams p;
  p.max_pes = max_pes;
  return p;
}

KernelCosts KernelCosts::origin2000() { return KernelCosts{}; }

int MachineParams::hops(int pe_a, int pe_b) const {
  O2K_REQUIRE(pe_a >= 0 && pe_b >= 0, "PE ids must be non-negative");
  const unsigned a = static_cast<unsigned>(node_of(pe_a));
  const unsigned b = static_cast<unsigned>(node_of(pe_b));
  // Bristled hypercube: Hamming distance between node numbers.  Two PEs on
  // the same node communicate through the shared Hub (0 router hops).
  return std::popcount(a ^ b);
}

int MachineParams::max_hops(int pes) const {
  O2K_REQUIRE(pes >= 1, "need at least one PE");
  const int nodes = (pes + pes_per_node - 1) / pes_per_node;
  if (nodes <= 1) return 0;
  // Hypercube dimension = ceil(log2(nodes)); the diameter equals it.
  return static_cast<int>(std::ceil(std::log2(static_cast<double>(nodes))));
}

double MachineParams::tree_barrier_ns(int pes, double per_stage_ns) {
  O2K_REQUIRE(pes >= 1, "need at least one PE");
  if (pes == 1) return 0.0;
  const double stages = std::ceil(std::log2(static_cast<double>(pes)));
  return stages * per_stage_ns;
}

}  // namespace o2k::origin
