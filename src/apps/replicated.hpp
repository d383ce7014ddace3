// Host-side sharing of functionally-replicated computations.
//
// Several application codes intentionally *replicate* a deterministic
// computation on every PE — the replicated ORB repartition in the MP/SHMEM
// N-body codes, the identical initial mesh/body generation in every PE's
// uncharged setup.  The simulated machine charges each PE for its share of
// the parallel algorithm (an analytic `pe.advance`), but the *functional*
// result used to be recomputed by every PE thread, making the host cost of
// a P-processor run O(P x work) for work whose virtual cost is O(work / P).
//
// Replicated<T> computes each keyed result once and hands every other PE a
// shared reference.  Because the memoised functions are pure and their
// inputs are identical on every PE (that is what "replicated" means here),
// the value each PE observes is bit-identical to what it would have
// computed itself — virtual clocks, counters and traces are unaffected.
//
// Blocking discipline: a PE that asks for a key another PE is computing
// parks its fiber (Pe::park_until) and the computing PE wakes the run after
// publishing, as for every other wait.  A host condvar here would block the
// whole worker, and an abort wake could not reach it: if `fn` throws, the
// run aborts and the waiters unwind with AbortError instead of waiting for
// a value that never comes.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "rt/machine.hpp"

namespace o2k::apps::detail {

template <typename T>
class Replicated {
 public:
  /// Return the shared result for `key`, running `fn` on the first caller.
  /// `fn` must be a pure function whose value is identical across PEs for
  /// the same key, and must not block on virtual-time events.
  template <typename Fn>
  std::shared_ptr<const T> get(rt::Pe& pe, std::uint64_t key, Fn&& fn) {
    Entry* e = nullptr;
    bool compute = false;
    {
      std::scoped_lock lk(mu_);
      e = &entries_[key];
      compute = !e->claimed;
      e->claimed = true;
    }
    if (compute) {
      auto value = std::make_shared<const T>(fn());
      {
        std::scoped_lock lk(mu_);
        e->value = value;
      }
      pe.wake_all();
      return value;
    }
    std::shared_ptr<const T> out;
    pe.park_until([&] {
      std::scoped_lock lk(mu_);
      out = e->value;
      return out != nullptr;
    });
    return out;
  }

 private:
  struct Entry {
    bool claimed = false;            ///< a PE is computing or has computed it
    std::shared_ptr<const T> value;  ///< non-null once published
  };
  std::mutex mu_;
  std::map<std::uint64_t, Entry> entries_;  // node-stable: callers hold Entry*
};

}  // namespace o2k::apps::detail
