// Tests for exec::FiberEngine driven directly, without rt::Machine: the
// order in which a pinned worker runs the fibers its own fibers wake.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <vector>

#include "exec/engine.hpp"

namespace o2k::exec {
namespace {

/// Park `rank`'s fiber until `flag` is set (the eventcount protocol: read
/// the epoch, re-test, then park; spurious resumes loop).
void park_until(FiberEngine& eng, int rank, const std::atomic<bool>& flag) {
  while (!flag.load()) {
    const std::uint64_t e = eng.wait_epoch(rank);
    if (flag.load()) break;
    eng.park(rank, e);
  }
}

// Ranks 0 and 1 park; rank 2 wakes 0, then 1, and returns.  The latest
// same-worker wake runs next and the one it displaced follows, so the
// finishing order is 2, 1, 0 (plain FIFO would give 2, 0, 1).
TEST(FiberEnginePinned, LatestSameWorkerWakeRunsNext) {
  FiberEngine eng;
  std::vector<std::atomic<bool>> go(2);
  std::vector<int> order;
  eng.run(
      3,
      [&](int r) {
        if (r < 2) {
          park_until(eng, r, go[static_cast<std::size_t>(r)]);
        } else {
          go[0].store(true);
          eng.wake(0);
          go[1].store(true);
          eng.wake(1);
        }
        order.push_back(r);
      },
      FiberEngine::Plan{1});
  EXPECT_EQ(order, (std::vector<int>{2, 1, 0}));
}

// A token relay over two pinned workers: rank r waits for the token, passes
// it to r + 1 and then waits for the release broadcast, so every worker
// keeps refilling its run-next slot from its own fibers while wakes also
// cross workers.  The run must end with every rank released, and the
// engine must be reusable for a second run.
TEST(FiberEnginePinned, RelayAcrossWorkersCompletes) {
  constexpr int kP = 16;
  const std::vector<int> affinity{0, 0, 0, 1, 1, 0, 1, 1, 0, 1, 0, 0, 1, 1, 1, 0};
  FiberEngine eng;
  for (int run = 0; run < 2; ++run) {
    std::vector<std::atomic<bool>> token(kP);
    std::atomic<bool> release{false};
    std::atomic<int> finished{0};
    eng.run(
        kP,
        [&](int r) {
          if (r > 0) park_until(eng, r, token[static_cast<std::size_t>(r)]);
          if (r + 1 < kP) {
            token[static_cast<std::size_t>(r + 1)].store(true);
            eng.wake(r + 1);
            park_until(eng, r, release);
          } else {
            release.store(true);
            eng.wake_all();
          }
          finished.fetch_add(1);
        },
        FiberEngine::Plan{2, affinity.data()});
    EXPECT_EQ(finished.load(), kP) << "run " << run;
    EXPECT_EQ(eng.workers(), 2);
  }
}

}  // namespace
}  // namespace o2k::exec
