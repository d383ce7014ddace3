// Tests for exec::FiberEngine driven directly, without rt::Machine: the
// order in which a pinned worker runs the fibers its own fibers wake.  Also
// exec::MpscQueue, the queue behind every MP mailbox.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.hpp"
#include "exec/spsc.hpp"

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

// A chain of same-worker hand-offs: ranks 0..3 park, then rank 4 passes a
// token to 0, each link passes it on to the next, and rank 3 ends the chain.
// Every link logs its rank after its hand-off.  The wakee runs at once and
// each waker resumes right after it, so the chain's end is logged first and
// the wakers follow in reverse.  With a plain wake every link would log
// before the next one runs: 4, 0, 1, 2, 3.
TEST(FiberEnginePinned, HandOffRunsWakeeBeforeWaker) {
  constexpr int kP = 5;
  FiberEngine eng;
  std::vector<std::atomic<bool>> token(kP - 1);
  std::vector<int> order;
  eng.run(
      kP,
      [&](int r) {
        if (r < kP - 1) park_until(eng, r, token[static_cast<std::size_t>(r)]);
        const int next = r == kP - 1 ? 0 : r + 1;
        if (next < kP - 1) {
          token[static_cast<std::size_t>(next)].store(true);
          eng.hand_off(next);
        }
        order.push_back(r);
      },
      FiberEngine::Plan{1});
  EXPECT_EQ(order, (std::vector<int>{3, 2, 1, 0, 4}));
}

// Rank 1 fills its worker's run-next slot with rank 0, then hands off to
// rank 2 on the other worker.  That wake cannot run on rank 1's worker, so
// rank 1 keeps running and logs before rank 0.
TEST(FiberEnginePinned, CrossWorkerHandOffKeepsCaller) {
  const std::vector<int> affinity{0, 0, 1};
  FiberEngine eng;
  std::atomic<bool> go{false};
  std::atomic<bool> ready{false};
  std::atomic<bool> token{false};
  std::vector<int> order;  // worker 0's fibers only
  eng.run(
      3,
      [&](int r) {
        if (r == 0) {
          park_until(eng, 0, go);
          order.push_back(0);
        } else if (r == 1) {
          park_until(eng, 1, ready);
          go.store(true);
          eng.wake(0);
          token.store(true);
          eng.hand_off(2);
          order.push_back(1);
        } else {
          ready.store(true);
          eng.wake(1);
          park_until(eng, 2, token);
        }
      },
      FiberEngine::Plan{2, affinity.data()});
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

// In shared mode a hand-off is a plain wake: on one worker, rank 1 logs
// before the rank 0 it woke.
TEST(FiberEngineShared, HandOffKeepsCaller) {
  const char* env = std::getenv("O2K_EXEC_WORKERS");
  const std::string saved = env != nullptr ? env : "";
  ASSERT_EQ(::setenv("O2K_EXEC_WORKERS", "1", /*overwrite=*/1), 0);
  FiberEngine eng;
  std::atomic<bool> go{false};
  std::vector<int> order;
  eng.run(2, [&](int r) {
    if (r == 0) {
      park_until(eng, 0, go);
    } else {
      go.store(true);
      eng.hand_off(0);
    }
    order.push_back(r);
  });
  if (env != nullptr) {
    ::setenv("O2K_EXEC_WORKERS", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("O2K_EXEC_WORKERS");
  }
  EXPECT_EQ(eng.workers(), 1);
  EXPECT_EQ(order, (std::vector<int>{1, 0}));
}

// A token relay over two pinned workers: rank r waits for the token, hands
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
            eng.hand_off(r + 1);
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

// Four host threads push (producer, seq) pairs while this thread pops:
// every item arrives exactly once and each producer's items in push order.
// The consumer stops short of the end; for_each then walks the rest at
// quiescence, and the destructor frees those nodes (the ASan leak check).
TEST(MpscQueue, ManyProducersKeepEachProducersOrder) {
  constexpr int kProducers = 4;
  constexpr int kItems = 20000;
  constexpr int kLeft = 1000;  // left unconsumed for for_each
  struct Item {
    int producer = -1;
    int seq = -1;
  };
  MpscQueue<Item> q;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kItems; ++i) q.push(Item{p, i});
    });
  }
  std::vector<int> next(kProducers, 0);
  int out_of_order = 0;
  const auto take = [&](const Item& it) {
    int& n = next[static_cast<std::size_t>(it.producer)];
    if (it.seq != n) ++out_of_order;
    n = it.seq + 1;
  };
  Item it;
  for (int got = 0; got < kProducers * kItems - kLeft;) {
    if (!q.pop(it)) {
      std::this_thread::yield();
      continue;
    }
    take(it);
    ++got;
  }
  for (auto& t : producers) t.join();
  int walked = 0;
  q.for_each([&](const Item& rest) {
    take(rest);
    ++walked;
  });
  EXPECT_EQ(out_of_order, 0);
  EXPECT_EQ(walked, kLeft);
  for (int p = 0; p < kProducers; ++p) EXPECT_EQ(next[static_cast<std::size_t>(p)], kItems);
}

}  // namespace
}  // namespace o2k::exec
