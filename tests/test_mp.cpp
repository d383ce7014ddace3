// Tests for the MP (message-passing) runtime: matching semantics, protocol
// cost behaviour, and all collectives.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <random>
#include <string>

#include "mp/comm.hpp"

namespace o2k::mp {
namespace {

rt::Machine& machine() {
  static rt::Machine m;
  return m;
}

TEST(MpP2P, SendRecvDeliversPayload) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<int> data{1, 2, 3, 4};
      comm.send(std::span<const int>(data), 1, 7);
    } else {
      const auto got = comm.recv_vec<int>(0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3, 4}));
    }
  });
}

TEST(MpP2P, TagMatchingSelectsCorrectMessage) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      comm.send_value<int>(111, 1, /*tag=*/1);
      comm.send_value<int>(222, 1, /*tag=*/2);
    } else {
      // Receive out of send order by tag.
      EXPECT_EQ(comm.recv_value<int>(0, 2), 222);
      EXPECT_EQ(comm.recv_value<int>(0, 1), 111);
    }
  });
}

/// Rank 0 sends kSends values on tags 5 and 6 to rank 1, and before each
/// pair parks for a token from rank 2, so consecutive same-tag sends may
/// leave from different host threads.  Rank 3 sends on tag 5 too.  Rank 1
/// drains tag 6 first, so the tag-5 messages pile up, then checks both
/// sources' tag-5 streams in order.
std::function<void(rt::Pe&)> parked_sender_body(World& w) {
  constexpr int kSends = 200;
  return [&w](rt::Pe& pe) {
    Comm comm(w, pe);
    switch (pe.rank()) {
      case 0:
        for (int i = 0; i < kSends; ++i) {
          comm.send_value<int>(i, 2, /*tag=*/1);
          (void)comm.recv_value<int>(2, /*tag=*/2);
          comm.send_value<int>(i, 1, 5);
          comm.send_value<int>(-i, 1, 6);
        }
        break;
      case 1:
        for (int i = 0; i < kSends; ++i) EXPECT_EQ(comm.recv_value<int>(0, 6), -i);
        for (int i = 0; i < kSends; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
        for (int i = 0; i < kSends; ++i) EXPECT_EQ(comm.recv_value<int>(3, 5), 1000 + i);
        break;
      case 2:
        for (int i = 0; i < kSends; ++i) {
          comm.send_value<int>(comm.recv_value<int>(0, 1), 0, /*tag=*/2);
        }
        break;
      default:
        for (int i = 0; i < kSends; ++i) comm.send_value<int>(1000 + i, 1, 5);
        break;
    }
  };
}

TEST(MpP2P, FifoPerSourceAndTag) {
  {
    World w(machine().params(), 2);
    machine().run(2, [&](rt::Pe& pe) {
      Comm comm(w, pe);
      if (pe.rank() == 0) {
        for (int i = 0; i < 10; ++i) comm.send_value<int>(i, 1, 5);
      } else {
        for (int i = 0; i < 10; ++i) EXPECT_EQ(comm.recv_value<int>(0, 5), i);
      }
    });
  }
  // The sender parks between same-tag sends: on the shared queue over four
  // host threads it may resume on any of them, and on two pinned domains
  // behind the other fibers of its worker.
  const char* env = std::getenv("O2K_EXEC_WORKERS");
  const std::string saved = env != nullptr ? env : "";
  ASSERT_EQ(::setenv("O2K_EXEC_WORKERS", "4", /*overwrite=*/1), 0);
  rt::Machine shared;
  shared.set_workers(1);
  World w1(shared.params(), 4);
  const auto r1 = shared.run(4, parked_sender_body(w1));
  if (env != nullptr) {
    ::setenv("O2K_EXEC_WORKERS", saved.c_str(), /*overwrite=*/1);
  } else {
    ::unsetenv("O2K_EXEC_WORKERS");
  }
  rt::Machine pinned;
  pinned.set_workers(2);
  World w2(pinned.params(), 4);
  const auto r2 = pinned.run(4, parked_sender_body(w2));
  EXPECT_EQ(pinned.workers(), 2);
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

TEST(MpP2P, AnyTagReceivesFirstAvailable) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      comm.send_value<int>(9, 1, 42);
    } else {
      EXPECT_EQ(comm.recv_value<int>(0, kAnyTag), 9);
    }
  });
}

TEST(MpP2P, SelfSendWorks) {
  World w(machine().params(), 1);
  machine().run(1, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    comm.send_value<double>(3.5, 0, 1);
    EXPECT_DOUBLE_EQ(comm.recv_value<double>(0, 1), 3.5);
  });
}

TEST(MpP2P, ReceiverClockRespectsArrival) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      pe.advance(100000.0);  // sender is late
      comm.send_value<int>(1, 1, 0);
    } else {
      (void)comm.recv_value<int>(0, 0);
      // Receiver cannot complete before the sender even started.
      EXPECT_GT(pe.now(), 100000.0);
    }
  });
}

TEST(MpP2P, RendezvousBlocksSenderUntilReceiverPosts) {
  World w(machine().params(), 2);
  const std::size_t big = machine().params().mp_eager_bytes + 1000;
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<std::byte> data(big);
      comm.send_bytes(data, 1, 0);
      // Receiver posted at t=500000; sender must release after that.
      EXPECT_GT(pe.now(), 500000.0);
    } else {
      pe.advance(500000.0);
      const auto got = comm.recv_bytes(0, 0);
      EXPECT_EQ(got.size(), big);
    }
  });
}

TEST(MpP2P, EagerSendDoesNotBlockSender) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      comm.send_value<int>(1, 1, 0);
      EXPECT_LT(pe.now(), 100000.0);  // far less than the receiver's delay
    } else {
      pe.advance(500000.0);
      (void)comm.recv_value<int>(0, 0);
    }
  });
}

TEST(MpP2P, LargerMessagesCostMore) {
  World w(machine().params(), 2);
  double t_small = 0, t_big = 0;
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<std::byte> s(64), b(8192);
      comm.send_bytes(s, 1, 0);
      comm.send_bytes(b, 1, 1);
    } else {
      const double t0 = pe.now();
      (void)comm.recv_bytes(0, 0);
      t_small = pe.now() - t0;
      const double t1 = pe.now();
      (void)comm.recv_bytes(0, 1);
      t_big = pe.now() - t1;
    }
  });
  EXPECT_GT(t_big, t_small);
}

TEST(MpP2P, InvalidRanksRejected) {
  World w(machine().params(), 2);
  EXPECT_THROW(machine().run(2,
                             [&](rt::Pe& pe) {
                               Comm comm(w, pe);
                               comm.send_value<int>(1, 5, 0);
                             }),
               std::invalid_argument);
}

// Zero-length messages are legal on every receive path.  An empty buffer's
// data() may be null, so no path may hand it to memcpy.
TEST(MpP2P, ZeroLengthMessagesOnEveryReceivePath) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      for (int tag = 1; tag <= 3; ++tag) comm.send(std::span<const double>{}, 1, tag);
    } else {
      EXPECT_TRUE(comm.recv_vec<double>(0, 1).empty());
      comm.recv(std::span<double>{}, 0, 2);
      auto req = comm.irecv(std::span<double>{}, 0, 3);
      comm.wait(req);
      EXPECT_FALSE(req.pending());
    }
    std::vector<double> none;
    comm.bcast(std::span<double>(none), 0);
    EXPECT_TRUE(none.empty());
  });
}

TEST(MpNonblocking, IrecvWaitDelivers) {
  World w(machine().params(), 2);
  machine().run(2, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() == 0) {
      std::vector<int> data{5, 6};
      auto req = comm.isend(std::span<const int>(data), 1, 3);
      comm.wait(req);
    } else {
      std::vector<int> out(2);
      auto req = comm.irecv(std::span<int>(out), 0, 3);
      comm.wait(req);
      EXPECT_EQ(out, (std::vector<int>{5, 6}));
    }
  });
}

TEST(MpNonblocking, WaitAllCompletesEverything) {
  World w(machine().params(), 3);
  machine().run(3, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    if (pe.rank() != 0) {
      comm.isend(std::span<const int>(std::vector<int>{pe.rank()}), 0, 9);
    } else {
      std::vector<int> a(1), b(1);
      std::vector<Request> reqs;
      reqs.push_back(comm.irecv(std::span<int>(a), 1, 9));
      reqs.push_back(comm.irecv(std::span<int>(b), 2, 9));
      comm.wait_all(reqs);
      EXPECT_EQ(a[0], 1);
      EXPECT_EQ(b[0], 2);
    }
  });
}

class MpCollectives : public ::testing::TestWithParam<int> {};

TEST_P(MpCollectives, Barrier) {
  const int p = GetParam();
  World w(machine().params(), p);
  auto rr = machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    pe.advance(1000.0 * pe.rank());
    comm.barrier();
  });
  EXPECT_GE(rr.makespan_ns, 1000.0 * (p - 1));
}

TEST_P(MpCollectives, BcastFromEveryRoot) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    for (int root = 0; root < p; ++root) {
      std::vector<int> data(3, pe.rank() == root ? root + 100 : -1);
      comm.bcast(std::span<int>(data), root);
      EXPECT_EQ(data, std::vector<int>(3, root + 100));
    }
  });
}

TEST_P(MpCollectives, AllreduceSumAndMinMax) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    const int sum = comm.allreduce_sum(pe.rank() + 1);
    EXPECT_EQ(sum, p * (p + 1) / 2);
    EXPECT_EQ(comm.allreduce_max(pe.rank()), p - 1);
    EXPECT_EQ(comm.allreduce_min(pe.rank()), 0);
    const double dsum = comm.allreduce_sum(0.5);
    EXPECT_DOUBLE_EQ(dsum, 0.5 * p);
  });
}

TEST_P(MpCollectives, GatherAndAllgather) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    const auto g = comm.gather(pe.rank() * 2, 0);
    if (pe.rank() == 0) {
      for (int r = 0; r < p; ++r) EXPECT_EQ(g[static_cast<std::size_t>(r)], r * 2);
    }
    const auto ag = comm.allgather(pe.rank() + 10);
    ASSERT_EQ(ag.size(), static_cast<std::size_t>(p));
    for (int r = 0; r < p; ++r) EXPECT_EQ(ag[static_cast<std::size_t>(r)], r + 10);
  });
}

TEST_P(MpCollectives, AllgathervConcatenatesInRankOrder) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    // Rank r contributes r+1 copies of r.
    std::vector<int> mine(static_cast<std::size_t>(pe.rank() + 1), pe.rank());
    const auto all = comm.allgatherv<int>(mine);
    std::vector<int> expect;
    for (int r = 0; r < p; ++r) {
      expect.insert(expect.end(), static_cast<std::size_t>(r + 1), r);
    }
    EXPECT_EQ(all, expect);
  });
}

TEST_P(MpCollectives, AlltoallvExchangesBlocks) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
    for (int d = 0; d < p; ++d) {
      send[static_cast<std::size_t>(d)] = {pe.rank() * 100 + d};
    }
    const auto recv = comm.alltoallv<int>(send);
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(recv[static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_EQ(recv[static_cast<std::size_t>(s)][0], s * 100 + pe.rank());
    }
  });
}

TEST_P(MpCollectives, ExscanSum) {
  const int p = GetParam();
  World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    Comm comm(w, pe);
    const int ex = comm.exscan_sum(pe.rank() + 1);
    EXPECT_EQ(ex, pe.rank() * (pe.rank() + 1) / 2);
  });
}

TEST_P(MpCollectives, SimulatedTimeDeterministic) {
  const int p = GetParam();
  World w1(machine().params(), p), w2(machine().params(), p);
  auto body = [](World& w) {
    return [&w](rt::Pe& pe) {
      Comm comm(w, pe);
      auto v = comm.allgatherv<int>(std::vector<int>(static_cast<std::size_t>(pe.rank() + 1), 1));
      comm.barrier();
      (void)comm.allreduce_sum(static_cast<int>(v.size()));
    };
  };
  const auto r1 = machine().run(p, body(w1));
  const auto r2 = machine().run(p, body(w2));
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, MpCollectives, ::testing::Values(1, 2, 3, 4, 7, 8, 16, 32));

// Rendezvous alltoallv on pinned domains: every block is larger than the
// eager threshold, so each exchange step is a blocking send, and the
// schedule of the last step is a chain of rendezvous completions running
// down the ranks — the chain a pinned worker's run-next slot reorders.
// Rank-skewed work between two rounds makes receivers and senders park in
// both orders.  Payloads must arrive intact and the per-PE clocks must not
// move with the worker count.  "Backends" in the name is historical (the
// deleted thread-per-PE backend); only the worker count varies now.
TEST(MpRendezvousCollectives, AlltoallvBitIdenticalAcrossWorkersAndBackends) {
  const auto value = [](int src, int dst, std::size_t i) {
    return static_cast<int>((static_cast<std::size_t>(src * 64 + dst) << 16) + i);
  };
  for (const int p : {8, 16}) {
    SCOPED_TRACE("P=" + std::to_string(p));
    const auto run_with = [&](int workers) {
      rt::Machine m;
      m.set_workers(workers);
      World w(m.params(), p);
      const std::size_t n = m.params().mp_eager_bytes / sizeof(int) + 1;
      return m.run(p, [&](rt::Pe& pe) {
        Comm comm(w, pe);
        const int me = pe.rank();
        for (int round = 0; round < 2; ++round) {
          pe.advance(static_cast<double>(((me + round) * 7919) % 251) * 100.0);
          std::vector<std::vector<int>> send(static_cast<std::size_t>(p));
          for (int d = 0; d < p; ++d) {
            auto& block = send[static_cast<std::size_t>(d)];
            block.resize(n + static_cast<std::size_t>(d));
            for (std::size_t i = 0; i < block.size(); ++i) block[i] = value(me, d, i);
          }
          const auto recv = comm.alltoallv<int>(send);
          for (int s = 0; s < p; ++s) {
            const auto& block = recv[static_cast<std::size_t>(s)];
            ASSERT_EQ(block.size(), n + static_cast<std::size_t>(me));
            for (std::size_t i = 0; i < block.size(); ++i) ASSERT_EQ(block[i], value(s, me, i));
          }
        }
      }).pe_ns;
    };
    const auto base = run_with(1);
    for (const int w : {1, 2, 4}) EXPECT_EQ(base, run_with(w)) << "workers=" << w;
  }
}

// Lost-wakeup stress: every rank sends one message per (destination, tag)
// pair and receives its incoming set in a rank-seeded shuffled order, with
// seeded virtual work injected between operations.  The shuffles make
// receivers routinely park for messages that have not been sent yet while
// senders race to enqueue-and-wake, so a wake landing between a receiver's
// predicate check and its park (the classic lost-wakeup window the slot
// epoch closes) is exercised thousands of times per run.  Payload checks
// catch misdelivery; identical per-PE clocks across two runs catch any
// schedule leaking into virtual time.
class MpWakeupStress : public ::testing::TestWithParam<int> {};

/// The shuffled send/recv stress body shared by the wakeup-stress suites.
std::function<void(rt::Pe&)> shuffled_stress_body(World& w, int p) {
  constexpr int kTags = 12;
  const auto payload = [](int src, int dst, int tag) {
    return (src * 1000 + dst) * 100 + tag;
  };
  return [&w, p, payload](rt::Pe& pe) {
    Comm comm(w, pe);
    const int me = pe.rank();
    std::mt19937 rng(0xC0FFEEu + static_cast<unsigned>(me));
    std::uniform_real_distribution<double> work(10.0, 2000.0);

    std::vector<std::pair<int, int>> sends;  // (dst, tag)
    std::vector<std::pair<int, int>> recvs;  // (src, tag)
    for (int other = 0; other < p; ++other) {
      if (other == me) continue;
      for (int tag = 0; tag < kTags; ++tag) {
        sends.emplace_back(other, tag);
        recvs.emplace_back(other, tag);
      }
    }
    std::shuffle(sends.begin(), sends.end(), rng);
    std::shuffle(recvs.begin(), recvs.end(), rng);

    for (const auto& [dst, tag] : sends) {
      pe.advance(work(rng));
      comm.send_value<int>(payload(me, dst, tag), dst, tag);
    }
    for (const auto& [src, tag] : recvs) {
      pe.advance(work(rng));
      EXPECT_EQ(comm.recv_value<int>(src, tag), payload(src, me, tag));
    }
    comm.barrier();
  };
}

// All sends happen before any receive (the deadlock-free ordering: eager
// sends never block, so no cyclic wait can form), but shuffled and
// separated by random virtual work.  Ranks drift apart, so fast ranks
// reach receives whose matching sends a slow rank has not issued yet and
// park — which is the window under test.
TEST_P(MpWakeupStress, ShuffledManyTagManyRank) {
  const int p = GetParam();
  rt::Machine m;
  World w1(m.params(), p), w2(m.params(), p);
  const auto r1 = m.run(p, shuffled_stress_body(w1, p));
  const auto r2 = m.run(p, shuffled_stress_body(w2, p));
  // Virtual time must be a pure function of the program, not of which host
  // thread won which wakeup race.
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

// Schedule equivalence under wakeup races: the shared-queue engine must be
// reproducible against itself and produce the same virtual clocks as pinned
// runs on two and four workers (clamped to the run's node count).  The
// name is historical: the test used to compare fibers with the deleted
// thread-per-PE backend.
TEST_P(MpWakeupStress, FibersMatchThreadsAndRepeatedRuns) {
  const int p = GetParam();
  const auto run_with = [p](int workers) {
    rt::Machine m;
    m.set_workers(std::min(workers, p));
    World w(m.params(), p);
    return m.run(p, shuffled_stress_body(w, p)).pe_ns;
  };
  const auto shared = run_with(1);
  EXPECT_EQ(shared, run_with(1));
  EXPECT_EQ(shared, run_with(2));
  EXPECT_EQ(shared, run_with(4));
}

// Wake-during-reschedule: zero-work ping-pong makes every recv park and
// every send wake a fiber that is right now being switched away from, so
// the engine's missed-wake window (between a fiber's park decision and the
// worker publishing its parked status) is hit continuously.  Forcing
// several workers makes host threads race those wakes even on small hosts.
TEST_P(MpWakeupStress, FibersWakeDuringReschedule) {
  const int p = GetParam();
  if (p % 2 != 0) GTEST_SKIP() << "ping-pong needs paired ranks";
  constexpr int kRounds = 200;
  auto body = [p](World& w) {
    return [&w, p](rt::Pe& pe) {
      Comm comm(w, pe);
      const int me = pe.rank();
      const int buddy = me ^ 1;
      for (int i = 0; i < kRounds; ++i) {
        if ((me & 1) == 0) {
          comm.send_value<int>(i, buddy, /*tag=*/7);
          ASSERT_EQ(comm.recv_value<int>(buddy, 7), i + 1);
        } else {
          ASSERT_EQ(comm.recv_value<int>(buddy, 7), i);
          comm.send_value<int>(i + 1, buddy, /*tag=*/7);
        }
      }
      comm.barrier();
    };
  };
  ASSERT_EQ(setenv("O2K_EXEC_WORKERS", "4", /*overwrite=*/1), 0);
  rt::Machine m;
  World w1(m.params(), p), w2(m.params(), p);
  const auto r1 = m.run(p, body(w1));
  const auto r2 = m.run(p, body(w2));
  unsetenv("O2K_EXEC_WORKERS");
  EXPECT_EQ(r1.pe_ns, r2.pe_ns);
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, MpWakeupStress, ::testing::Values(2, 4, 8, 16, 32));

// Abort-unwind across fibers: one PE throws while the other 63 are parked
// in receives that can never complete.  The abort must wake every parked
// fiber, unwind each fiber stack (AbortError), propagate the original
// exception out of run(), and leave the pooled engine reusable.
TEST(MpFiberAbort, AbortUnwindsAcrossParkedFibers) {
  constexpr int kP = 64;
  rt::Machine m;
  World w(m.params(), kP);
  EXPECT_THROW(m.run(kP,
                     [&w](rt::Pe& pe) {
                       Comm comm(w, pe);
                       if (pe.rank() == 17) {
                         pe.advance(50.0);
                         throw std::runtime_error("boom on fiber 17");
                       }
                       // Tag 99 is never sent: parks until the abort wake.
                       (void)comm.recv_value<int>(17, /*tag=*/99);
                     }),
               std::runtime_error);
  // The engine (stacks, fibers, queues) must come back clean.
  World w2(m.params(), kP);
  const auto rr = m.run(kP, [&w2](rt::Pe& pe) {
    Comm comm(w2, pe);
    (void)comm.allreduce_sum(1);
    comm.barrier();
  });
  EXPECT_EQ(rr.nprocs, kP);
}

// A single-PE run executes inline, with no engine to park on, and no other
// PE exists to send: a receive that nothing can satisfy must fail the run
// with a diagnosis (rank, phase, virtual time) instead of hanging.
TEST(MpSinglePe, BlockedRecvThrowsInsteadOfHanging) {
  rt::Machine m;
  World w(m.params(), 1);
  try {
    m.run(1, [&w](rt::Pe& pe) {
      Comm comm(w, pe);
      const auto scope = pe.phase("exchange");
      pe.advance(250.0);
      (void)comm.recv_value<int>(0, /*tag=*/99);
    });
    FAIL() << "a blocked single-PE receive returned";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("PE 0"), std::string::npos) << what;
    EXPECT_NE(what.find("exchange"), std::string::npos) << what;
    EXPECT_NE(what.find("t=250"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace o2k::mp
