// Unit tests for the application-internal building blocks: LocalMesh (the
// rank-local mesh with geometric identity), the SAS shared edge table, the
// memoised replicated setup, and the new MP gatherv/scatterv + SHMEM
// signal/wait primitives.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/mesh_detail.hpp"
#include "apps/replicated.hpp"
#include "apps/sas_table.hpp"
#include "mp/comm.hpp"
#include "shmem/shmem.hpp"

namespace o2k {
namespace {

rt::Machine& machine() {
  static rt::Machine m;
  return m;
}

using apps::detail::LocalMesh;
using apps::detail::TetRec;

TetRec rec(std::initializer_list<Vec3> pts, std::uint32_t mask = 0) {
  TetRec r{};
  int k = 0;
  for (const Vec3& p : pts) {
    r.c[k][0] = p.x;
    r.c[k][1] = p.y;
    r.c[k][2] = p.z;
    ++k;
  }
  r.mask = mask;
  return r;
}

TEST(LocalMeshTest, VertexDedupByPosition) {
  LocalMesh lm;
  lm.add_record(rec({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}));
  lm.add_record(rec({{1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}}));
  EXPECT_EQ(lm.tets.size(), 2u);
  EXPECT_EQ(lm.verts.size(), 5u);  // 3 shared face vertices deduped
}

TEST(LocalMeshTest, RecordRoundTrip) {
  LocalMesh lm;
  lm.add_record(rec({{0, 0, 0}, {2, 0, 0}, {0, 2, 0}, {0, 0, 2}}, 0));
  const TetRec r = lm.record_of(0, 0x3F);
  EXPECT_EQ(r.mask, 0x3Fu);
  LocalMesh lm2;
  lm2.add_record(r);
  EXPECT_NEAR(lm2.volume(0), lm.volume(0), 1e-12);
}

TEST(LocalMeshTest, EdgeKeysAgreeAcrossInstances) {
  // Two "ranks" holding the same geometric tet must compute identical edge
  // keys — the foundation of the closure exchange.
  LocalMesh a, b;
  a.add_record(rec({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}));
  b.add_record(rec({{1, 0, 0}, {0, 0, 0}, {0, 1, 0}, {0, 0, 1}}));  // permuted corners
  std::set<std::uint64_t> ka, kb;
  for (int le = 0; le < 6; ++le) {
    ka.insert(a.edge_key(0, le));
    kb.insert(b.edge_key(0, le));
  }
  EXPECT_EQ(ka, kb);
}

TEST(LocalMeshTest, DistinctEdgesSharingMidpointGetDistinctKeys) {
  // Regression test for the midpoint-conflation bug: edges (s, m_qr) and
  // (m_sq, m_sr) share a midpoint but are different edges.
  LocalMesh lm;
  const Vec3 q(0, 0, 0), r(2, 0, 0), s(0, 2, 0);
  const Vec3 mqr = (q + r) * 0.5, msq = (s + q) * 0.5, msr = (s + r) * 0.5;
  lm.add_record(rec({s, mqr, q, {0, 0, 2}}));
  lm.add_record(rec({msq, msr, r, {0, 0, 2}}));
  const auto key1 = lm.edge_key(mesh::EdgeKey(lm.vert_id(s), lm.vert_id(mqr)));
  const auto key2 = lm.edge_key(mesh::EdgeKey(lm.vert_id(msq), lm.vert_id(msr)));
  // Same midpoint...
  EXPECT_EQ(mesh::geo_key((s + mqr) * 0.5), mesh::geo_key((msq + msr) * 0.5));
  // ...different identity.
  EXPECT_NE(key1, key2);
}

TEST(LocalMeshTest, RefineMatchesSerialTemplates) {
  LocalMesh lm;
  lm.add_record(rec({{0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}}));
  apps::detail::MarkSet64 marks;
  marks.insert(lm.edge_key(0, 0));  // one edge → 1:2
  const auto st = apps::detail::refine_local(lm, marks);
  EXPECT_EQ(st.refined, 1u);
  EXPECT_EQ(st.new_tets, 2u);
  EXPECT_EQ(lm.tets.size(), 2u);
  EXPECT_NEAR(lm.total_volume(), 1.0 / 6.0, 1e-12);
}

TEST(SasEdgeTableTest, MarkAndLookup) {
  sas::World world(machine().params(), 2, std::size_t{8} << 20);
  apps::SasEdgeTable table(world, 1024);
  machine().run(2, [&](rt::Pe& pe) {
    sas::Team team(world, pe);
    table.clear(team);
    if (pe.rank() == 0) {
      table.mark(team, 42, 1);
      table.mark(team, 42, 1);  // idempotent
    }
    team.barrier();
    EXPECT_TRUE(table.is_marked(team, 42));
    EXPECT_FALSE(table.is_marked(team, 43));
    team.barrier();
  });
}

TEST(SasEdgeTableTest, RoundStampGivesJacobiFreeze) {
  sas::World world(machine().params(), 2, std::size_t{8} << 20);
  apps::SasEdgeTable table(world, 256);
  machine().run(2, [&](rt::Pe& pe) {
    sas::Team team(world, pe);
    table.clear(team);
    // A promotion staged during round 1 carries stamp 2: invisible to the
    // round-1 view, visible from round 2 on.
    if (pe.rank() == 0) table.mark(team, 7, 2);
    team.barrier();
    EXPECT_FALSE(table.is_marked_by(team, 7, 1));  // frozen round-1 view
    EXPECT_TRUE(table.is_marked_by(team, 7, 2));
    EXPECT_TRUE(table.is_marked(team, 7));
    team.barrier();
    // Concurrent re-marks converge on the minimum stamp whatever the order.
    table.mark(team, 7, static_cast<std::uint64_t>(3 + pe.rank()));
    if (pe.rank() == 1) table.mark(team, 7, 1);
    team.barrier();
    EXPECT_TRUE(table.is_marked_by(team, 7, 1));
    team.barrier();
  });
}

TEST(SasEdgeTableTest, MidOwnershipGoesToMinimumBidder) {
  sas::World world(machine().params(), 8, std::size_t{8} << 20);
  apps::SasEdgeTable table(world, 4096);
  std::array<std::atomic<std::int64_t>, 64> got{};
  machine().run(8, [&](rt::Pe& pe) {
    sas::Team team(world, pe);
    table.clear(team);
    // Everyone bids for the same 64 keys with its rank as priority.
    for (std::uint64_t k = 1; k <= 64; ++k) {
      table.request_mid(team, k * 0x9e3779b97f4a7c15ULL + 1,
                        static_cast<std::uint64_t>(pe.rank()));
    }
    team.barrier();
    // Rank 0 is the minimum bidder everywhere; it alone creates and
    // publishes the mids.
    for (std::uint64_t k = 1; k <= 64; ++k) {
      const std::uint64_t key = k * 0x9e3779b97f4a7c15ULL + 1;
      const bool mine = table.owns_mid(team, key, static_cast<std::uint64_t>(pe.rank()));
      EXPECT_EQ(mine, pe.rank() == 0);
      if (mine) table.put_mid(team, key, static_cast<std::int64_t>(100 + k));
    }
    team.barrier();
    // All PEs observe the same id per key.
    for (std::uint64_t k = 1; k <= 64; ++k) {
      const std::int64_t id = table.mid_of(team, k * 0x9e3779b97f4a7c15ULL + 1);
      EXPECT_EQ(id, static_cast<std::int64_t>(100 + k));
      auto& slot = got[static_cast<std::size_t>(k - 1)];
      const std::int64_t prev = slot.exchange(id + 1);
      if (prev != 0) EXPECT_EQ(prev, id + 1);
    }
    team.barrier();
  });
}

TEST(SasEdgeTableTest, HomeSliceCountsSumToDistinctMarks) {
  sas::World world(machine().params(), 4, std::size_t{8} << 20);
  apps::SasEdgeTable table(world, 1024);
  std::array<std::atomic<std::size_t>, 4> counts{};
  machine().run(4, [&](rt::Pe& pe) {
    sas::Team team(world, pe);
    table.clear(team);
    // Overlapping mark sets: keys 1..40 from every PE, plus a per-rank tail.
    for (std::uint64_t k = 1; k <= 40; ++k) table.mark(team, k, 1);
    table.mark(team, 1000 + static_cast<std::uint64_t>(pe.rank()), 1);
    team.barrier();
    counts[static_cast<std::size_t>(pe.rank())] = table.count_marked_home(team);
    team.barrier();
  });
  std::size_t total = 0;
  for (const auto& c : counts) total += c;
  EXPECT_EQ(total, 44u);  // 40 shared + 4 per-rank, each counted exactly once
}

TEST(SasEdgeTableTest, FullTableDetected) {
  sas::World world(machine().params(), 1, std::size_t{8} << 20);
  apps::SasEdgeTable table(world, 32);  // rounds to 64 slots
  machine().run(1, [&](rt::Pe& pe) {
    sas::Team team(world, pe);
    table.clear(team);
    EXPECT_THROW(
        {
          for (std::uint64_t k = 1; k <= 100; ++k) table.mark(team, k, 1);
        },
        std::logic_error);
  });
}

class MpGatherScatterP : public ::testing::TestWithParam<int> {};

TEST_P(MpGatherScatterP, GathervCollectsBySource) {
  const int p = GetParam();
  mp::World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    mp::Comm comm(w, pe);
    std::vector<int> mine(static_cast<std::size_t>(pe.rank() + 1), pe.rank() * 7);
    const auto blocks = comm.gatherv<int>(mine, p - 1);
    if (pe.rank() == p - 1) {
      for (int r = 0; r < p; ++r) {
        ASSERT_EQ(blocks[static_cast<std::size_t>(r)].size(), static_cast<std::size_t>(r + 1));
        for (int v : blocks[static_cast<std::size_t>(r)]) EXPECT_EQ(v, r * 7);
      }
    }
  });
}

TEST_P(MpGatherScatterP, ScattervDistributesFromRoot) {
  const int p = GetParam();
  mp::World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    mp::Comm comm(w, pe);
    std::vector<std::vector<double>> blocks;
    if (pe.rank() == 0) {
      blocks.resize(static_cast<std::size_t>(p));
      for (int r = 0; r < p; ++r) {
        blocks[static_cast<std::size_t>(r)].assign(static_cast<std::size_t>(r % 3 + 1),
                                                   r * 1.5);
      }
    }
    const auto mine = comm.scatterv<double>(blocks, 0);
    ASSERT_EQ(mine.size(), static_cast<std::size_t>(pe.rank() % 3 + 1));
    for (double v : mine) EXPECT_DOUBLE_EQ(v, pe.rank() * 1.5);
  });
}

INSTANTIATE_TEST_SUITE_P(ProcCounts, MpGatherScatterP, ::testing::Values(1, 2, 4, 8, 16));

// ---- Replicated<T> ---------------------------------------------------------

// Every PE asks for the same two keys: each key's function runs once, and
// every PE gets the one shared object.
TEST(Replicated, ComputesOnceAndSharesOnePointer) {
  constexpr int kP = 8;
  apps::detail::Replicated<std::vector<int>> cache;
  std::atomic<int> calls{0};
  std::vector<const std::vector<int>*> got(2 * kP, nullptr);
  rt::Machine m;
  m.run(kP, [&](rt::Pe& pe) {
    for (std::uint64_t key = 0; key < 2; ++key) {
      const auto v = cache.get(pe, key, [&] {
        calls.fetch_add(1);
        return std::vector<int>(4, static_cast<int>(key));
      });
      EXPECT_EQ((*v)[0], static_cast<int>(key));
      got[static_cast<std::size_t>(2 * pe.rank()) + key] = v.get();
    }
  });
  EXPECT_EQ(calls.load(), 2);
  for (int r = 0; r < kP; ++r) {
    EXPECT_EQ(got[static_cast<std::size_t>(2 * r)], got[0]) << "rank " << r;
    EXPECT_EQ(got[static_cast<std::size_t>(2 * r + 1)], got[1]) << "rank " << r;
  }
  EXPECT_NE(got[0], got[1]);
}

// The PE that computes a key throws: the run must abort and rethrow that
// error, and the PEs waiting for the key must unwind instead of waiting for
// a value that never comes.  Shared queue and pinned domains alike.
TEST(Replicated, ThrowingComputeAbortsRunInsteadOfHanging) {
  constexpr int kP = 4;
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    rt::Machine m;
    m.set_workers(workers);
    apps::detail::Replicated<int> cache;
    try {
      m.run(kP, [&](rt::Pe& pe) {
        (void)cache.get(pe, 0, []() -> int { throw std::runtime_error("setup failed"); });
      });
      ADD_FAILURE() << "the run returned although its setup threw";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "setup failed");
    }
  }
}

TEST(ShmemSignalTest, WaitObservesValueAndArrivalTime) {
  shmem::World w(machine().params(), 4);
  machine().run(4, [&](rt::Pe& pe) {
    shmem::Ctx ctx(w, pe);
    auto cell = ctx.malloc<shmem::Ctx::Signal>(1);
    ctx.barrier_all();
    if (pe.rank() == 0) {
      pe.advance(250000.0);  // producer is late
      ctx.signal(cell, 99, 2);
    } else if (pe.rank() == 2) {
      ctx.wait_signal(cell, 99);
      EXPECT_GT(pe.now(), 250000.0);  // causality: waiter released after producer
      EXPECT_EQ(ctx.local(cell)->value, 99);
    }
    ctx.barrier_all();
  });
}

TEST(ShmemSignalTest, PingPongChain) {
  const int p = 4;
  shmem::World w(machine().params(), p);
  machine().run(p, [&](rt::Pe& pe) {
    shmem::Ctx ctx(w, pe);
    auto cell = ctx.malloc<shmem::Ctx::Signal>(1);
    ctx.barrier_all();
    // Token passes 0 → 1 → 2 → 3.
    if (pe.rank() == 0) {
      ctx.signal(cell, 1, 1);
    } else {
      ctx.wait_signal(cell, pe.rank());
      if (pe.rank() < p - 1) ctx.signal(cell, pe.rank() + 1, pe.rank() + 1);
    }
    ctx.barrier_all();
  });
}

}  // namespace
}  // namespace o2k
