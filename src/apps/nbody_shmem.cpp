// SHMEM (one-sided data passing) Barnes–Hut.
//
// Same decomposition as the MP code — distributed bodies, ORB rebalancing,
// local octrees, locally-essential imports — but every exchange is
// initiator-driven: counts and offsets are negotiated through the symmetric
// heap and payloads land via put_nbi, drained at barrier_all (see
// shmem_coll.hpp).  No receiver-side software overhead exists, which is the
// model's advantage on the Origin2000's hardware-supported RMA.
#include <array>
#include <cmath>
#include <mutex>
#include <optional>

#include "apps/nbody_app.hpp"
#include "apps/nbody_detail.hpp"
#include "apps/replicated.hpp"
#include "apps/shmem_coll.hpp"
#include "common/check.hpp"
#include "common/overlay.hpp"
#include "nbody/octree.hpp"
#include "plum/partition.hpp"

namespace o2k::apps {

using nbody::Body;
using nbody::Octree;
using nbody::WalkStats;

AppReport run_nbody_shmem(rt::Machine& machine, int nprocs, const NbodyConfig& cfg) {
  O2K_REQUIRE(cfg.n >= static_cast<std::size_t>(nprocs) * 8,
              "nbody: need at least 8 bodies per processor");
  O2K_REQUIRE(cfg.steps >= 1, "nbody: need at least one step");
  const auto kc = origin::KernelCosts::origin2000();

  struct BalRec {
    double x, y, z, w;
  };

  // Symmetric heap sizing: bal records + body remap + pseudo imports + boxes.
  const std::size_t heap_bytes =
      (cfg.n * (sizeof(BalRec) + sizeof(Body) + 3 * sizeof(detail::PseudoBody))) +
      (std::size_t{1} << 20);
  shmem::World world(machine.params(), nprocs, heap_bytes);

  std::map<std::string, double> checks;
  std::mutex checks_mu;

  // Shared results of the computations every PE replicates on identical
  // inputs (see replicated.hpp); virtual charges are untouched.
  struct Setup {
    std::vector<Body> all;
    std::vector<int> owner;
  };
  detail::Replicated<Setup> setup_cache;
  detail::Replicated<std::vector<int>> owner_cache;

  auto rr = machine.run(nprocs, [&](rt::Pe& pe) {
    shmem::Ctx ctx(world, pe);
    const int P = pe.size();
    const int me = pe.rank();

    // Symmetric buffers (allocated once; the symmetric heap never frees).
    ShmemVBuf<BalRec> bal_vb(ctx, cfg.n);
    ShmemVBuf<Body> body_vb(ctx, cfg.n);
    ShmemVBuf<detail::PseudoBody> let_vb(ctx, 3 * cfg.n);
    auto my_box = ctx.malloc<detail::BBox>(1);
    auto all_boxes = ctx.malloc<detail::BBox>(static_cast<std::size_t>(P));

    // ---- uncharged setup: identical generation + deterministic initial ORB
    // (computed once on the host, shared by every PE).
    std::vector<Body> owned;
    {
      const auto setup = setup_cache.get(pe, 0, [&] {
        Setup s;
        s.all = cfg.uniform_sphere ? nbody::make_uniform_sphere(cfg.n, cfg.seed)
                                   : nbody::make_plummer(cfg.n, cfg.seed);
        std::vector<plum::Element> el(s.all.size());
        for (std::size_t i = 0; i < s.all.size(); ++i) el[i] = {s.all[i].pos, 1.0};
        s.owner = plum::rib_partition(el, P);
        return s;
      });
      for (std::size_t i = 0; i < setup->all.size(); ++i) {
        if (setup->owner[i] == me) owned.push_back(setup->all[i]);
      }
    }

    const double rib_levels =
        P > 1 ? std::ceil(std::log2(static_cast<double>(P))) : 1.0;

    // Step count via the campaign overlay (see nbody_mp.cpp).
    for (int step = 0;
         step < static_cast<int>(common::overlay_i64("nbody.steps", cfg.steps)); ++step) {
      pe.checkpoint("step");  // clock-neutral; no-op unless a campaign armed it
      // ---- balance: one-sided allgatherv + replicated ORB + one-sided remap.
      if (step > 0 && cfg.rebalance_every > 0 && step % cfg.rebalance_every == 0 && P > 1) {
        auto ph = pe.phase("balance");
        std::vector<BalRec> mine(owned.size());
        for (std::size_t i = 0; i < owned.size(); ++i) {
          mine[i] = {owned[i].pos.x, owned[i].pos.y, owned[i].pos.z, owned[i].work};
        }
        const auto recs = shmem_allgatherv<BalRec>(ctx, bal_vb, mine);
        // Counts are still resident in the symmetric scratch.
        const auto counts = ctx.local_span(bal_vb.counts);
        std::size_t off = 0;
        for (int r = 0; r < me; ++r) off += static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);

        // Parallel-ORB charge; see the MP code.
        pe.advance(static_cast<double>(recs.size()) / P * rib_levels *
                   kc.partition_vertex_ns);
        // Identical allgathered cloud on every PE: build the ORB input and
        // result once and share them.
        const auto new_owner_sp = owner_cache.get(pe, static_cast<std::uint64_t>(step), [&] {
          std::vector<plum::Element> el(recs.size());
          for (std::size_t i = 0; i < recs.size(); ++i) {
            el[i] = {Vec3(recs[i].x, recs[i].y, recs[i].z), std::max(1.0, recs[i].w)};
          }
          return plum::rib_partition(el, P);
        });
        const auto& new_owner = *new_owner_sp;

        std::vector<std::vector<Body>> sendbufs(static_cast<std::size_t>(P));
        for (std::size_t i = 0; i < owned.size(); ++i) {
          sendbufs[static_cast<std::size_t>(new_owner[off + i])].push_back(owned[i]);
        }
        const auto rbufs = shmem_alltoallv<Body>(ctx, body_vb, sendbufs);
        owned.clear();
        for (const auto& rb : rbufs) owned.insert(owned.end(), rb.begin(), rb.end());
        O2K_CHECK(!owned.empty(), "nbody shmem: rank left with no bodies after remap");
      }

      // ---- tree
      std::optional<Octree> tree;
      {
        auto ph = pe.phase("tree");
        tree.emplace(std::span<const Body>(owned));
        pe.advance(static_cast<double>(owned.size()) * kc.tree_insert_ns +
                   static_cast<double>(tree->cells().size()) * kc.com_cell_ns);
      }

      // ---- comm: fcollect boxes, one-sided LET exchange.
      std::vector<Body> imports;
      std::optional<Octree> import_tree;
      {
        auto ph = pe.phase("comm");
        detail::BBox box;
        for (const Body& b : owned) box.grow(b.pos);
        *ctx.local(my_box) = box;
        ctx.fcollect(all_boxes, my_box, 1);
        const detail::BBox* boxes = ctx.local(all_boxes);

        std::vector<std::vector<detail::PseudoBody>> exports(static_cast<std::size_t>(P));
        std::size_t visited = 0;
        for (int dst = 0; dst < P; ++dst) {
          if (dst == me) continue;
          visited += detail::collect_exports(*tree, owned, boxes[dst], cfg.theta,
                                             exports[static_cast<std::size_t>(dst)]);
        }
        pe.advance(static_cast<double>(visited) * kc.com_cell_ns);

        const auto received = shmem_alltoallv<detail::PseudoBody>(ctx, let_vb, exports);
        for (int src = 0; src < P; ++src) {
          if (src == me) continue;
          for (const auto& p : received[static_cast<std::size_t>(src)]) {
            Body b;
            b.pos = p.pos;
            b.mass = p.mass;
            b.id = -1;
            imports.push_back(b);
          }
        }
        if (!imports.empty()) {
          import_tree.emplace(std::span<const Body>(imports));
          pe.advance(static_cast<double>(imports.size()) * kc.tree_insert_ns +
                     static_cast<double>(import_tree->cells().size()) * kc.com_cell_ns);
        }
        pe.add_counter("nbody.imports", imports.size());
      }

      // ---- force
      {
        auto ph = pe.phase("force");
        WalkStats ws{};
        for (Body& b : owned) {
          const std::size_t before = ws.interactions();
          Vec3 a = tree->accel(b, owned, cfg.theta, cfg.eps, ws);
          if (import_tree) a += import_tree->accel(b, imports, cfg.theta, cfg.eps, ws);
          b.acc = a;
          b.work = static_cast<double>(ws.interactions() - before);
        }
        pe.add_counter("nbody.interactions", ws.interactions());
        pe.advance(static_cast<double>(ws.interactions()) * kc.body_cell_interaction_ns);
      }

      // ---- update
      {
        auto ph = pe.phase("update");
        nbody::leapfrog(owned, cfg.dt);
        pe.advance(static_cast<double>(owned.size()) * kc.body_update_ns);
      }
    }

    // ---- checks
    std::array<double, 7> partial{};
    partial[0] = static_cast<double>(owned.size());
    partial[1] = nbody::kinetic_energy(owned);
    const Vec3 mom = nbody::total_momentum(owned);
    partial[2] = mom.x;
    partial[3] = mom.y;
    partial[4] = mom.z;
    for (const Body& b : owned) {
      partial[5] += b.pos.norm();
      partial[6] += b.mass;
    }
    for (auto& v : partial) v = ctx.sum_to_all(v);
    if (me == 0) {
      std::scoped_lock lk(checks_mu);
      checks["n"] = partial[0];
      checks["ke"] = partial[1];
      checks["mom"] = Vec3(partial[2], partial[3], partial[4]).norm();
      checks["xsum"] = partial[5];
      checks["mass"] = partial[6];
    }
  });

  AppReport out;
  out.run = std::move(rr);
  out.checks = std::move(checks);
  return out;
}

}  // namespace o2k::apps
