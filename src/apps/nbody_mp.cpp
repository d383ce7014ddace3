// MP (message-passing) Barnes–Hut.
//
// Structure of the paper's MPI code: bodies are distributed by weighted ORB;
// every step each rank (1) optionally rebalances — replicated ORB over an
// allgathered (position, work) cloud followed by an all-to-all body remap —
// (2) builds an octree over its own bodies, (3) exchanges locally-essential
// pseudo-bodies against every other rank's bounding box, (4) computes forces
// from its local tree plus an octree built over the imports, (5) integrates.
// Everything the network carries is explicit, which is both the model's cost
// and its documentation.
#include <array>
#include <cmath>
#include <mutex>
#include <optional>

#include "apps/nbody_app.hpp"
#include "apps/nbody_detail.hpp"
#include "apps/replicated.hpp"
#include "common/check.hpp"
#include "common/overlay.hpp"
#include "mp/comm.hpp"
#include "nbody/octree.hpp"
#include "plum/partition.hpp"

namespace o2k::apps {

using nbody::Body;
using nbody::Octree;
using nbody::WalkStats;

namespace {

/// Number of bisection levels RIB performs for P parts.
double rib_levels(int p) { return p > 1 ? std::ceil(std::log2(static_cast<double>(p))) : 1.0; }

}  // namespace

AppReport run_nbody_mp(rt::Machine& machine, int nprocs, const NbodyConfig& cfg) {
  O2K_REQUIRE(cfg.n >= static_cast<std::size_t>(nprocs) * 8,
              "nbody: need at least 8 bodies per processor");
  O2K_REQUIRE(cfg.steps >= 1, "nbody: need at least one step");
  const auto kc = origin::KernelCosts::origin2000();
  mp::World world(machine.params(), nprocs);

  std::map<std::string, double> checks;
  std::mutex checks_mu;

  struct BalRec {
    double x, y, z, w;
  };

  // Host-side caches for the computations every PE performs on identical
  // replicated inputs (see replicated.hpp): the uncharged setup and the
  // per-step replicated-ORB owner map.  Virtual charges are untouched.
  struct Setup {
    std::vector<Body> all;
    std::vector<int> owner;
  };
  detail::Replicated<Setup> setup_cache;
  detail::Replicated<std::vector<int>> owner_cache;

  auto rr = machine.run(nprocs, [&](rt::Pe& pe) {
    mp::Comm comm(world, pe);
    const int P = pe.size();
    const int me = pe.rank();

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

    // Step count through the campaign overlay: a warm-forked child re-reads
    // the bound each iteration, so a fork at the "step" marker can extend or
    // shorten the remaining run without touching pre-fork state.
    for (int step = 0;
         step < static_cast<int>(common::overlay_i64("nbody.steps", cfg.steps)); ++step) {
      pe.checkpoint("step");  // clock-neutral; no-op unless a campaign armed it
      // ---- balance: replicated ORB on measured work + all-to-all remap.
      if (step > 0 && cfg.rebalance_every > 0 && step % cfg.rebalance_every == 0 && P > 1) {
        auto ph = pe.phase("balance");
        std::vector<BalRec> mine(owned.size());
        for (std::size_t i = 0; i < owned.size(); ++i) {
          mine[i] = {owned[i].pos.x, owned[i].pos.y, owned[i].pos.z, owned[i].work};
        }
        const auto counts = comm.allgather<std::int64_t>(static_cast<std::int64_t>(owned.size()));
        const auto recs = comm.allgatherv<BalRec>(mine);

        // Charged as a *parallel* ORB (each PE bisects its share per level,
        // as Salmon's method does); the functional result is computed
        // redundantly from the replicated cloud.
        pe.advance(static_cast<double>(recs.size()) / P * rib_levels(P) *
                   kc.partition_vertex_ns);
        // Every PE holds the same allgathered cloud (rank order), so the
        // replicated ORB result, and its input, is built once instead of P
        // times.
        const auto new_owner_sp = owner_cache.get(pe, static_cast<std::uint64_t>(step), [&] {
          std::vector<plum::Element> el(recs.size());
          for (std::size_t i = 0; i < recs.size(); ++i) {
            el[i] = {Vec3(recs[i].x, recs[i].y, recs[i].z), std::max(1.0, recs[i].w)};
          }
          return plum::rib_partition(el, P);
        });
        const auto& new_owner = *new_owner_sp;

        std::size_t off = 0;
        for (int r = 0; r < me; ++r) off += static_cast<std::size_t>(counts[static_cast<std::size_t>(r)]);
        std::vector<std::vector<Body>> sendbufs(static_cast<std::size_t>(P));
        for (std::size_t i = 0; i < owned.size(); ++i) {
          sendbufs[static_cast<std::size_t>(new_owner[off + i])].push_back(owned[i]);
        }
        const auto rbufs = comm.alltoallv<Body>(sendbufs);
        owned.clear();
        for (const auto& rb : rbufs) owned.insert(owned.end(), rb.begin(), rb.end());
        O2K_CHECK(!owned.empty(), "nbody mp: rank left with no bodies after remap");
      }

      // ---- tree: local octree over owned bodies.
      std::optional<Octree> tree;
      {
        auto ph = pe.phase("tree");
        tree.emplace(std::span<const Body>(owned));
        pe.advance(static_cast<double>(owned.size()) * kc.tree_insert_ns +
                   static_cast<double>(tree->cells().size()) * kc.com_cell_ns);
      }

      // ---- comm: bounding boxes + locally-essential exports, both ways.
      std::vector<Body> imports;
      std::optional<Octree> import_tree;
      {
        auto ph = pe.phase("comm");
        detail::BBox box;
        for (const Body& b : owned) box.grow(b.pos);
        const auto boxes = comm.allgather<detail::BBox>(box);

        std::vector<std::vector<detail::PseudoBody>> exports(static_cast<std::size_t>(P));
        std::size_t visited = 0;
        for (int dst = 0; dst < P; ++dst) {
          if (dst == me) continue;
          visited += detail::collect_exports(*tree, owned, boxes[static_cast<std::size_t>(dst)],
                                             cfg.theta, exports[static_cast<std::size_t>(dst)]);
        }
        pe.advance(static_cast<double>(visited) * kc.com_cell_ns);

        const auto received = comm.alltoallv<detail::PseudoBody>(exports);
        for (int src = 0; src < P; ++src) {
          if (src == me) continue;
          for (const auto& p : received[static_cast<std::size_t>(src)]) {
            Body b;
            b.pos = p.pos;
            b.mass = p.mass;
            b.id = -1;  // imports never match an owned id (no self-skip)
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

      // ---- force: own tree (self-skipping) + import tree.
      {
        auto ph = pe.phase("force");
        WalkStats ws{};
        for (Body& b : owned) {
          const std::size_t before = ws.interactions();
          Vec3 a = tree->accel(b, owned, cfg.theta, cfg.eps, ws);
          if (import_tree) {
            a += import_tree->accel(b, imports, cfg.theta, cfg.eps, ws);
          }
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

    // ---- model-independent checks (allreduced partials).
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
    comm.allreduce_sum(std::span<double>(partial));
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
