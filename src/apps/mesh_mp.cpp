// MP (message-passing) dynamic remeshing: distributed mesh + PLUM.
//
// Per phase: surrogate solve → local marking (geometric, hence globally
// consistent) → closure with allgatherv exchange of promotion-induced edge
// keys until a global fixpoint → PLUM balance (gather weighted centroids to
// rank 0, RIB repartition, similarity-matrix processor reassignment,
// gain-based remap decision, all-to-all element remap) → local refinement.
#include <array>
#include <cmath>
#include <mutex>

#include "apps/mesh_app.hpp"
#include "apps/mesh_detail.hpp"
#include "apps/replicated.hpp"
#include "common/check.hpp"
#include "common/overlay.hpp"
#include "mp/comm.hpp"
#include "plum/partition.hpp"
#include "plum/remap.hpp"

namespace o2k::apps {

using detail::ElemRec;
using detail::LocalMesh;
using detail::MarkSet64;
using detail::TetRec;

AppReport run_mesh_mp(rt::Machine& machine, int nprocs, const MeshConfig& cfg) {
  O2K_REQUIRE(cfg.phases >= 1, "mesh: need at least one phase");
  const auto kc = origin::KernelCosts::origin2000();
  mp::World world(machine.params(), nprocs);

  std::map<std::string, double> checks;
  std::mutex checks_mu;

  // Shared result of the uncharged setup every PE replicates on identical
  // inputs (see replicated.hpp); virtual charges are untouched.
  struct Setup {
    mesh::TetMesh gm;
    std::vector<int> owner;
  };
  detail::Replicated<Setup> setup_cache;

  auto rr = machine.run(nprocs, [&](rt::Pe& pe) {
    mp::Comm comm(world, pe);
    const int P = pe.size();
    const int me = pe.rank();

    // ---- uncharged setup: identical global mesh + deterministic initial RIB
    // (computed once on the host, shared by every PE).
    LocalMesh lm;
    {
      const auto setup = setup_cache.get(pe, 0, [&] {
        Setup s;
        s.gm = mesh::make_box_mesh(cfg.nx, cfg.ny, cfg.nz, cfg.scale);
        std::vector<plum::Element> el(s.gm.tets.size());
        for (std::size_t t = 0; t < s.gm.tets.size(); ++t)
          el[t] = {s.gm.centroid(static_cast<mesh::TetId>(t)), 1.0};
        s.owner = plum::rib_partition(el, P);
        return s;
      });
      const mesh::TetMesh& gm = setup->gm;
      const std::vector<int>& owner0 = setup->owner;
      for (std::size_t t = 0; t < gm.tets.size(); ++t) {
        if (owner0[t] != me) continue;
        TetRec r{};
        const mesh::Tet& e = gm.tets[t];
        for (int k = 0; k < 4; ++k) {
          const Vec3& p = gm.verts[static_cast<std::size_t>(e.v[static_cast<std::size_t>(k)])];
          r.c[k][0] = p.x;
          r.c[k][1] = p.y;
          r.c[k][2] = p.z;
        }
        lm.add_record(r);
      }
    }

    const double rib_levels = P > 1 ? std::ceil(std::log2(static_cast<double>(P))) : 1.0;

    // Phase count and solver weight through the campaign overlay: warm-forked
    // children may extend the phase sweep or re-weight the surrogate solver.
    for (int k = 0;
         k < static_cast<int>(common::overlay_i64("mesh.phases", cfg.phases)); ++k) {
      pe.checkpoint("phase");  // clock-neutral; no-op unless a campaign armed it
      const mesh::SphereFront front{cfg.front_center(k), cfg.front_radius(),
                                    cfg.front_width()};
      // ---- solve (surrogate): pays for the current distribution's balance.
      {
        auto ph = pe.phase("solve");
        pe.advance(static_cast<double>(lm.tets.size()) *
                   common::overlay_f64("mesh.solve_ns", cfg.solve_ns_per_tet));
      }
      comm.barrier();  // outside the phase scope so solve imbalance is measurable

      // ---- mark (geometric, no communication needed).
      MarkSet64 marks;
      {
        auto ph = pe.phase("mark");
        detail::mark_local(lm, front, marks);
        pe.advance(static_cast<double>(lm.tets.size()) * 6.0 * kc.edge_mark_ns);
      }

      // ---- closure: promote + exchange fresh marks to a global fixpoint.
      {
        auto ph = pe.phase("closure");
        for (;;) {
          std::vector<std::uint64_t> additions;
          detail::close_local_round(lm, marks, additions);
          pe.advance(static_cast<double>(lm.tets.size()) * 6.0 * kc.edge_mark_ns * 0.5);
          const int any = comm.allreduce_max<int>(additions.empty() ? 0 : 1);
          if (any == 0) break;
          const auto all = comm.allgatherv<std::uint64_t>(additions);
          for (std::uint64_t key : all) marks.insert(key);
        }
      }

      // ---- balance: PLUM on rank 0 (gather → partition → reassign → decide).
      if (cfg.use_plum && P > 1) {
        bool do_remap = false;
        std::vector<int> my_new_owner;  // per local tet
        {
          auto ph = pe.phase("balance");
          std::vector<ElemRec> mine(lm.tets.size());
          for (std::size_t t = 0; t < lm.tets.size(); ++t) {
            const Vec3 c = lm.centroid(t);
            mine[t] = {c.x, c.y, c.z,
                       static_cast<double>(mesh::predicted_weight(detail::local_mask(lm, t, marks))),
                       me, 0};
          }
          // Gather to rank 0 (an alltoallv with a single non-empty target).
          // PLUM's RIB is a parallel partitioner: every PE is charged for
          // bisecting its own element share per level, while the functional
          // result is computed at rank 0 from the gathered cloud.
          pe.advance(static_cast<double>(mine.size()) * rib_levels * kc.partition_vertex_ns);
          std::vector<std::vector<ElemRec>> gb(static_cast<std::size_t>(P));
          gb[0] = std::move(mine);
          const auto gathered = comm.alltoallv<ElemRec>(gb);

          std::vector<std::vector<int>> owner_out(static_cast<std::size_t>(P));
          int remap_flag = 0;
          if (me == 0) {
            std::size_t nelem = 0;
            for (const auto& blk : gathered) nelem += blk.size();
            std::vector<plum::Element> el;
            std::vector<int> cur;
            std::vector<double> w;
            el.reserve(nelem);
            cur.reserve(nelem);
            w.reserve(nelem);
            for (const auto& blk : gathered) {
              for (const ElemRec& r : blk) {
                el.push_back({Vec3(r.x, r.y, r.z), r.w});
                cur.push_back(r.owner);
                w.push_back(r.w);
              }
            }
            const auto part = plum::rib_partition(el, P);
            const auto sim = plum::similarity_matrix(cur, part, w, P);
            const auto label_map = plum::assign_greedy(sim);
            std::vector<int> new_owner(nelem);
            for (std::size_t i = 0; i < nelem; ++i) {
              new_owner[i] = label_map[static_cast<std::size_t>(part[i])];
            }
            // Gain model: next solve costs avg_work * imbalance.
            const double imb_old = plum::imbalance(el, cur, P);
            const double imb_new = plum::imbalance(el, new_owner, P);
            double total_w = 0.0;
            for (double x : w) total_w += x;
            // Amortise the gain over the phases that will run on this
            // distribution before the next rebalance opportunity (PLUM's
            // gain model is per-iteration-interval, not per-solve).
            const double avg_solve =
                total_w / P * common::overlay_f64("mesh.solve_ns", cfg.solve_ns_per_tet) *
                (static_cast<int>(common::overlay_i64("mesh.phases", cfg.phases)) - k);
            const double moved_w = plum::total_weight(sim) - plum::retained_weight(sim, label_map);
            const double remap_cost =
                moved_w * sizeof(TetRec) / machine.params().mp_bw_bytes_per_ns +
                2.0 * machine.params().mp_o_send_ns * P;
            const auto decision =
                plum::evaluate_remap(cfg.policy, avg_solve, imb_old, imb_new, remap_cost);
            remap_flag = decision.do_remap ? 1 : 0;
            pe.add_counter("plum.moved_weight", static_cast<std::uint64_t>(moved_w));
            // Slice the new owners back per source rank (gathered order is
            // source-concatenated).
            std::size_t off = 0;
            for (int r = 0; r < P; ++r) {
              const std::size_t n = gathered[static_cast<std::size_t>(r)].size();
              owner_out[static_cast<std::size_t>(r)].assign(
                  new_owner.begin() + static_cast<std::ptrdiff_t>(off),
                  new_owner.begin() + static_cast<std::ptrdiff_t>(off + n));
              off += n;
            }
          }
          remap_flag = comm.bcast_value(remap_flag, 0);
          const auto owner_back = comm.alltoallv<int>(owner_out);
          my_new_owner = owner_back[0];
          do_remap = remap_flag != 0;
        }

        // ---- remap: bulk element migration.
        {
          auto ph = pe.phase("remap");
          if (do_remap) {
            O2K_CHECK(my_new_owner.size() == lm.tets.size(), "mesh mp: owner slice mismatch");
            std::vector<std::vector<TetRec>> sendbufs(static_cast<std::size_t>(P));
            LocalMesh kept;
            std::size_t moved = 0;
            for (std::size_t t = 0; t < lm.tets.size(); ++t) {
              const std::uint32_t mask = detail::local_mask(lm, t, marks);
              const int dst = my_new_owner[t];
              if (dst == me) {
                kept.add_record(lm.record_of(t, mask));
              } else {
                sendbufs[static_cast<std::size_t>(dst)].push_back(lm.record_of(t, mask));
                ++moved;
              }
            }
            const auto received = comm.alltoallv<TetRec>(sendbufs);
            lm = std::move(kept);
            std::size_t arrived = 0;
            for (int src = 0; src < P; ++src) {
              if (src == me) continue;
              for (const TetRec& r : received[static_cast<std::size_t>(src)]) {
                lm.add_record(r);
                ++arrived;
              }
            }
            pe.advance(static_cast<double>(arrived + moved) * kc.dualgraph_ns);
            pe.add_counter("mesh.moved_elems", moved);
            // Re-derive geometric marks for the rebuilt mesh: migrated
            // elements' initial (pre-closure) marks were local to the
            // sender; the geometry reproduces them exactly.  Closure
            // additions were globally broadcast and are already in `marks`.
            detail::mark_local(lm, front, marks);
          }
          comm.barrier();
        }
      }

      // ---- refine (local; marks are geometric so they survived the remap).
      {
        auto ph = pe.phase("refine");
        const auto st = detail::refine_local(lm, marks);
        pe.advance(static_cast<double>(st.refined) * kc.tet_refine_ns +
                   static_cast<double>(st.new_verts) * kc.vertex_create_ns +
                   static_cast<double>(lm.tets.size()) * kc.dualgraph_ns);
        pe.add_counter("mesh.refined", st.refined);
      }
      comm.barrier();
    }

    // ---- checks
    std::array<double, 2> partial{static_cast<double>(lm.tets.size()), lm.total_volume()};
    comm.allreduce_sum(std::span<double>(partial));
    if (me == 0) {
      std::scoped_lock lk(checks_mu);
      checks["tets"] = partial[0];
      checks["volume"] = partial[1];
    }
  });

  AppReport out;
  out.run = std::move(rr);
  out.checks = std::move(checks);
  return out;
}

}  // namespace o2k::apps
