// SHMEM (one-sided) dynamic remeshing: the MP pipeline re-plumbed through
// the symmetric heap — closure marks land via one-sided allgatherv, the
// PLUM gather/scatter and the bulk remap via one-sided alltoallv, and the
// remap decision is published with a broadcast through a symmetric cell.
#include <array>
#include <cmath>
#include <mutex>

#include "apps/mesh_app.hpp"
#include "apps/mesh_detail.hpp"
#include "apps/replicated.hpp"
#include "apps/shmem_coll.hpp"
#include "common/check.hpp"
#include "common/overlay.hpp"
#include "plum/partition.hpp"
#include "plum/remap.hpp"

namespace o2k::apps {

using detail::ElemRec;
using detail::LocalMesh;
using detail::MarkSet64;
using detail::TetRec;

AppReport run_mesh_shmem(rt::Machine& machine, int nprocs, const MeshConfig& cfg) {
  O2K_REQUIRE(cfg.phases >= 1, "mesh: need at least one phase");
  const auto kc = origin::KernelCosts::origin2000();

  const std::size_t cap_global = cfg.element_capacity();
  const std::size_t cap_local =
      4 * cap_global / static_cast<std::size_t>(nprocs) + 4096;
  const std::size_t heap_bytes = cap_global * (2 * sizeof(std::uint64_t) + sizeof(ElemRec)) +
                                 cap_local * (sizeof(TetRec) + sizeof(int)) + (1u << 20);
  shmem::World world(machine.params(), nprocs, heap_bytes);

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
    shmem::Ctx ctx(world, pe);
    const int P = pe.size();
    const int me = pe.rank();

    ShmemVBuf<std::uint64_t> key_vb(ctx, 2 * cap_global);
    ShmemVBuf<ElemRec> elem_vb(ctx, cap_global);
    ShmemVBuf<TetRec> tet_vb(ctx, cap_local);
    ShmemVBuf<int> owner_vb(ctx, cap_local);
    auto flag_cell = ctx.malloc<std::int64_t>(1);

    // ---- uncharged setup (identical to the MP code; computed once on the
    // host and shared by every PE).
    LocalMesh lm;
    {
      const auto setup = setup_cache.get(pe, 0, [&] {
        Setup s;
        s.gm = mesh::make_box_mesh(cfg.nx, cfg.ny, cfg.nz, cfg.scale);
        std::vector<plum::Element> el(s.gm.tets.size());
        for (std::size_t t = 0; t < s.gm.tets.size(); ++t) {
          el[t] = {s.gm.centroid(static_cast<mesh::TetId>(t)), 1.0};
        }
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

    // Phase count and solver weight via the campaign overlay (see mesh_mp.cpp).
    for (int k = 0;
         k < static_cast<int>(common::overlay_i64("mesh.phases", cfg.phases)); ++k) {
      pe.checkpoint("phase");  // clock-neutral; no-op unless a campaign armed it
      const mesh::SphereFront front{cfg.front_center(k), cfg.front_radius(),
                                    cfg.front_width()};
      {
        auto ph = pe.phase("solve");
        pe.advance(static_cast<double>(lm.tets.size()) *
                   common::overlay_f64("mesh.solve_ns", cfg.solve_ns_per_tet));
      }
      ctx.barrier_all();  // outside the phase scope so solve imbalance is measurable

      MarkSet64 marks;
      {
        auto ph = pe.phase("mark");
        detail::mark_local(lm, front, marks);
        pe.advance(static_cast<double>(lm.tets.size()) * 6.0 * kc.edge_mark_ns);
      }

      {
        auto ph = pe.phase("closure");
        for (;;) {
          std::vector<std::uint64_t> additions;
          detail::close_local_round(lm, marks, additions);
          pe.advance(static_cast<double>(lm.tets.size()) * 6.0 * kc.edge_mark_ns * 0.5);
          const std::int64_t any =
              ctx.max_to_all(static_cast<std::int64_t>(additions.empty() ? 0 : 1));
          if (any == 0) break;
          const auto all = shmem_allgatherv<std::uint64_t>(ctx, key_vb, additions);
          for (std::uint64_t key : all) marks.insert(key);
        }
      }

      if (cfg.use_plum && P > 1) {
        bool do_remap = false;
        std::vector<int> my_new_owner;
        {
          auto ph = pe.phase("balance");
          std::vector<ElemRec> mine(lm.tets.size());
          for (std::size_t t = 0; t < lm.tets.size(); ++t) {
            const Vec3 c = lm.centroid(t);
            mine[t] = {c.x, c.y, c.z,
                       static_cast<double>(mesh::predicted_weight(detail::local_mask(lm, t, marks))),
                       me, 0};
          }
          // Parallel-RIB charge; see the MP code.
          pe.advance(static_cast<double>(mine.size()) * rib_levels * kc.partition_vertex_ns);
          std::vector<std::vector<ElemRec>> gb(static_cast<std::size_t>(P));
          gb[0] = std::move(mine);
          const auto gathered = shmem_alltoallv<ElemRec>(ctx, elem_vb, gb);

          std::vector<std::vector<int>> owner_out(static_cast<std::size_t>(P));
          std::int64_t remap_flag = 0;
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
                moved_w * sizeof(TetRec) / machine.params().shmem_bw_bytes_per_ns +
                2.0 * machine.params().shmem_o_ns * P;
            const auto decision =
                plum::evaluate_remap(cfg.policy, avg_solve, imb_old, imb_new, remap_cost);
            remap_flag = decision.do_remap ? 1 : 0;
            pe.add_counter("plum.moved_weight", static_cast<std::uint64_t>(moved_w));
            std::size_t off = 0;
            for (int r = 0; r < P; ++r) {
              const std::size_t n = gathered[static_cast<std::size_t>(r)].size();
              owner_out[static_cast<std::size_t>(r)].assign(
                  new_owner.begin() + static_cast<std::ptrdiff_t>(off),
                  new_owner.begin() + static_cast<std::ptrdiff_t>(off + n));
              off += n;
            }
            *ctx.local(flag_cell) = remap_flag;
          }
          ctx.broadcast(flag_cell, 1, 0);
          remap_flag = *ctx.local(flag_cell);
          const auto owner_back = shmem_alltoallv<int>(ctx, owner_vb, owner_out);
          my_new_owner = owner_back[0];
          do_remap = remap_flag != 0;
        }

        {
          auto ph = pe.phase("remap");
          if (do_remap) {
            O2K_CHECK(my_new_owner.size() == lm.tets.size(), "mesh shmem: owner slice mismatch");
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
            const auto received = shmem_alltoallv<TetRec>(ctx, tet_vb, sendbufs);
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
            // Re-derive geometric marks for the rebuilt mesh (see the MP
            // code): migrated elements' pre-closure marks were sender-local.
            detail::mark_local(lm, front, marks);
          }
          ctx.barrier_all();
        }
      }

      {
        auto ph = pe.phase("refine");
        const auto st = detail::refine_local(lm, marks);
        pe.advance(static_cast<double>(st.refined) * kc.tet_refine_ns +
                   static_cast<double>(st.new_verts) * kc.vertex_create_ns +
                   static_cast<double>(lm.tets.size()) * kc.dualgraph_ns);
        pe.add_counter("mesh.refined", st.refined);
      }
      ctx.barrier_all();
    }

    double tets_total = ctx.sum_to_all(static_cast<double>(lm.tets.size()));
    double vol_total = ctx.sum_to_all(lm.total_volume());
    if (me == 0) {
      std::scoped_lock lk(checks_mu);
      checks["tets"] = tets_total;
      checks["volume"] = vol_total;
    }
  });

  AppReport out;
  out.run = std::move(rr);
  out.checks = std::move(checks);
  return out;
}

}  // namespace o2k::apps
