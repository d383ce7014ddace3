#include "probes.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <functional>
#include <span>

#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "dht/chord.hpp"
#include "exec/engine.hpp"
#include "mesh/mesh.hpp"
#include "mp/comm.hpp"
#include "plum/partition.hpp"
#include "rt/machine.hpp"
#include "sas/sas.hpp"
#include "shmem/shmem.hpp"

namespace hostbench {

namespace {

using Clock = std::chrono::steady_clock;
using o2k::rt::Machine;
using o2k::rt::Pe;

constexpr int kTrials = 3;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median over kTrials of each of the N values one trial returns.
template <std::size_t N>
std::array<double, N> medians_of_trials(const std::function<std::array<double, N>()>& trial) {
  std::array<std::vector<double>, N> v{};
  for (int k = 0; k < kTrials; ++k) {
    const std::array<double, N> t = trial();
    for (std::size_t i = 0; i < N; ++i) v[i].push_back(t[i]);
  }
  std::array<double, N> out{};
  for (std::size_t i = 0; i < N; ++i) out[i] = median(std::move(v[i]));
  return out;
}

double median_of_trials(const std::function<double()>& trial) {
  return medians_of_trials<1>([&] { return std::array<double, 1>{trial()}; })[0];
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// Iteration counts: the benchmark's, or 1/50 of them for the tests.
struct Iters {
  Size size;
  [[nodiscard]] int operator()(int full) const {
    return size == Size::kFull ? full : std::max(1, full / 50);
  }
};

// ---- exec --------------------------------------------------------------

/// Wall seconds per hand-off of a token passed around a ring of kProcs
/// fibers: each rank parks until the token reaches it, then wakes the next.
double token_ring(o2k::exec::FiberEngine& eng, const o2k::exec::FiberEngine::Plan& plan,
                  int rounds) {
  std::atomic<int> token{0};
  const auto t0 = Clock::now();
  eng.run(
      kProcs,
      [&](int r) {
        for (int k = 0; k < rounds; ++k) {
          const int mine = k * kProcs + r;
          for (;;) {
            const std::uint64_t e = eng.wait_epoch(r);
            if (token.load(std::memory_order_acquire) == mine) break;
            eng.park(r, e);
          }
          token.store(mine + 1, std::memory_order_release);
          eng.wake((r + 1) % kProcs);
        }
      },
      plan);
  return since(t0) / (static_cast<double>(rounds) * kProcs);
}

void exec_probes(const Iters& it, std::vector<Metric>& out) {
  o2k::exec::FiberEngine eng;
  const int runs = it(200);
  out.push_back({"exec.run_us", 1e6 * median_of_trials([&] {
                   const auto t0 = Clock::now();
                   for (int i = 0; i < runs; ++i) eng.run(kProcs, [](int) {});
                   return since(t0) / runs;
                 }),
                 "us"});
  const int rounds = it(200);
  out.push_back({"exec.handoff_ns",
                 1e9 * median_of_trials([&] { return token_ring(eng, {}, rounds); }), "ns"});
  const o2k::exec::FiberEngine::Plan local{1, nullptr};
  out.push_back({"exec.handoff_local_ns",
                 1e9 * median_of_trials([&] { return token_ring(eng, local, rounds); }), "ns"});
  // Neighbouring ranks on different workers: every hand-off crosses.
  const int w = pinned_workers();
  std::vector<int> affinity(kProcs);
  for (int r = 0; r < kProcs; ++r) affinity[static_cast<std::size_t>(r)] = r % w;
  const o2k::exec::FiberEngine::Plan cross{w, affinity.data()};
  out.push_back({"exec.handoff_cross_ns",
                 1e9 * median_of_trials([&] { return token_ring(eng, cross, rounds); }), "ns"});
}

// ---- rt ----------------------------------------------------------------

void rt_probes(const Iters& it, std::vector<Metric>& out) {
  Machine m;
  const int runs = it(50);
  out.push_back({"rt.run_ms", 1e3 * median_of_trials([&] {
                   const auto t0 = Clock::now();
                   for (int i = 0; i < runs; ++i) m.run(kProcs, [](Pe&) {});
                   return since(t0) / runs;
                 }),
                 "ms"});
  const int barriers = it(500);
  out.push_back({"rt.barrier_us", 1e6 * median_of_trials([&] {
                   const auto t0 = Clock::now();
                   m.run(kProcs, [&](Pe& pe) {
                     for (int i = 0; i < barriers; ++i) pe.barrier(1.0);
                   });
                   return since(t0) / barriers;
                 }),
                 "us"});
}

// ---- mp ----------------------------------------------------------------

/// One 16-byte record per destination: the size of a dht request record.
struct Rec16 {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
};

void mp_probes(const Iters& it, std::vector<Metric>& out) {
  Machine m;
  m.set_workers(pinned_workers());
  // Wall seconds of one Machine::run in which every rank runs `body`.
  auto timed = [&](const std::function<void(o2k::mp::Comm&)>& body) {
    o2k::mp::World world(m.params(), kProcs);
    const auto t0 = Clock::now();
    m.run(kProcs, [&](Pe& pe) {
      o2k::mp::Comm c(world, pe);
      body(c);
    });
    return since(t0);
  };

  const int eager = it(400);
  out.push_back({"mp.eager_ns", 1e9 * median_of_trials([&] {
                   return timed([&](o2k::mp::Comm& c) {
                            const int r = c.rank();
                            for (int k = 0; k < eager; ++k) {
                              c.send_value(static_cast<double>(k), (r + 1) % kProcs, 1);
                              (void)c.recv_value<double>((r + kProcs - 1) % kProcs, 1);
                            }
                          }) /
                          (static_cast<double>(eager) * kProcs);
                 }),
                 "ns"});

  const int rndv = it(40);
  const std::vector<std::byte> big(std::size_t{512} << 10);
  out.push_back({"mp.rndv_us", 1e6 * median_of_trials([&] {
                   return timed([&](o2k::mp::Comm& c) {
                            for (int k = 0; k < rndv; ++k) {
                              if (c.rank() == 0) c.send(std::span<const std::byte>(big), 1, 2);
                              if (c.rank() == 1) (void)c.recv_bytes(0, 2);
                            }
                          }) /
                          rndv;
                 }),
                 "us"});

  const int rounds = it(100);
  out.push_back({"mp.alltoallv_us", 1e6 * median_of_trials([&] {
                   return timed([&](o2k::mp::Comm& c) {
                            const std::vector<std::vector<Rec16>> send(
                                kProcs, std::vector<Rec16>(1, Rec16{}));
                            for (int k = 0; k < rounds; ++k) (void)c.alltoallv(send);
                          }) /
                          rounds;
                 }),
                 "us"});

  const int reduces = it(400);
  out.push_back({"mp.allreduce_us", 1e6 * median_of_trials([&] {
                   return timed([&](o2k::mp::Comm& c) {
                            std::array<std::int64_t, 4> v{};
                            for (int k = 0; k < reduces; ++k) {
                              v.fill(c.rank());
                              c.allreduce_sum(std::span<std::int64_t>(v));
                            }
                          }) /
                          reduces;
                 }),
                 "us"});
}

// ---- shmem -------------------------------------------------------------

void shmem_probes(const Iters& it, std::vector<Metric>& out) {
  Machine m;
  o2k::shmem::World world(m.params(), kProcs, std::size_t{1} << 20);
  const int puts = it(2000), bulk = it(100), atomics = it(2000), barriers = it(500);
  std::vector<double> put_s(kProcs), bulk_s(kProcs), atomic_s(kProcs);
  double barrier_s = 0.0;
  auto trial = [&] {
    m.run(kProcs, [&](Pe& pe) {
      o2k::shmem::Ctx ctx(world, pe);
      const int r = pe.rank();
      const int next = (r + 1) % kProcs;
      const auto small = ctx.malloc<std::byte>(64);
      const auto large = ctx.malloc<std::byte>(std::size_t{64} << 10);
      const auto cell = ctx.malloc<std::int64_t>(1);
      const std::vector<std::byte> src(std::size_t{64} << 10);
      ctx.barrier_all();
      auto t0 = Clock::now();
      for (int k = 0; k < puts; ++k) ctx.put(small, std::span<const std::byte>(src.data(), 64), next);
      put_s[static_cast<std::size_t>(r)] = since(t0);
      t0 = Clock::now();
      for (int k = 0; k < bulk; ++k) ctx.put(large, std::span<const std::byte>(src), next);
      bulk_s[static_cast<std::size_t>(r)] = since(t0);
      ctx.barrier_all();
      t0 = Clock::now();
      for (int k = 0; k < atomics; ++k) (void)ctx.fetch_add(cell, 1, next);
      atomic_s[static_cast<std::size_t>(r)] = since(t0);
      ctx.barrier_all();
      t0 = Clock::now();
      for (int k = 0; k < barriers; ++k) ctx.barrier_all();
      if (r == 0) barrier_s = since(t0);
    });
  };
  const auto med = medians_of_trials<4>([&] {
    trial();
    return std::array<double, 4>{sum(put_s) / (static_cast<double>(puts) * kProcs),
                                 sum(bulk_s) / (static_cast<double>(bulk) * kProcs),
                                 sum(atomic_s) / (static_cast<double>(atomics) * kProcs),
                                 barrier_s / barriers};
  });
  out.push_back({"shmem.put_ns", 1e9 * med[0], "ns"});
  out.push_back({"shmem.put_bulk_us", 1e6 * med[1], "us"});
  out.push_back({"shmem.atomic_ns", 1e9 * med[2], "ns"});
  out.push_back({"shmem.barrier_all_us", 1e6 * med[3], "us"});
}

// ---- sas ---------------------------------------------------------------

void sas_probes(const Iters& it, std::vector<Metric>& out) {
  Machine m;
  // The read region is twice the 4 MB direct-mapped cache, so a sequential
  // pass evicts every line before it is read again: every line misses, and
  // round-robin pages put almost all homes off-node.
  const std::size_t read_bytes = std::size_t{8} << 20;
  const std::size_t write_bytes = std::size_t{64} << 10;
  o2k::sas::World world(m.params(), kProcs, read_bytes + write_bytes + (std::size_t{1} << 20),
                        o2k::sas::Placement::kRoundRobin);
  const auto rd = world.alloc<std::byte>(read_bytes, "probe.read");
  const auto wr = world.alloc<std::byte>(write_bytes, "probe.write");
  const double line = m.params().cache_line_bytes;
  const int passes = it(2), epochs = it(50), locks = it(2000);
  std::vector<double> read_s(kProcs), write_s(kProcs), lock_s(kProcs);
  std::vector<Clock::time_point> enter(static_cast<std::size_t>(epochs) * kProcs),
      leave(static_cast<std::size_t>(epochs) * kProcs);
  auto trial = [&] {
    m.run(kProcs, [&](Pe& pe) {
      o2k::sas::Team team(world, pe);
      const auto r = static_cast<std::size_t>(pe.rank());
      auto t0 = Clock::now();
      for (int k = 0; k < passes; ++k) team.touch_read_range(rd, 0, rd.count);
      read_s[r] = since(t0);
      team.barrier();
      // Every PE writes the same lines each epoch, so each barrier commits
      // them with several writers and the next epoch's writes miss again.
      write_s[r] = 0.0;
      for (int e = 0; e < epochs; ++e) {
        t0 = Clock::now();
        team.touch_write_range(wr, 0, wr.count);
        write_s[r] += since(t0);
        enter[static_cast<std::size_t>(e) * kProcs + r] = Clock::now();
        team.barrier();
        leave[static_cast<std::size_t>(e) * kProcs + r] = Clock::now();
      }
      t0 = Clock::now();
      for (int k = 0; k < locks; ++k) {
        team.lock(r);
        team.unlock(r);
      }
      lock_s[r] = since(t0);
    });
  };
  const auto med = medians_of_trials<4>([&] {
    trial();
    // Commit: from the last PE reaching a post-write barrier to the last PE
    // leaving it, median over epochs.
    std::vector<double> commit(static_cast<std::size_t>(epochs));
    for (std::size_t e = 0; e < commit.size(); ++e) {
      const auto in = enter.begin() + static_cast<std::ptrdiff_t>(e * kProcs);
      const auto gone = leave.begin() + static_cast<std::ptrdiff_t>(e * kProcs);
      commit[e] = std::chrono::duration<double>(*std::max_element(gone, gone + kProcs) -
                                                *std::max_element(in, in + kProcs))
                      .count();
    }
    return std::array<double, 4>{
        sum(read_s) / (passes * kProcs * (static_cast<double>(read_bytes) / line)),
        sum(write_s) / (epochs * kProcs * (static_cast<double>(write_bytes) / line)),
        median(std::move(commit)), sum(lock_s) / (static_cast<double>(locks) * kProcs)};
  });
  out.push_back({"sas.read_line_ns", 1e9 * med[0], "ns"});
  out.push_back({"sas.write_line_ns", 1e9 * med[1], "ns"});
  out.push_back({"sas.commit_us", 1e6 * med[2], "us"});
  out.push_back({"sas.lock_ns", 1e9 * med[3], "ns"});
}

// ---- serial kernels ----------------------------------------------------

void kernel_probes(const Iters& it, Size size, std::uint64_t seed, std::vector<Metric>& out) {
  auto t0 = Clock::now();
  (void)o2k::apps::run_nbody_serial(nbody_sas_config(seed, size));
  out.push_back({"nbody.serial_s", since(t0), "s"});

  const o2k::apps::MeshConfig mcfg = mesh_shmem_config(size);
  t0 = Clock::now();
  (void)o2k::apps::run_mesh_serial(mcfg);
  out.push_back({"mesh.serial_s", since(t0), "s"});

  const o2k::mesh::TetMesh mesh = o2k::mesh::make_box_mesh(mcfg.nx, mcfg.ny, mcfg.nz);
  std::vector<o2k::plum::Element> elems;
  for (const o2k::mesh::TetId t : mesh.alive_ids()) elems.push_back({mesh.centroid(t), 1.0});
  out.push_back({"plum.rib_ms", 1e3 * median_of_trials([&] {
                   const auto t1 = Clock::now();
                   (void)o2k::plum::rib_partition(elems, kProcs);
                   return since(t1);
                 }),
                 "ms"});

  // Greedy Chord routes over the dht-mp overlay (4 nodes per PE, all alive).
  const int nodes = 4 * kProcs;
  const o2k::dht::Ring ring =
      o2k::dht::Ring::build(std::vector<std::uint8_t>(static_cast<std::size_t>(nodes), 1));
  std::vector<o2k::dht::Fingers> fingers;
  for (int n = 0; n < nodes; ++n)
    fingers.push_back(o2k::dht::Fingers::build(ring, static_cast<o2k::dht::NodeId>(n)));
  const auto keys = static_cast<std::uint32_t>(it(100'000));
  out.push_back({"dht.next_hop_ns", 1e9 * median_of_trials([&] {
                   std::uint64_t calls = 0;
                   const auto t1 = Clock::now();
                   for (std::uint32_t key = 0; key < keys; ++key) {
                     auto node = static_cast<o2k::dht::NodeId>(key % nodes);
                     for (;;) {
                       const auto [next, scanned] =
                           o2k::dht::next_hop(ring, fingers[node], key);
                       ++calls;
                       if (next == node) break;
                       node = next;
                     }
                   }
                   return since(t1) / static_cast<double>(calls);
                 }),
                 "ns"});
}

}  // namespace

std::vector<Metric> run_probes(Size size, std::uint64_t seed) {
  const Iters it{size};
  std::vector<Metric> out;
  exec_probes(it, out);
  rt_probes(it, out);
  mp_probes(it, out);
  shmem_probes(it, out);
  sas_probes(it, out);
  kernel_probes(it, size, seed, out);
  return out;
}

}  // namespace hostbench
