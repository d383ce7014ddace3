#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <sstream>
#include <thread>

#include "apps/dht_app.hpp"

namespace hostbench {

namespace {

using o2k::apps::AppReport;
using o2k::apps::Model;

// Full sizes scale down the shapes the workloads were defined with (nbody
// N=32768, dht 500 000 requests, mesh box 20) so one simulated run takes
// about a second on a 4-core host, which puts 10-30 timed runs in one
// benchmark run.  nbody-mp keeps N=65536, because its shape is the large
// messages: at 1024 bodies per rank the LET and remap exchanges exceed
// mp_eager_bytes and go rendezvous, while below 512 per rank they stay
// eager.  It runs 2 steps instead of 3, which keeps one balance phase.
// mesh stays at 4 phases: 6 phases crash the mesh apps, and box 12 breaks
// volume conservation (README.md).
constexpr std::size_t kNbodySasBodies = 8192;
constexpr int kNbodySasSteps = 3;
constexpr std::size_t kNbodyMpBodies = 65536;
constexpr int kNbodyMpSteps = 2;
constexpr std::uint64_t kDhtRequests = 100'000;
constexpr std::uint64_t kDhtChurnEvery = 10'000;
constexpr int kMeshBox = 14;
constexpr int kMeshPhases = 4;

// Reference makespans: the full-size runs at kDefaultSeed on the commit
// that introduced this benchmark (bit patterns, printed with "%a").
constexpr double kRefNbodySas = 0x1.4b040cp+24;
constexpr double kRefNbodyMp = 0x1.88d78c88f23b2p+27;
constexpr double kRefDhtMp = 0x1.510547dffffb9p+29;
constexpr double kRefMeshShmem = 0x1.e7d664aaaa9cp+25;

std::string describe(const char* name, double got, const char* want) {
  std::ostringstream os;
  os.precision(17);
  os << "check " << name << " = " << got << " (want " << want << ")";
  return os.str();
}

o2k::apps::NbodyConfig nbody_config(std::size_t n, int steps, std::uint64_t seed, Size size) {
  o2k::apps::NbodyConfig cfg;
  cfg.n = size == Size::kFull ? n : 1024;
  cfg.steps = size == Size::kFull ? steps : 1;
  cfg.seed = seed;
  return cfg;
}

std::string check_nbody(const AppReport& r, std::size_t n) {
  if (r.check("n") != static_cast<double>(n)) return describe("n", r.check("n"), "body count");
  if (!(std::abs(r.check("mass") - 1.0) <= 1e-9)) return describe("mass", r.check("mass"), "1");
  if (!(r.check("ke") > 0.0 && std::isfinite(r.check("ke"))))
    return describe("ke", r.check("ke"), "finite, > 0");
  if (!(r.check("mom") < 1e-2)) return describe("mom", r.check("mom"), "< 1e-2");
  return {};
}

o2k::apps::DhtConfig dht_config(std::uint64_t seed, Size size) {
  o2k::apps::DhtConfig cfg;
  cfg.requests = size == Size::kFull ? kDhtRequests : 8'000;
  cfg.churn_every = size == Size::kFull ? kDhtChurnEvery : 2'000;
  cfg.seed = seed;
  return cfg;
}

std::string check_dht(const AppReport& r, Size size) {
  const o2k::apps::DhtConfig cfg = dht_config(kDefaultSeed, size);
  if (r.check("served") != static_cast<double>(cfg.requests))
    return describe("served", r.check("served"), "every request");
  if (r.check("store_ok") != 1.0) return describe("store_ok", r.check("store_ok"), "1");
  if (r.check("replicas_ok") != 1.0) return describe("replicas_ok", r.check("replicas_ok"), "1");
  if (!(r.check("churn_events") > 0.0))
    return describe("churn_events", r.check("churn_events"), "> 0");
  return {};
}

std::string check_mesh(const AppReport& r, Size size) {
  const o2k::apps::MeshConfig cfg = mesh_shmem_config(size);
  const double volume = static_cast<double>(cfg.nx) * cfg.ny * cfg.nz;
  if (!(std::abs(r.check("volume") - volume) <= 1e-6 * volume))
    return describe("volume", r.check("volume"), "box volume");
  if (!(r.check("tets") > static_cast<double>(cfg.initial_tets())))
    return describe("tets", r.check("tets"), "> initial tets");
  return {};
}

std::vector<Workload> make_workloads() {
  std::vector<Workload> ws;
  ws.push_back(Workload{
      "nbody-sas", "nbody", Model::kSas, /*pinned=*/false, /*seeded=*/true, kRefNbodySas,
      [](o2k::rt::Machine& m, std::uint64_t seed, Size size) {
        return o2k::apps::run_nbody_sas(m, kProcs, nbody_sas_config(seed, size));
      },
      [](const AppReport& r, Size size) {
        return check_nbody(r, nbody_sas_config(kDefaultSeed, size).n);
      }});
  ws.push_back(Workload{
      "nbody-mp", "nbody", Model::kMp, /*pinned=*/true, /*seeded=*/true, kRefNbodyMp,
      [](o2k::rt::Machine& m, std::uint64_t seed, Size size) {
        return o2k::apps::run_nbody_mp(m, kProcs, nbody_mp_config(seed, size));
      },
      [](const AppReport& r, Size size) {
        return check_nbody(r, nbody_mp_config(kDefaultSeed, size).n);
      }});
  ws.push_back(Workload{
      "dht-mp", "dht", Model::kMp, /*pinned=*/true, /*seeded=*/true, kRefDhtMp,
      [](o2k::rt::Machine& m, std::uint64_t seed, Size size) {
        return o2k::apps::run_dht_mp(m, kProcs, dht_config(seed, size));
      },
      check_dht});
  ws.push_back(Workload{
      "mesh-shmem", "mesh", Model::kShmem, /*pinned=*/false, /*seeded=*/false, kRefMeshShmem,
      [](o2k::rt::Machine& m, std::uint64_t, Size size) {
        return o2k::apps::run_mesh_shmem(m, kProcs, mesh_shmem_config(size));
      },
      check_mesh});
  return ws;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> ws = make_workloads();
  return ws;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

int host_cores() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

int pinned_workers() { return std::min(4, host_cores()); }

void configure(o2k::rt::Machine& m, const Workload& w) {
  if (w.pinned) m.set_workers(pinned_workers());
}

std::optional<double> reference_for(const Workload& w, std::uint64_t seed, Size size) {
  if (size != Size::kFull) return std::nullopt;
  if (w.seeded && seed != kDefaultSeed) return std::nullopt;
  return w.reference_ns;
}

o2k::apps::NbodyConfig nbody_sas_config(std::uint64_t seed, Size size) {
  return nbody_config(kNbodySasBodies, kNbodySasSteps, seed, size);
}

o2k::apps::NbodyConfig nbody_mp_config(std::uint64_t seed, Size size) {
  return nbody_config(kNbodyMpBodies, kNbodyMpSteps, seed, size);
}

o2k::apps::MeshConfig mesh_shmem_config(Size size) {
  o2k::apps::MeshConfig cfg;
  cfg.nx = cfg.ny = cfg.nz = size == Size::kFull ? kMeshBox : 5;
  cfg.phases = size == Size::kFull ? kMeshPhases : 2;
  return cfg;
}

std::optional<AppReport> Verifier::attempt(
    const std::function<AppReport()>& run,
    const std::function<std::string(const AppReport&)>& check) {
  ++attempted_;
  std::optional<AppReport> rep;
  try {
    rep = run();
  } catch (const std::exception& e) {
    fail(std::string("run threw: ") + e.what());
    return std::nullopt;
  }
  if (std::string why = check(*rep); !why.empty()) {
    fail(std::move(why));
    return std::nullopt;
  }
  const double ms = rep->run.makespan_ns;
  if (reference_ && ms != *reference_) {
    fail("makespan " + hex(ms) + " differs from the reference " + hex(*reference_));
    return std::nullopt;
  }
  if (makespan_ && ms != *makespan_) {
    fail("makespan " + hex(ms) + " differs from the first run's " + hex(*makespan_));
    return std::nullopt;
  }
  makespan_ = ms;
  return rep;
}

void Verifier::fail(std::string why) {
  ++failed_;
  if (errors_.size() < 8) errors_.push_back(std::move(why));
}

std::string forbidden_env() {
  for (const char* name : {"O2K_EXEC", "O2K_WORKERS", "O2K_MIGRATE", "O2K_EXEC_WORKERS",
                           "O2K_EXEC_STACK_KB", "O2K_SANITIZE"}) {
    if (std::getenv(name) != nullptr) return name;
  }
  return {};
}

std::string hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace hostbench
