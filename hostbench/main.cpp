// hostbench — one process of the host-wall benchmark (run.py drives it).
//
//   hostbench --mode=timed  --workload=W --seed=S --seconds=T --spawn-ns=N
//   hostbench --mode=traced --workload=W --seed=S --tmp=DIR
//
// timed: build a Machine, run the workload once untimed (warm-up), then
// time runs until T seconds have passed.  `--spawn-ns` is the parent's
// CLOCK_MONOTONIC reading just before it started this process, so set-up
// time counts from process start.
//
// traced: the per-layer run.  Untraced runs give the baseline wall and CPU
// time; one run with the bench TraceSink attached gives phase host times
// and counts; one run under the repo's own metrics::Session gives its
// overhead; then every probe runs.
//
// Either mode verifies every simulated run and prints one JSON object on
// stdout.  Progress and warnings go to stderr.
#include <malloc.h>
#include <sys/resource.h>
#include <time.h>

#include <cstdio>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "metrics/json.hpp"
#include "metrics/metrics.hpp"
#include "probes.hpp"
#include "trace_sink.hpp"
#include "workloads.hpp"

namespace {

using hostbench::Metric;
using hostbench::Size;
using hostbench::Verifier;
using hostbench::Workload;
using o2k::apps::AppReport;

double mono_s() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto s = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return s(ru.ru_utime) + s(ru.ru_stime);
}

/// A workload bound to one Machine and seed, with its verification.
struct Bound {
  const Workload& w;
  o2k::rt::Machine& m;
  std::uint64_t seed;
  Verifier verifier;

  std::optional<AppReport> attempt() {
    return verifier.attempt([&] { return w.run(m, seed, Size::kFull); },
                            [&](const AppReport& r) { return w.check(r, Size::kFull); });
  }
  /// One verified run; returns host (wall, cpu) seconds.
  std::pair<double, double> timed(std::optional<AppReport>* rep = nullptr) {
    const double c0 = cpu_s();
    const double t0 = mono_s();
    auto r = attempt();
    const double wall = mono_s() - t0;
    const double cpu = cpu_s() - c0;
    if (rep != nullptr) *rep = std::move(r);
    return {wall, cpu};
  }
};

/// Fields both modes print: the outcome and what the run resolved to.
void write_common(o2k::metrics::JsonWriter& j, const Bound& b) {
  j.kv("workload", std::string(b.w.name));
  j.kv("attempted", b.verifier.attempted());
  j.kv("failed", b.verifier.failed());
  j.key("errors");
  j.begin_array();
  for (const std::string& e : b.verifier.errors()) j.value(e);
  j.end_array();
  j.kv("makespan", b.verifier.makespan() ? hostbench::hex(*b.verifier.makespan()) : "");
  j.kv("host_cores", hostbench::host_cores());
  j.kv("workers", b.m.workers());
  j.kv("backend", b.m.exec_backend() == o2k::rt::ExecBackend::kFibers ? "fibers" : "threads");
  j.kv("build_type", HOSTBENCH_BUILD_TYPE);
}

int run_timed(Bound& b, double seconds, double spawn_s) {
  b.attempt();  // warm-up: untimed, but verified
  const double first = mono_s();
  std::vector<double> walls, cpus;
  constexpr std::size_t kMinRuns = 2;
  while (walls.size() < kMinRuns || mono_s() - first < seconds) {
    const auto [wall, cpu] = b.timed();
    walls.push_back(wall);
    cpus.push_back(cpu);
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  o2k::metrics::JsonWriter j(std::cout);
  j.begin_object();
  write_common(j, b);
  j.kv("setup_s", first - spawn_s);
  j.key("wall_s");
  j.begin_array();
  for (double w : walls) j.value(w);
  j.end_array();
  j.key("cpu_s");
  j.begin_array();
  for (double c : cpus) j.value(c);
  j.end_array();
  j.kv("maxrss_kb", static_cast<std::int64_t>(ru.ru_maxrss));
  j.end_object();
  std::cout << '\n';
  return 0;
}

int run_traced(Bound& b, const std::string& tmp) {
  constexpr int kBaselineRuns = 3;
  std::vector<Metric> out;
  b.attempt();  // warm-up
  std::vector<double> walls, cpus;
  for (int i = 0; i < kBaselineRuns; ++i) {
    const auto [wall, cpu] = b.timed();
    walls.push_back(wall);
    cpus.push_back(cpu);
  }
  const double wall_s = hostbench::median(walls);

  // The traced run: the Verifier already holds the untraced makespan, so a
  // Sink that changed virtual time fails the run.
  hostbench::TraceSink sink(hostbench::kProcs, b.m.params().mp_eager_bytes);
  b.m.set_sink(&sink);
  std::optional<AppReport> traced;
  const double traced_wall = b.timed(&traced).first;
  b.m.set_sink(nullptr);

  // The same run under the repo's own metrics::Session, artifacts included.
  o2k::metrics::Options mo;
  std::filesystem::create_directories(tmp);
  mo.trace_path = tmp + "/trace.json";
  mo.report_path = tmp + "/report.json";
  mo.comm_path = tmp + "/comm.csv";
  double session_wall = 0.0;
  {
    o2k::metrics::Session session(b.m, hostbench::kProcs, mo);
    const double t0 = mono_s();
    if (auto r = b.attempt())
      session.finish(r->run, std::string(b.w.app), o2k::apps::model_name(b.w.model));
    session_wall = mono_s() - t0;
  }

  const auto counter = [&](const char* name) {
    return traced ? static_cast<double>(traced->run.counter(name)) : 0.0;
  };
  out.push_back({"rt.barriers", static_cast<double>(sink.barriers()), "count"});
  for (const char* c : {"mp.msgs", "shmem.puts", "shmem.atomics", "sas.read_misses",
                        "sas.remote_misses", "sas.write_misses", "sas.ownership_transfers",
                        "nbody.interactions", "dht.hops", "mesh.refined", "mesh.moved_elems"})
    out.push_back({c, counter(c), "count"});
  // SAS line batches and SHMEM puts pass the Sink too; only MP has an eager limit.
  out.push_back({"mp.large_msgs",
                 b.w.model == o2k::apps::Model::kMp ? static_cast<double>(sink.large_messages())
                                                    : 0.0,
                 "count"});
  out.push_back({"mp.bytes", counter("mp.bytes"), "B"});
  out.push_back({"shmem.bytes", counter("shmem.bytes"), "B"});
  for (std::string_view ph : hostbench::TraceSink::tracked_phases())
    out.push_back({"phase." + std::string(ph) + ".host_s", sink.phase_host_s(ph), "s"});

  const double msgs = counter("mp.msgs");
  const double misses = counter("sas.read_misses");
  out.push_back({"exec.host_par", hostbench::median(cpus) / wall_s, "ratio"});
  out.push_back({"mp.host_ns_per_msg", msgs > 0 ? 1e9 * wall_s / msgs : 0.0, "ns"});
  out.push_back({"sas.host_ns_per_miss",
                 misses > 0 ? 1e9 * sink.phase_host_s("force") / misses : 0.0, "ns"});
  out.push_back({"metrics.session_overhead", session_wall / wall_s, "ratio"});
  out.push_back({"trace.overhead", traced_wall / wall_s, "ratio"});
  std::cerr << "hostbench: probes\n";
  for (Metric& m : hostbench::run_probes(Size::kFull, b.seed)) out.push_back(std::move(m));

  o2k::metrics::JsonWriter j(std::cout);
  j.begin_object();
  write_common(j, b);
  j.key("metrics");
  j.begin_object();
  for (const Metric& m : out) {
    j.key(m.name);
    j.begin_object();
    j.kv("value", m.value);
    j.kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  std::cout << '\n';
  return 0;
}

int run(int argc, char** argv) {
  const o2k::Cli cli(argc, argv,
                     {{"mode", "timed | traced"},
                      {"workload", "nbody-sas | nbody-mp | dht-mp | mesh-shmem"},
                      {"seed", "workload seed (nbody and dht; mesh has no RNG)"},
                      {"seconds", "timed mode: seconds of timed runs after the warm-up"},
                      {"spawn-ns", "timed mode (required): parent's CLOCK_MONOTONIC ns at spawn"},
                      {"tmp", "traced mode: directory for the metrics::Session artifacts"}});
  if (const std::string var = hostbench::forbidden_env(); !var.empty()) {
    std::cerr << "hostbench: refusing to run with " << var
              << " set; the benchmark sets the scheduler itself (unset it)\n";
    return 2;
  }
  const std::string mode = cli.get("mode", "");
  const Workload* w = hostbench::find_workload(cli.get("workload", ""));
  if (w == nullptr || (mode != "timed" && mode != "traced") ||
      (mode == "timed" && !cli.has("spawn-ns"))) {
    std::cerr << "hostbench: need --mode=timed|traced, a known --workload and, when timed, "
                 "--spawn-ns\n"
              << cli.help();
    return 2;
  }
  if (hostbench::host_cores() < 4) {
    std::cerr << "hostbench: WARNING: this host has " << hostbench::host_cores()
              << " core(s); numbers from fewer than 4 cores are not comparable\n";
  }
  o2k::rt::Machine machine;
  hostbench::configure(machine, *w);
  const auto seed = static_cast<std::uint64_t>(
      cli.get_int("seed", static_cast<std::int64_t>(hostbench::kDefaultSeed)));
  Bound b{*w, machine, seed, Verifier(hostbench::reference_for(*w, seed, Size::kFull))};
  if (mode == "timed") {
    return run_timed(b, cli.get_double("seconds", 10.0),
                     1e-9 * static_cast<double>(cli.get_int("spawn-ns", 0)));
  }
  return run_traced(b, cli.get("tmp", "hostbench-tmp"));
}

}  // namespace

int main(int argc, char** argv) {
  // Hold the mmap threshold at glibc's starting value, 128 KiB.  Left
  // dynamic, it rises when a run frees its large arrays, and later runs'
  // callocs (the SHMEM symmetric heaps) come back as memset heap memory that
  // a one-run process never touches; the mesh app at box 12 then reaches
  // 1.8 GB RSS instead of 77 MB.  Setting it also turns the adjustment off
  // inside each run; README.md gives how far that sits from a default
  // process.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  try {
    return run(argc, argv);
  } catch (const o2k::CliError& e) {
    std::cerr << "hostbench: " << e.what() << '\n';
    return 2;
  }
}
