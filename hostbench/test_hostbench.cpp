// Tests of the benchmark itself: every workload and probe at tiny size, the
// TraceSink's transparency, failure accounting, and the environment check.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "probes.hpp"
#include "trace_sink.hpp"
#include "workloads.hpp"

namespace hostbench {
namespace {

using o2k::apps::AppReport;

AppReport with_makespan(double ns) {
  AppReport r;
  r.run.makespan_ns = ns;
  return r;
}

std::string ok(const AppReport&) { return {}; }

TEST(Workloads, TinySmokeRunsVerifyAndRepeat) {
  ASSERT_EQ(workloads().size(), 4u);
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    o2k::rt::Machine m;
    configure(m, w);
    Verifier v;
    for (int i = 0; i < 2; ++i) {
      v.attempt([&] { return w.run(m, 7, Size::kTiny); },
                [&](const AppReport& r) { return w.check(r, Size::kTiny); });
    }
    EXPECT_EQ(v.attempted(), 2u);
    EXPECT_EQ(v.failed(), 0u) << (v.errors().empty() ? "" : v.errors().front());
    EXPECT_GT(v.makespan().value_or(0.0), 0.0);
    EXPECT_EQ(find_workload(w.name), &w);
  }
  EXPECT_EQ(find_workload("nbody-shmem"), nullptr);
}

TEST(Workloads, SeedReachesSeededAppsOnly) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    o2k::rt::Machine m;
    configure(m, w);
    const double a = w.run(m, 1, Size::kTiny).run.makespan_ns;
    const double b = w.run(m, 2, Size::kTiny).run.makespan_ns;
    if (w.seeded) {
      EXPECT_NE(a, b);
    } else {
      EXPECT_EQ(a, b);
    }
  }
}

TEST(Workloads, ReferenceAppliesAtTheDefaultSeedOnly) {
  const Workload& nbody = *find_workload("nbody-sas");
  const Workload& mesh = *find_workload("mesh-shmem");
  EXPECT_EQ(reference_for(nbody, kDefaultSeed, Size::kFull), nbody.reference_ns);
  EXPECT_FALSE(reference_for(nbody, 1, Size::kFull).has_value());
  EXPECT_FALSE(reference_for(nbody, kDefaultSeed, Size::kTiny).has_value());
  EXPECT_EQ(reference_for(mesh, 1, Size::kFull), mesh.reference_ns);
}

TEST(TraceSink, OnlyObserves) {
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(std::string(w.name));
    o2k::rt::Machine m;
    configure(m, w);
    const double plain = w.run(m, 3, Size::kTiny).run.makespan_ns;
    TraceSink sink(kProcs, m.params().mp_eager_bytes);
    m.set_sink(&sink);
    const AppReport traced = w.run(m, 3, Size::kTiny);
    m.set_sink(nullptr);
    EXPECT_EQ(traced.run.makespan_ns, plain);
    double phase_s = 0.0;
    for (std::string_view ph : TraceSink::tracked_phases()) phase_s += sink.phase_host_s(ph);
    EXPECT_GT(phase_s, 0.0);
    if (w.model == o2k::apps::Model::kMp) {
      EXPECT_GT(traced.run.counter("mp.msgs"), 0u);
    } else {
      EXPECT_GT(sink.barriers(), 0u);
    }
  }
}

TEST(TraceSink, CountsCanonicalMessagesOverTheEagerLimit) {
  TraceSink sink(2, 100);
  sink.on_message(0, 0, 1, 100, 0.0, true);   // at the limit: eager
  sink.on_message(0, 0, 1, 101, 0.0, true);   // over it
  sink.on_message(1, 0, 1, 101, 0.0, false);  // the receiver's view of the same transfer
  sink.on_message(1, 1, 0, 4096, 0.0, true);
  EXPECT_EQ(sink.large_messages(), 2u);
}

TEST(TraceSink, PhaseTimeIsTheUnionOverPes) {
  TraceSink sink(2, 16384);
  sink.on_phase_begin(0, "force", 0.0);
  sink.on_phase_begin(1, "force", 0.0);
  sink.on_phase_begin(1, "untracked", 0.0);
  sink.on_phase_end(1, "untracked", 0.0);
  sink.on_phase_end(1, "force", 0.0);
  sink.on_phase_end(0, "force", 0.0);
  const double force = sink.phase_host_s("force");
  EXPECT_GT(force, 0.0);
  EXPECT_LT(force, 1.0);
  EXPECT_EQ(sink.phase_host_s("tree"), 0.0);
}

TEST(Verifier, ExceptionCountsAsFailure) {
  Verifier v;
  v.attempt([]() -> AppReport { throw std::invalid_argument("boom"); }, ok);
  v.attempt([] { return with_makespan(5.0); }, ok);
  EXPECT_EQ(v.attempted(), 2u);
  EXPECT_EQ(v.failed(), 1u);
  ASSERT_EQ(v.errors().size(), 1u);
  EXPECT_NE(v.errors().front().find("boom"), std::string::npos);
}

TEST(Verifier, MakespanMismatchCountsAsFailure) {
  Verifier v;
  for (double ns : {10.0, 10.0, 11.0, 10.0}) v.attempt([&] { return with_makespan(ns); }, ok);
  EXPECT_EQ(v.attempted(), 4u);
  EXPECT_EQ(v.failed(), 1u);
  EXPECT_EQ(v.makespan(), 10.0);
}

TEST(Verifier, ReferenceAndCheckFailuresCount) {
  Verifier v(42.0);
  v.attempt([] { return with_makespan(41.0); }, ok);
  v.attempt([] { return with_makespan(42.0); }, [](const AppReport&) { return "bad check"; });
  v.attempt([] { return with_makespan(42.0); }, ok);
  EXPECT_EQ(v.failed(), 2u);
  EXPECT_EQ(v.attempted(), 3u);
}

TEST(Probes, EveryProbeReportsAFinitePositiveValue) {
  const std::vector<Metric> ms = run_probes(Size::kTiny, kDefaultSeed);
  std::set<std::string> names;
  for (const Metric& m : ms) {
    SCOPED_TRACE(m.name);
    EXPECT_TRUE(std::isfinite(m.value));
    EXPECT_GT(m.value, 0.0);
    EXPECT_FALSE(m.unit.empty());
    EXPECT_TRUE(names.insert(m.name).second);
  }
  for (const char* n : {"exec.run_us", "exec.handoff_ns", "exec.handoff_local_ns",
                        "exec.handoff_cross_ns", "rt.run_ms", "rt.barrier_us", "mp.eager_ns",
                        "mp.rndv_us", "mp.alltoallv_us", "mp.allreduce_us", "shmem.put_ns",
                        "shmem.put_bulk_us", "shmem.atomic_ns", "shmem.barrier_all_us",
                        "sas.read_line_ns", "sas.write_line_ns", "sas.commit_us", "sas.lock_ns",
                        "nbody.serial_s", "mesh.serial_s", "plum.rib_ms", "dht.next_hop_ns"})
    EXPECT_EQ(names.count(n), 1u) << n;
}

TEST(Environment, SchedulerVariablesAreRefused) {
  ASSERT_EQ(forbidden_env(), "");
  ::setenv("O2K_MIGRATE", "1", 1);
  EXPECT_EQ(forbidden_env(), "O2K_MIGRATE");
  ::unsetenv("O2K_MIGRATE");
  EXPECT_EQ(forbidden_env(), "");
}

}  // namespace
}  // namespace hostbench
