// Tests for the campaign subsystem: snapshot write/verify round trips across
// worker counts, corruption/divergence detection, spec parsing, grid
// expansion (warm grouping), and the hardened O2K_EXEC_* env parsing.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "apps/dht_app.hpp"
#include "apps/mesh_app.hpp"
#include "apps/nbody_app.hpp"
#include "campaign/campaign.hpp"
#include "campaign/snapshot.hpp"
#include "exec/engine.hpp"
#include "mp/comm.hpp"
#include "rt/machine.hpp"
#include "rt/state_capture.hpp"
#include "sas/sas.hpp"

namespace o2k {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& stem) {
  return (fs::temp_directory_path() / ("o2k_test_" + stem)).string();
}

// One small run per app, sized so a round trip stays well under a second.
// `scale` perturbs the workload so a verify replay can be made to diverge.
void run_small(const std::string& app, apps::Model model, rt::Machine& m, int p,
               int scale = 0) {
  if (app == "nbody") {
    apps::NbodyConfig cfg;
    cfg.n = 192 + static_cast<std::size_t>(scale);
    cfg.steps = 2;
    apps::run_nbody(model, m, p, cfg);
  } else if (app == "mesh") {
    apps::MeshConfig cfg;
    cfg.nx = cfg.ny = cfg.nz = 4 + scale;
    cfg.phases = 2;
    apps::run_mesh(model, m, p, cfg);
  } else {
    apps::DhtConfig cfg;
    cfg.requests = 2000 + static_cast<std::uint64_t>(scale);
    cfg.churn_every = 1000;
    apps::run_dht(model, m, p, cfg);
  }
}

const char* marker_for(const std::string& app) {
  if (app == "nbody") return "step";
  if (app == "mesh") return "phase";
  return "setup";
}

// Write a snapshot at the app's marker on `write_workers` synchronization
// domains, then verify it by replay on `verify_workers`.  Passing proves
// (a) the rendezvous capture is deterministic and (b) snapshots are
// portable across worker counts.
void round_trip(const std::string& app, apps::Model model, int write_workers,
                int verify_workers) {
  const int p = 4;  // two nodes, so two workers pin two domains
  const std::string slug = apps::model_slug(model);
  const std::string path = temp_path("snap_" + app + "_" + slug + ".snap");
  campaign::SnapshotMeta meta;
  meta.app = app;
  meta.model = slug;
  meta.nprocs = p;
  meta.label = marker_for(app);
  meta.occurrence = 1;

  rt::Machine m;
  m.set_workers(write_workers);
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
    run_small(app, model, m, p);
    cp.finish();
  }
  m.set_workers(verify_workers);
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kVerify, path, meta);
    run_small(app, model, m, p);
    EXPECT_NO_THROW(cp.finish()) << app << "/" << slug << " replay diverged";
  }
  fs::remove(path);
}

TEST(Snapshot, RoundTripNbodySasAcrossWorkers) {
  round_trip("nbody", apps::Model::kSas, 1, 2);
  round_trip("nbody", apps::Model::kSas, 2, 1);
}

TEST(Snapshot, RoundTripMeshMpAcrossWorkers) {
  round_trip("mesh", apps::Model::kMp, 1, 2);
  round_trip("mesh", apps::Model::kMp, 2, 1);
}

TEST(Snapshot, RoundTripDhtShmemAcrossWorkers) {
  round_trip("dht", apps::Model::kShmem, 1, 2);
  round_trip("dht", apps::Model::kShmem, 2, 1);
}

// Files written before the thread-per-PE backend was removed may record
// `backend threads`; the line is still required but its value is ignored,
// so such a snapshot still restores.
TEST(Snapshot, RestoresFileRecordingThreadsBackend) {
  const std::string path = temp_path("snap_threads_line.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "step";

  rt::Machine m;
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2);
    cp.finish();
  }
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const std::size_t at = text.find("\nbackend fibers\n");
  ASSERT_NE(at, std::string::npos) << text.substr(0, 200);
  text.replace(at, std::string("\nbackend fibers\n").size(), "\nbackend threads\n");
  std::ofstream(path) << text;
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kVerify, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2);
    EXPECT_NO_THROW(cp.finish());
  }
  fs::remove(path);
}

TEST(Snapshot, TamperedFileRejected) {
  const std::string path = temp_path("snap_tamper.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "step";

  rt::Machine m;
  campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
  run_small("nbody", apps::Model::kSas, m, 2);
  cp.finish();

  // Flip one byte in the middle of the state block; the trailing digest
  // must catch it at load time.
  std::string text;
  {
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  }
  const std::size_t mid = text.size() / 2;
  text[mid] = text[mid] == 'a' ? 'b' : 'a';
  std::ofstream(path) << text;
  EXPECT_THROW((void)campaign::load_snapshot(path), campaign::SnapshotError);

  std::ofstream(path) << text.substr(0, mid);  // truncation
  EXPECT_THROW((void)campaign::load_snapshot(path), campaign::SnapshotError);
  fs::remove(path);
  EXPECT_THROW((void)campaign::load_snapshot(path), campaign::SnapshotError);
}

TEST(Snapshot, VerifyDetectsDivergentReplay) {
  const std::string path = temp_path("snap_diverge.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "step";

  rt::Machine m;
  {
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2, /*scale=*/0);
    cp.finish();
  }
  {
    // Same app/model/P (meta matches) but a different workload: the replay
    // reaches the marker in a different state and must be rejected.
    campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kVerify, path, meta);
    run_small("nbody", apps::Model::kSas, m, 2, /*scale=*/64);
    EXPECT_THROW(cp.finish(), campaign::SnapshotMismatch);
  }
  fs::remove(path);
}

TEST(Snapshot, WriteFailsIfMarkerNeverFires) {
  const std::string path = temp_path("snap_nofire.snap");
  campaign::SnapshotMeta meta;
  meta.app = "nbody";
  meta.model = "sas";
  meta.nprocs = 2;
  meta.label = "no-such-marker";

  rt::Machine m;
  campaign::ScopedCheckpoint cp(m, campaign::ScopedCheckpoint::Mode::kWrite, path, meta);
  run_small("nbody", apps::Model::kSas, m, 2);
  EXPECT_THROW(cp.finish(), campaign::SnapshotError);
  EXPECT_FALSE(fs::exists(path));
}

// ---- pinned model-world digests ------------------------------------------
//
// A snapshot restores only if the replay captures the same state lines, so
// the model worlds' digests must not change when their host-side storage
// does.  These constants were recorded before the MP mailboxes and the
// CC-SAS directory changed representation; snapshot files written then must
// keep restoring.

/// Arm `m` to capture the machine state at the first Pe::checkpoint("pin").
void arm_pin_capture(rt::Machine& m, std::vector<std::string>& lines) {
  m.arm_checkpoint("pin", 1, [&lines](rt::Machine& mm, rt::Pe&) {
    rt::StateSink sink;
    campaign::capture_state(mm, sink);
    lines = sink.lines();
  });
}

/// Value of the captured line "<key> u64 <value>".
std::uint64_t captured_u64(const std::vector<std::string>& lines, const std::string& key) {
  const std::string head = key + " u64 ";
  for (const std::string& line : lines) {
    if (line.rfind(head, 0) == 0) return std::stoull(line.substr(head.size()));
  }
  ADD_FAILURE() << "no captured line for " << key;
  return 0;
}

// Rank 0 leaves three isends for rank 1 that rank 1 receives only after the
// marker; its receive of a later message before the marker has already
// drained them into its matching queue.  Rank 2's two isends to rank 3 are
// still in flight, untouched by any receive.
TEST(SnapshotDigests, QueuedMpMessagesKeepTheirDigests) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    rt::Machine m;
    m.set_workers(workers);
    mp::World w(m.params(), 4);
    std::vector<std::string> lines;
    arm_pin_capture(m, lines);
    m.run(4, [&w](rt::Pe& pe) {
      mp::Comm comm(w, pe);
      const int me = pe.rank();
      if (me == 0 || me == 2) {
        pe.advance(100.0 * (me + 1));
        for (int i = 0; i < (me == 0 ? 3 : 2); ++i) {
          const std::vector<double> v(static_cast<std::size_t>(4 + i), 0.5 * (i + me));
          (void)comm.isend(std::span<const double>(v), me + 1, 10 + i);
        }
      }
      if (me == 0) comm.send_value<int>(7, 1, /*tag=*/9);
      if (me == 1) EXPECT_EQ(comm.recv_value<int>(0, 9), 7);
      pe.checkpoint("pin");
      if (me == 1 || me == 3) {
        for (int i = 0; i < (me == 1 ? 3 : 2); ++i) (void)comm.recv_vec<double>(me - 1, 10 + i);
      }
    });
    ASSERT_TRUE(m.checkpoint_fired());
    EXPECT_EQ(captured_u64(lines, "mp.box.0.depth"), 0u);
    EXPECT_EQ(captured_u64(lines, "mp.box.1.depth"), 3u);
    EXPECT_EQ(captured_u64(lines, "mp.box.1.digest"), 11753509308645055807ULL);
    EXPECT_EQ(captured_u64(lines, "mp.box.3.depth"), 2u);
    EXPECT_EQ(captured_u64(lines, "mp.box.3.digest"), 8634379261962564847ULL);
  }
}

// One CC-SAS epoch: first-touch homes split two pages between ranks 0 and
// 2, every rank writes line 0 (several writers), and each rank then reads
// its neighbour's block.
TEST(SnapshotDigests, CommittedSasDirectoryKeepsItsDigests) {
  for (const int workers : {1, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    rt::Machine m;
    m.set_workers(workers);
    sas::World w(m.params(), 4, std::size_t{1} << 20);
    const auto a = w.alloc<double>(4096, "pinned");
    std::vector<std::string> lines;
    arm_pin_capture(m, lines);
    m.run(4, [&w, &a](rt::Pe& pe) {
      sas::Team team(w, pe);
      const auto me = static_cast<std::size_t>(pe.rank());
      team.touch_write_range(a, me * 1024, 1024);
      team.write(a, me, 1.0 + static_cast<double>(me));
      team.barrier();
      team.touch_read_range(a, ((me + 1) % 4) * 1024, 1024);
      team.barrier();
      pe.checkpoint("pin");
    });
    ASSERT_TRUE(m.checkpoint_fired());
    EXPECT_EQ(captured_u64(lines, "sas.page_home.digest"), 15569614537455996815ULL);
    EXPECT_EQ(captured_u64(lines, "sas.line_ver.digest"), 16759083403017480998ULL);
    EXPECT_EQ(captured_u64(lines, "sas.line_writer.digest"), 16728696928523340480ULL);
  }
}

// ---- spec parsing and expansion ----------------------------------------

std::string write_spec(const std::string& stem, const std::string& body) {
  const std::string path = temp_path(stem + ".spec");
  std::ofstream(path) << body;
  return path;
}

TEST(CampaignSpec, ParsesFullGrammar) {
  const std::string path = write_spec("spec_ok",
                                      "# comment\n"
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models mp,sas\n"
                                      "p 2,4\n"
                                      "warm 1\n"
                                      "verify 1\n"
                                      "jobs 3\n"
                                      "set n = 256\n"
                                      "sweep steps = 1,2\n");
  const campaign::Spec spec = campaign::parse_spec(path);
  EXPECT_EQ(spec.app, "nbody");
  EXPECT_EQ(spec.models, (std::vector<std::string>{"mp", "sas"}));
  EXPECT_EQ(spec.procs, (std::vector<int>{2, 4}));
  EXPECT_TRUE(spec.warm);
  EXPECT_TRUE(spec.verify);
  EXPECT_EQ(spec.jobs, 3);
  EXPECT_EQ(spec.fixed.at("n"), "256");
  ASSERT_EQ(spec.sweeps.size(), 1u);
  EXPECT_EQ(spec.sweeps[0].first, "steps");
  fs::remove(path);

  // The exec key went away with the thread-per-PE backend: a spec that
  // still names it is rejected at its line.
  const std::string exec_path = write_spec("spec_exec",
                                           "schema o2k.campaign.v1\n"
                                           "app nbody\n"
                                           "models mp\n"
                                           "exec fibers\n");
  try {
    (void)campaign::parse_spec(exec_path);
    ADD_FAILURE() << "a spec with an exec line parsed";
  } catch (const campaign::SpecError& e) {
    EXPECT_NE(std::string(e.what()).find(exec_path + ":4: unknown directive 'exec'"),
              std::string::npos)
        << e.what();
  }
  fs::remove(exec_path);
}

TEST(CampaignSpec, RejectsMissingSchemaAndBadDirectives) {
  const std::string no_schema = write_spec("spec_noschema", "app nbody\n");
  EXPECT_THROW((void)campaign::parse_spec(no_schema), campaign::SpecError);
  fs::remove(no_schema);

  const std::string bad_dir =
      write_spec("spec_baddir", "schema o2k.campaign.v1\napp nbody\nfrobnicate 1\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_dir), campaign::SpecError);
  fs::remove(bad_dir);

  const std::string bad_p =
      write_spec("spec_badp", "schema o2k.campaign.v1\napp nbody\np 1,x\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_p), campaign::SpecError);
  fs::remove(bad_p);

  EXPECT_THROW((void)campaign::parse_spec(temp_path("no_such.spec")), campaign::SpecError);
}

TEST(CampaignSpec, RejectsUnknownAndIllTypedParams) {
  // Parameter names and value types are validated against the app schema
  // at parse time, before anything runs.
  const std::string bad_key = write_spec("spec_badkey",
                                         "schema o2k.campaign.v1\n"
                                         "app nbody\n"
                                         "models sas\n"
                                         "p 2\n"
                                         "set bogus = 1\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_key), campaign::SpecError);
  fs::remove(bad_key);

  const std::string bad_val = write_spec("spec_badval",
                                         "schema o2k.campaign.v1\n"
                                         "app nbody\n"
                                         "models sas\n"
                                         "p 2\n"
                                         "set steps = lots\n");
  EXPECT_THROW((void)campaign::parse_spec(bad_val), campaign::SpecError);
  fs::remove(bad_val);
}

TEST(CampaignSpec, WarmGroupsBranchableSweeps) {
  const std::string path = write_spec("spec_warm",
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models sas\n"
                                      "p 2\n"
                                      "sweep steps = 1,2,3\n");
  const campaign::Spec spec = campaign::parse_spec(path);

  const auto warm = campaign::expand(spec, /*allow_warm=*/true);
  ASSERT_EQ(warm.size(), 1u);
  EXPECT_TRUE(warm[0].warm);
  EXPECT_EQ(warm[0].units.size(), 3u);
  EXPECT_EQ(warm[0].cp_label, "step");
  for (const auto& u : warm[0].units) EXPECT_EQ(u.overlay.count("nbody.steps"), 1u);

  // Warm forking off (--no-warm): same grid, all cold singleton groups.
  const auto cold = campaign::expand(spec, /*allow_warm=*/false);
  EXPECT_EQ(cold.size(), 3u);
  for (const auto& g : cold) {
    EXPECT_FALSE(g.warm);
    EXPECT_EQ(g.units.size(), 1u);
  }
  fs::remove(path);
}

TEST(CampaignSpec, WorkersAxisExpandsColdOnly) {
  const std::string path = write_spec("spec_workers",
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models sas\n"
                                      "p 8\n"
                                      "workers 1,4\n"
                                      "sweep steps = 1,2\n");
  const campaign::Spec spec = campaign::parse_spec(path);
  EXPECT_EQ(spec.workers, (std::vector<int>{1, 4}));

  // workers=1 points warm-group as before; workers=4 points always run
  // cold (the pinned engine's pool threads make the rendezvous unsafe to
  // fork) and carry a .w4 label segment.
  const auto groups = campaign::expand(spec, /*allow_warm=*/true);
  int warm_groups = 0, w4_cold = 0;
  for (const auto& g : groups) {
    if (g.warm) {
      ++warm_groups;
      EXPECT_EQ(g.workers, 1);
    }
    if (g.workers == 4) {
      ++w4_cold;
      EXPECT_FALSE(g.warm);
      EXPECT_NE(g.group_label.find(".w4"), std::string::npos) << g.group_label;
    }
  }
  EXPECT_EQ(warm_groups, 1);
  EXPECT_EQ(w4_cold, 2);  // one cold group per swept branch value
  fs::remove(path);

  // More domains than PEs is a spec error, caught before anything runs.
  const std::string bad = write_spec("spec_workers_bad",
                                     "schema o2k.campaign.v1\n"
                                     "app nbody\n"
                                     "models sas\n"
                                     "p 2\n"
                                     "workers 4\n");
  EXPECT_THROW((void)campaign::expand(campaign::parse_spec(bad), true), campaign::SpecError);
  fs::remove(bad);
}

TEST(CampaignSpec, VerifyAddsColdControls) {
  const std::string path = write_spec("spec_verify",
                                      "schema o2k.campaign.v1\n"
                                      "app nbody\n"
                                      "models sas\n"
                                      "p 2\n"
                                      "verify 1\n"
                                      "sweep steps = 1,2\n");
  const campaign::Spec spec = campaign::parse_spec(path);
  const auto groups = campaign::expand(spec, /*allow_warm=*/true);
  int warm_groups = 0, controls = 0;
  for (const auto& g : groups) {
    warm_groups += g.warm;
    controls += g.control;
  }
  EXPECT_EQ(warm_groups, 1);
  EXPECT_EQ(controls, 2);  // one cold control per warm unit
  fs::remove(path);
}

// ---- hardened O2K_EXEC_* resolution -------------------------------------

TEST(ExecEnv, StackBytesFallsBackOnJunk) {
  ::setenv("O2K_EXEC_STACK_KB", "64MB", 1);
  EXPECT_EQ(exec::resolved_stack_bytes(), std::size_t{1024} * 1024);
  ::setenv("O2K_EXEC_STACK_KB", "0", 1);  // below the 16 KiB floor
  EXPECT_EQ(exec::resolved_stack_bytes(), std::size_t{1024} * 1024);
  ::setenv("O2K_EXEC_STACK_KB", "256", 1);
  EXPECT_EQ(exec::resolved_stack_bytes(), std::size_t{256} * 1024);
  ::unsetenv("O2K_EXEC_STACK_KB");
}

TEST(ExecEnv, WorkersFallBackOnJunk) {
  ::setenv("O2K_EXEC_WORKERS", "not-a-number", 1);
  const int fallback = exec::resolved_workers(4);
  EXPECT_GE(fallback, 1);
  EXPECT_LE(fallback, 4);
  ::setenv("O2K_EXEC_WORKERS", "2", 1);
  EXPECT_EQ(exec::resolved_workers(4), 2);
  EXPECT_EQ(exec::resolved_workers(1), 1);  // clamped to nprocs
  ::unsetenv("O2K_EXEC_WORKERS");
}

}  // namespace
}  // namespace o2k
