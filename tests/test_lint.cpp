// Harness for tools/o2k-lint: drives the real binary over the fixture
// snippets (one positive and one negative per check), the suppression and
// baseline machinery, and finally over src/ itself — the same gate CI
// enforces (DESIGN.md §12).
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;  ///< stdout + stderr
};

LintResult run_lint(const std::string& args) {
  const std::string cmd = std::string(O2K_LINT_BIN) + " " + args + " 2>&1";
  LintResult r;
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (p == nullptr) return r;
  std::array<char, 4096> buf{};
  std::size_t n = 0;
  while ((n = std::fread(buf.data(), 1, buf.size(), p)) > 0) r.output.append(buf.data(), n);
  const int status = ::pclose(p);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return r;
}

std::string fixture(const std::string& name) {
  return std::string(O2K_LINT_FIXTURE_DIR) + "/" + name;
}

std::size_t count_occurrences(const std::string& hay, const std::string& needle) {
  std::size_t count = 0;
  for (std::size_t p = 0; (p = hay.find(needle, p)) != std::string::npos; p += needle.size()) {
    ++count;
  }
  return count;
}

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

// ---- per-check fixtures: positive must fire, negative must stay quiet ----

TEST(LintNondeterminism, PositiveFixtureFires) {
  const auto r = run_lint("--check=o2k-nondeterminism " + fixture("nondet_pos.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_occurrences(r.output, "[o2k-nondeterminism]"), 7u) << r.output;
  EXPECT_NE(r.output.find("wall-clock"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("pointer-keyed std::map"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unordered container 'pending'"), std::string::npos) << r.output;
}

TEST(LintNondeterminism, NegativeFixtureQuiet) {
  const auto r = run_lint("--check=o2k-nondeterminism " + fixture("nondet_neg.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 findings"), std::string::npos) << r.output;
  // The fixture's one deliberate iteration is NOLINT-suppressed, not missed.
  EXPECT_NE(r.output.find("1 suppressed by NOLINT"), std::string::npos) << r.output;
}

TEST(LintFiberBlocking, PositiveFixtureFires) {
  const auto r = run_lint("--check=o2k-fiber-blocking " + fixture("fiber_pos.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_occurrences(r.output, "[o2k-fiber-blocking]"), 6u) << r.output;
  EXPECT_NE(r.output.find("thread_local"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("a host condvar wait blocks every PE on the worker"),
            std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("Pe::park_until reached while lock guard 'lk'"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("Pe::hand_off reached while lock guard 'lk'"), std::string::npos)
      << r.output;
}

TEST(LintFiberBlocking, NegativeFixtureQuiet) {
  const auto r = run_lint("--check=o2k-fiber-blocking " + fixture("fiber_neg.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 findings"), std::string::npos) << r.output;
}

TEST(LintForkUnsafe, PositiveFixtureFires) {
  const auto r = run_lint("--check=o2k-fork-unsafe " + fixture("fork_pos.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_occurrences(r.output, "[o2k-fork-unsafe]"), 4u) << r.output;
  EXPECT_NE(r.output.find("forked children inherit only the forking thread"), std::string::npos)
      << r.output;
  EXPECT_NE(r.output.find("buffered write before fork()"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("must _exit()"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("'spawn_helper_pool' is annotated O2K_FORK_UNSAFE"),
            std::string::npos)
      << r.output;
}

TEST(LintForkUnsafe, NegativeFixtureQuiet) {
  const auto r = run_lint("--check=o2k-fork-unsafe " + fixture("fork_neg.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 findings"), std::string::npos) << r.output;
}

TEST(LintSasTouch, PositiveFixtureFires) {
  const auto r = run_lint("--check=o2k-sas-touch " + fixture("sas_pos.cpp"));
  EXPECT_EQ(r.exit_code, 1) << r.output;
  EXPECT_GE(count_occurrences(r.output, "[o2k-sas-touch]"), 1u) << r.output;
  EXPECT_NE(r.output.find("raw access to sas allocation 'counters'"), std::string::npos)
      << r.output;
}

TEST(LintSasTouch, NegativeFixtureQuiet) {
  const auto r = run_lint("--check=o2k-sas-touch " + fixture("sas_neg.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 findings"), std::string::npos) << r.output;
}

// ---- suppression machinery ------------------------------------------------

TEST(LintBaseline, RoundTripSilencesAndReplays) {
  const std::string bl = temp_path("o2k_lint_baseline_roundtrip.txt");
  const auto w = run_lint("--check=o2k-nondeterminism --write-baseline=" + bl + " " +
                          fixture("nondet_pos.cpp"));
  ASSERT_EQ(w.exit_code, 0) << w.output;
  EXPECT_NE(w.output.find("wrote"), std::string::npos) << w.output;

  const auto r = run_lint("--check=o2k-nondeterminism --baseline=" + bl + " " +
                          fixture("nondet_pos.cpp"));
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("0 findings"), std::string::npos) << r.output;
  EXPECT_EQ(r.output.find("0 matched baseline"), std::string::npos)
      << "expected a non-zero matched-baseline count: " << r.output;
  std::remove(bl.c_str());
}

TEST(LintBaseline, ForbiddenPrefixRejectsEntries) {
  const std::string bl = temp_path("o2k_lint_baseline_forbid.txt");
  {
    std::ofstream out(bl);
    out << "o2k-nondeterminism|src/rt/machine.cpp|auto t = steady_clock::now();\n";
  }
  const auto r = run_lint("--baseline=" + bl + " --forbid-baseline=src/rt/");
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("violates --forbid-baseline=src/rt/"), std::string::npos) << r.output;
  std::remove(bl.c_str());
}

// ---- CLI ------------------------------------------------------------------

TEST(LintCli, ListChecksNamesAllFive) {
  const auto r = run_lint("--list-checks");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  for (const char* c :
       {"o2k-nondeterminism", "o2k-fiber-blocking", "o2k-fork-unsafe", "o2k-sas-touch"}) {
    EXPECT_NE(r.output.find(c), std::string::npos) << r.output;
  }
  EXPECT_EQ(count_occurrences(r.output, "\n"), 4u) << r.output;
}

TEST(LintCli, UnknownCheckIsUsageError) {
  const auto r = run_lint("--check=o2k-nonesuch " + fixture("nondet_neg.cpp"));
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

TEST(LintCli, MissingInputIsUsageError) {
  const auto r = run_lint("/nonexistent/path/nowhere.cpp");
  EXPECT_EQ(r.exit_code, 2) << r.output;
}

// ---- the real gate --------------------------------------------------------

// The whole point: src/ is clean under every check, with the committed
// baseline (which is empty) and the rt/exec no-baseline guarantee — the
// exact invocation CI runs.
TEST(LintGate, SrcIsCleanUnderCommittedBaseline) {
  const std::string root(O2K_LINT_REPO_ROOT);
  const auto r = run_lint("--repo-root=" + root + " --baseline=" + root +
                          "/tools/o2k-lint/baseline.txt --forbid-baseline=src/rt/"
                          " --forbid-baseline=src/exec/ " +
                          root + "/src");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(" 0 findings"), std::string::npos) << r.output;
}

// CI feeds the engine compile_commands.json, which also names bench and test
// TUs.  Those are out of scope: the bench TU reads wall clocks on purpose,
// and the test TU's unordered container 'a' must not be harvested into the
// src/ checks (it used to flag an unrelated 'a' in src/mesh/dualgraph.cpp).
TEST(LintGate, CompdbKeepsOnlySrcTranslationUnits) {
  const std::string root(O2K_LINT_REPO_ROOT);
  const std::string db = temp_path("o2k_lint_compdb.json");
  {
    std::ofstream out(db);
    const std::array<const char*, 3> tus{"bench/bench_micro_runtime.cpp", "tests/test_nbody.cpp",
                                         "src/mesh/dualgraph.cpp"};
    out << "[\n";
    for (std::size_t i = 0; i < tus.size(); ++i) {
      out << "  {\"directory\": \"" << root << "\", \"command\": \"c++ -c " << tus[i]
          << "\", \"file\": \"" << root << "/" << tus[i] << "\"}"
          << (i + 1 < tus.size() ? ",\n" : "\n");
    }
    out << "]\n";
  }
  const auto r = run_lint("--repo-root=" + root + " --compdb=" + db + " --baseline=" + root +
                          "/tools/o2k-lint/baseline.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find(" 0 findings"), std::string::npos) << r.output;
  std::remove(db.c_str());
}

}  // namespace
