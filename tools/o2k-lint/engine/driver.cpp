// o2k-lint driver: file collection (paths or compile_commands.json), scope
// table, NOLINT + baseline suppression, diagnostics, exit code.
//
//   o2k-lint [paths...] [--compdb=FILE] [--check=NAME]... [--repo-root=DIR]
//            [--baseline=FILE] [--write-baseline=FILE]
//            [--forbid-baseline=PREFIX]...
//
// Exit codes: 0 clean, 1 unsuppressed findings, 2 usage / I-O error.
#include "lint.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

namespace fs = std::filesystem;
using namespace o2k::lint;

namespace {

struct Options {
  std::vector<std::string> paths;
  std::string compdb;
  std::set<std::string> checks;  ///< empty = all
  std::string repo_root;
  std::string baseline;
  std::string write_baseline;
  std::vector<std::string> forbid_prefixes;
};

/// Scope table: which checks run over which part of src/.  Files outside
/// src/ (test fixtures) get every enabled check.
const std::vector<std::string>& scope_prefixes(const std::string& check) {
  static const std::vector<std::string> kSimPaths{
      "src/rt/",   "src/mp/",   "src/shmem/", "src/sas/", "src/nbody/",
      "src/mesh/", "src/dht/",  "src/apps/",  "src/plum/"};
  static const std::vector<std::string> kForkPaths{"src/campaign/", "src/apps/", "src/rt/"};
  static const std::vector<std::string> kTouchPaths{"src/apps/", "src/nbody/", "src/mesh/",
                                                    "src/dht/"};
  if (check == "o2k-fork-unsafe") return kForkPaths;
  if (check == "o2k-sas-touch") return kTouchPaths;
  return kSimPaths;  // o2k-nondeterminism, o2k-fiber-blocking
}

bool in_scope(const std::string& rel, const std::string& check) {
  if (rel.rfind("src/", 0) != 0) return true;  // fixtures & tests: everything applies
  for (const std::string& p : scope_prefixes(check)) {
    if (rel.rfind(p, 0) == 0) return true;
  }
  return false;
}

bool source_ext(const fs::path& p) {
  const std::string e = p.extension().string();
  return e == ".hpp" || e == ".cpp" || e == ".h" || e == ".cc" || e == ".hh" || e == ".ipp";
}

/// Collapse whitespace runs to single spaces and trim — the baseline keys on
/// line *content* so entries survive unrelated reformatting above them.
std::string squash(const std::string& s) {
  std::string out;
  bool in_ws = true;
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\r') {
      if (!in_ws) out += ' ';
      in_ws = true;
    } else {
      out += c;
      in_ws = false;
    }
  }
  while (!out.empty() && out.back() == ' ') out.pop_back();
  return out;
}

/// Minimal extraction of "file" values from compile_commands.json — enough
/// for CMake's writer, no JSON library needed.
std::vector<std::string> compdb_files(const std::string& path, std::string& err) {
  std::ifstream in(path);
  if (!in) {
    err = "cannot open compdb " + path;
    return {};
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string t = ss.str();
  std::vector<std::string> out;
  for (std::size_t p = 0; (p = t.find("\"file\"", p)) != std::string::npos; p += 6) {
    std::size_t q = t.find('"', p + 6 + 1);  // opening quote of the value
    if (q == std::string::npos) break;
    std::string val;
    for (++q; q < t.size() && t[q] != '"'; ++q) {
      if (t[q] == '\\' && q + 1 < t.size()) ++q;
      val += t[q];
    }
    out.push_back(val);
  }
  return out;
}

std::string rel_to_root(const fs::path& file, const fs::path& root) {
  std::error_code ec;
  const fs::path canon = fs::weakly_canonical(file, ec);
  const fs::path canon_root = fs::weakly_canonical(root, ec);
  const std::string f = (ec ? file : canon).generic_string();
  const std::string r = (ec ? root : canon_root).generic_string();
  if (!r.empty() && f.rfind(r + "/", 0) == 0) return f.substr(r.size() + 1);
  return file.generic_string();
}

int usage(std::ostream& os, int code) {
  os << "usage: o2k-lint [paths...] [--compdb=FILE] [--check=NAME]...\n"
        "                [--repo-root=DIR] [--baseline=FILE] [--write-baseline=FILE]\n"
        "                [--forbid-baseline=PREFIX]... [--list-checks]\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto val = [&](const char* flag) -> std::string { return a.substr(std::string(flag).size()); };
    if (a == "-h" || a == "--help") return usage(std::cout, 0);
    if (a == "--list-checks") {
      for (const char* c : kAllChecks) std::cout << c << "\n";
      return 0;
    }
    if (a.rfind("--compdb=", 0) == 0) opt.compdb = val("--compdb=");
    else if (a.rfind("--check=", 0) == 0) opt.checks.insert(val("--check="));
    else if (a.rfind("--repo-root=", 0) == 0) opt.repo_root = val("--repo-root=");
    else if (a.rfind("--baseline=", 0) == 0) opt.baseline = val("--baseline=");
    else if (a.rfind("--write-baseline=", 0) == 0) opt.write_baseline = val("--write-baseline=");
    else if (a.rfind("--forbid-baseline=", 0) == 0)
      opt.forbid_prefixes.push_back(val("--forbid-baseline="));
    else if (!a.empty() && a[0] == '-') {
      std::cerr << "o2k-lint: unknown option '" << a << "'\n";
      return usage(std::cerr, 2);
    } else {
      opt.paths.push_back(a);
    }
  }
  for (const std::string& c : opt.checks) {
    const bool known = std::any_of(std::begin(kAllChecks), std::end(kAllChecks),
                                   [&](const char* k) { return c == k; });
    if (!known) {
      std::cerr << "o2k-lint: unknown check '" << c << "' (see --list-checks)\n";
      return 2;
    }
  }
  const auto enabled = [&](const std::string& c) {
    return opt.checks.empty() || opt.checks.count(c) != 0;
  };

  const fs::path root = opt.repo_root.empty() ? fs::current_path() : fs::path(opt.repo_root);

  // ---- collect files ------------------------------------------------------
  std::vector<std::string> files;  // filesystem paths
  std::string err;
  for (const std::string& p : opt.paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (const auto& e : fs::recursive_directory_iterator(p, ec)) {
        if (e.is_regular_file() && source_ext(e.path())) files.push_back(e.path().string());
      }
    } else if (fs::is_regular_file(p, ec)) {
      files.push_back(p);
    } else {
      std::cerr << "o2k-lint: no such file or directory: " << p << "\n";
      return 2;
    }
  }
  if (!opt.compdb.empty()) {
    // Only the simulator's own translation units: bench and test TUs may
    // read wall clocks, and the harvest would register their container
    // names as if src/ declared them.
    for (const std::string& f : compdb_files(opt.compdb, err)) {
      std::error_code ec;
      if (fs::is_regular_file(f, ec) && source_ext(f) && rel_to_root(f, root).rfind("src/", 0) == 0)
        files.push_back(f);
    }
    if (!err.empty()) {
      std::cerr << "o2k-lint: " << err << "\n";
      return 2;
    }
    // Translation units only name .cpp files; headers carry most of the
    // declarations the checks care about, so sweep src/ headers in too.
    const fs::path src = root / "src";
    std::error_code ec;
    if (fs::is_directory(src, ec)) {
      for (const auto& e : fs::recursive_directory_iterator(src, ec)) {
        if (e.is_regular_file() && source_ext(e.path()) &&
            e.path().extension() != ".cpp") {
          files.push_back(e.path().string());
        }
      }
    }
  }
  if (files.empty() && opt.baseline.empty()) {
    std::cerr << "o2k-lint: no input files (pass paths or --compdb=...)\n";
    return usage(std::cerr, 2);
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  // ---- load + lex ---------------------------------------------------------
  std::vector<SourceFile> sources;
  sources.reserve(files.size());
  std::map<std::string, const SourceFile*> by_rel;
  for (const std::string& f : files) {
    SourceFile sf;
    if (!load_source(f, rel_to_root(f, root), sf, err)) {
      std::cerr << "o2k-lint: " << err << "\n";
      return 2;
    }
    sources.push_back(std::move(sf));
  }
  // De-dup by relpath (a file can be reachable via two argument paths).
  {
    std::set<std::string> seen_rel;
    std::vector<SourceFile> uniq;
    for (auto& s : sources) {
      if (seen_rel.insert(s.path).second) uniq.push_back(std::move(s));
    }
    sources = std::move(uniq);
  }
  for (const SourceFile& s : sources) by_rel[s.path] = &s;

  // ---- pass A: registry (second round resolves alias-typed vars across
  // files regardless of visit order) ---------------------------------------
  Registry reg;
  for (const SourceFile& s : sources) harvest(s, reg);
  for (const SourceFile& s : sources) harvest_alias_uses(s, reg);

  // ---- pass B: checks -----------------------------------------------------
  std::vector<Finding> findings;
  for (const SourceFile& s : sources) {
    if (enabled("o2k-nondeterminism") && in_scope(s.path, "o2k-nondeterminism"))
      check_nondeterminism(s, reg, findings);
    if (enabled("o2k-fiber-blocking") && in_scope(s.path, "o2k-fiber-blocking"))
      check_fiber_blocking(s, reg, findings);
    if (enabled("o2k-fork-unsafe") && in_scope(s.path, "o2k-fork-unsafe"))
      check_fork_unsafe(s, reg, findings);
    if (enabled("o2k-sas-touch") && in_scope(s.path, "o2k-sas-touch"))
      check_sas_touch(s, reg, findings);
  }

  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    return std::tie(a.file, a.line, a.col, a.check) < std::tie(b.file, b.line, b.col, b.check);
  });

  // ---- suppression: NOLINT, then baseline ---------------------------------
  std::size_t n_nolint = 0;
  std::vector<Finding> active;
  for (Finding& fd : findings) {
    const auto it = by_rel.find(fd.file);
    if (it != by_rel.end() && it->second->suppressed(fd.line, fd.check)) {
      ++n_nolint;
      continue;
    }
    active.push_back(std::move(fd));
  }

  std::set<std::string> baseline_entries;
  if (!opt.baseline.empty()) {
    std::ifstream in(opt.baseline);
    if (!in) {
      std::cerr << "o2k-lint: cannot open baseline " << opt.baseline << "\n";
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      baseline_entries.insert(line);
      // --forbid-baseline=PREFIX: the named subtrees must stay baseline-free.
      const std::size_t bar1 = line.find('|');
      const std::size_t bar2 = (bar1 == std::string::npos) ? bar1 : line.find('|', bar1 + 1);
      if (bar2 == std::string::npos) continue;
      const std::string file = line.substr(bar1 + 1, bar2 - bar1 - 1);
      for (const std::string& pre : opt.forbid_prefixes) {
        if (file.rfind(pre, 0) == 0) {
          std::cerr << "o2k-lint: baseline entry for '" << file << "' violates --forbid-baseline="
                    << pre << " (this subtree must be finding-free, not baselined)\n";
          return 2;
        }
      }
    }
  }
  const auto baseline_key = [&](const Finding& fd) {
    const auto it = by_rel.find(fd.file);
    const std::string text = (it != by_rel.end()) ? it->second->line_text(fd.line) : "";
    return fd.check + "|" + fd.file + "|" + squash(text);
  };

  std::size_t n_baselined = 0;
  std::vector<Finding> reported;
  for (Finding& fd : active) {
    if (!baseline_entries.empty() && baseline_entries.count(baseline_key(fd)) != 0) {
      ++n_baselined;
      continue;
    }
    reported.push_back(std::move(fd));
  }

  if (!opt.write_baseline.empty()) {
    std::ofstream out(opt.write_baseline);
    if (!out) {
      std::cerr << "o2k-lint: cannot write baseline " << opt.write_baseline << "\n";
      return 2;
    }
    out << "# o2k-lint baseline: check|file|squashed-line-text (one accepted finding per line)\n";
    std::set<std::string> lines;
    for (const Finding& fd : reported) lines.insert(baseline_key(fd));
    for (const std::string& l : lines) out << l << "\n";
    std::cout << "o2k-lint: wrote " << lines.size() << " baseline entr"
              << (lines.size() == 1 ? "y" : "ies") << " to " << opt.write_baseline << "\n";
    return 0;
  }

  // ---- report -------------------------------------------------------------
  for (const Finding& fd : reported) {
    std::cout << fd.file << ":" << fd.line << ":" << fd.col << ": warning: " << fd.msg << " ["
              << fd.check << "]\n";
  }
  std::cout << "o2k-lint: " << sources.size() << " files, " << reported.size()
            << " finding" << (reported.size() == 1 ? "" : "s") << " (" << n_nolint
            << " suppressed by NOLINT, " << n_baselined << " matched baseline)\n";
  return reported.empty() ? 0 : 1;
}
