// o2k-lint — project-specific static invariant checks for the o2k codebase.
//
// The simulator's correctness story rests on invariants the compiler cannot
// see: bit-exact virtual times across schedules and worker counts, fiber
// paths with no blocking syscalls, fork-safe checkpoint stems, and SAS
// accesses visible to the race detector.  This engine enforces them at
// lint time, over source text, with no dependency beyond the C++20
// standard library — so the gate runs on any build host (DESIGN.md §12).
//
// Checks:
//   o2k-nondeterminism  wall clocks, rand/random_device, pointer-keyed
//                       ordered containers, and iteration over unordered
//                       containers on simulated paths
//   o2k-fiber-blocking  blocking syscalls, host condvars, thread_local, and
//                       locks held across Pe::park_until on fiber-executed
//                       paths
//   o2k-fork-unsafe     thread creation, unflushed buffered writes before
//                       fork, exit-after-fork, and calls to O2K_FORK_UNSAFE
//                       functions inside Machine::arm_checkpoint callbacks
//   o2k-sas-touch       raw access through sas World::data/span pointers
//                       with no touch_* annotation for the same array
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace o2k::lint {

inline constexpr const char* kAllChecks[] = {
    "o2k-nondeterminism", "o2k-fiber-blocking", "o2k-fork-unsafe", "o2k-sas-touch"};

struct Finding {
  std::string check;
  std::string file;  ///< repo-relative path
  int line = 0;      ///< 1-based
  int col = 1;       ///< 1-based
  std::string msg;
};

/// One lexed source file.  `masked` mirrors `text` byte-for-byte with the
/// contents of comments, string literals and char literals replaced by
/// spaces (newlines preserved), so offsets and line numbers agree between
/// the two and token scans never trip over quoted or commented text.
struct SourceFile {
  std::string path;            ///< repo-relative, '/'-separated
  std::string text;            ///< raw bytes
  std::string masked;          ///< comment/string-stripped view
  std::vector<std::size_t> line_off;  ///< byte offset of each line start

  /// Per-line NOLINT suppressions harvested from comments: line number ->
  /// suppressed check names ("*" = every check).  NOLINTNEXTLINE entries
  /// are recorded against the following line.
  std::map<int, std::set<std::string>> nolint;

  [[nodiscard]] int line_of(std::size_t off) const;
  [[nodiscard]] int col_of(std::size_t off) const;
  [[nodiscard]] std::string line_text(int line) const;
  [[nodiscard]] bool suppressed(int line, const std::string& check) const;
};

/// Load + lex a file.  Returns false (and sets `err`) on I/O failure.
bool load_source(const std::string& fs_path, const std::string& rel_path,
                 SourceFile& out, std::string& err);

/// Cross-file facts gathered before any check runs (pass A).
struct Registry {
  /// Names (variables, fields, parameters) declared with an unordered
  /// associative container type, plus aliases of such types.
  std::set<std::string> unordered_vars;
  std::set<std::string> unordered_aliases;

  /// Functions annotated with the fork-safety macros (common/lint.hpp).
  std::set<std::string> fork_safe_fns;
  std::set<std::string> fork_unsafe_fns;
};

/// Pass A: harvest registry facts from one file.  Call over every file,
/// then call harvest_alias_uses over every file again — variables declared
/// with an unordered-container alias can only be resolved once all aliases
/// are known, regardless of file visit order.
void harvest(const SourceFile& f, Registry& reg);
void harvest_alias_uses(const SourceFile& f, Registry& reg);

/// Pass B: run one check over one file (scope filtering is the driver's
/// job).  Findings are appended; NOLINT filtering happens in the driver so
/// suppressed findings can still be counted.
void check_nondeterminism(const SourceFile& f, const Registry& reg, std::vector<Finding>& out);
void check_fiber_blocking(const SourceFile& f, const Registry& reg, std::vector<Finding>& out);
void check_fork_unsafe(const SourceFile& f, const Registry& reg, std::vector<Finding>& out);
void check_sas_touch(const SourceFile& f, const Registry& reg, std::vector<Finding>& out);

// ---- token helpers shared by the checks (see source.cpp) -----------------

/// True when text[pos..pos+word) equals `word` with identifier boundaries
/// on both sides.
bool word_at(const std::string& text, std::size_t pos, const std::string& word);

/// Offset of the next whole-word occurrence of `word` at/after `from`, or
/// npos.  Skips occurrences qualified so they cannot be the identifier
/// itself (preceded by an identifier character).
std::size_t find_word(const std::string& text, const std::string& word, std::size_t from = 0);

/// Skip whitespace (including newlines) forward from `pos`.
std::size_t skip_ws(const std::string& text, std::size_t pos);

/// Identifier starting at pos ([A-Za-z_][A-Za-z0-9_]*), or empty.
std::string ident_at(const std::string& text, std::size_t pos);

/// Offset just past the matching close for the bracket at `open_pos`
/// (supports (), {}, <> — the angle variant also balances nested () and
/// treats >> as two closes), or npos when unbalanced.
std::size_t match_bracket(const std::string& text, std::size_t open_pos);

}  // namespace o2k::lint
