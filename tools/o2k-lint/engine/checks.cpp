// The four o2k invariant checks plus the cross-file fact harvest they run
// against.  Everything operates on SourceFile::masked (comments and string
// literals blanked), so a banned token in a doc comment never fires.
#include "lint.hpp"

#include <algorithm>
#include <array>
#include <cctype>

namespace o2k::lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

/// True when the word at `pos` is qualified by `qual` immediately before it
/// (e.g. qual == "std::" for std::thread).
bool qualified_by(const std::string& t, std::size_t pos, const std::string& qual) {
  return pos >= qual.size() && t.compare(pos - qual.size(), qual.size(), qual) == 0;
}

/// True when the identifier at `pos` is a member access (preceded by '.'
/// or '->').
bool is_member_access(const std::string& t, std::size_t pos) {
  if (pos == 0) return false;
  if (t[pos - 1] == '.') return true;
  return pos >= 2 && t[pos - 1] == '>' && t[pos - 2] == '-';
}

/// First non-whitespace char at/after pos, or '\0'.
char next_nonspace(const std::string& t, std::size_t pos) {
  pos = skip_ws(t, pos);
  return pos < t.size() ? t[pos] : '\0';
}

void add(std::vector<Finding>& out, const char* check, const SourceFile& f, std::size_t off,
         std::string msg) {
  out.push_back(Finding{check, f.path, f.line_of(off), f.col_of(off), std::move(msg)});
}

struct BannedToken {
  const char* word;
  const char* qual;   ///< required qualifier ("" = none required)
  bool call;          ///< must be followed by '('
  const char* msg;
};

void scan_banned(const SourceFile& f, const char* check, const BannedToken* toks, std::size_t n,
                 std::vector<Finding>& out) {
  const std::string& m = f.masked;
  for (std::size_t i = 0; i < n; ++i) {
    const BannedToken& b = toks[i];
    const std::string word = b.word;
    for (std::size_t p = 0; (p = find_word(m, word, p)) != std::string::npos; p += word.size()) {
      if (b.qual[0] != '\0' && !qualified_by(m, p, b.qual)) continue;
      if (b.qual[0] == '\0' && is_member_access(m, p)) continue;  // obj.select(...) etc.
      if (b.call && next_nonspace(m, p + word.size()) != '(') continue;
      add(out, check, f, p, b.msg);
    }
  }
}

/// Extract the last identifier of an expression like `obj.member`,
/// `ns::name`, `*name`, `name` (empty when the expression is a call or
/// anything more complex).
std::string trailing_ident(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && std::isspace(static_cast<unsigned char>(expr[end - 1])) != 0) --end;
  if (end == 0 || !ident_char(expr[end - 1])) return {};
  std::size_t beg = end;
  while (beg > 0 && ident_char(expr[beg - 1])) --beg;
  return expr.substr(beg, end - beg);
}

/// Identifier ending immediately before `pos` (skipping nothing), or "".
std::string ident_ending_at(const std::string& t, std::size_t pos) {
  std::size_t beg = pos;
  while (beg > 0 && ident_char(t[beg - 1])) --beg;
  if (beg == pos) return {};
  return t.substr(beg, pos - beg);
}

// ---- pass A: registry harvest --------------------------------------------

void harvest_unordered(const SourceFile& f, Registry& reg) {
  const std::string& m = f.masked;
  static constexpr std::array<const char*, 2> kTypes{"unordered_map", "unordered_set"};
  for (const char* ty : kTypes) {
    for (std::size_t p = 0; (p = find_word(m, ty, p)) != std::string::npos; p += 1) {
      // Alias definition?  `using NAME = ...unordered_xxx<...>...;`
      std::size_t stmt = m.find_last_of(";{}", p);
      stmt = (stmt == std::string::npos) ? 0 : stmt + 1;
      const std::size_t first = skip_ws(m, stmt);
      if (word_at(m, first, "using")) {
        const std::size_t np = skip_ws(m, first + 5);
        const std::string alias = ident_at(m, np);
        if (!alias.empty() && next_nonspace(m, np + alias.size()) == '=') {
          reg.unordered_aliases.insert(alias);
        }
        continue;
      }
      // Direct declaration: skip the template argument list, then read the
      // declared name.
      const std::size_t lt = skip_ws(m, p + std::string(ty).size());
      if (lt >= m.size() || m[lt] != '<') continue;
      std::size_t q = match_bracket(m, lt);
      if (q == std::string::npos) continue;
      q = skip_ws(m, q);
      while (q < m.size() && (m[q] == '&' || m[q] == '*')) q = skip_ws(m, q + 1);
      if (word_at(m, q, "const")) q = skip_ws(m, q + 5);
      const std::string name = ident_at(m, q);
      if (name.empty()) continue;
      const char after = next_nonspace(m, q + name.size());
      if (after == ';' || after == '=' || after == '{' || after == ',' || after == ')') {
        reg.unordered_vars.insert(name);
      }
    }
  }
}

void harvest_alias_vars(const SourceFile& f, Registry& reg) {
  const std::string& m = f.masked;
  for (const std::string& alias : reg.unordered_aliases) {
    for (std::size_t p = 0; (p = find_word(m, alias, p)) != std::string::npos;
         p += alias.size()) {
      std::size_t q = skip_ws(m, p + alias.size());
      if (q < m.size() && m[q] == '=') continue;  // the alias definition itself
      while (q < m.size() && (m[q] == '&' || m[q] == '*')) q = skip_ws(m, q + 1);
      const std::string name = ident_at(m, q);
      if (name.empty()) continue;
      const char after = next_nonspace(m, q + name.size());
      // `MarkSet foo(` is a function returning the alias type, not a var.
      if (after == ';' || after == '=' || after == '{' || after == ',' || after == ')') {
        reg.unordered_vars.insert(name);
      }
    }
  }
}

void harvest_fork_annotations(const SourceFile& f, Registry& reg) {
  const std::string& m = f.masked;
  static constexpr std::array<const char*, 2> kMacros{"O2K_FORK_SAFE", "O2K_FORK_UNSAFE"};
  for (const char* macro : kMacros) {
    for (std::size_t p = 0; (p = find_word(m, macro, p)) != std::string::npos;
         p += std::string(macro).size()) {
      const std::string raw_line = f.line_text(f.line_of(p));
      if (raw_line.find("#define") != std::string::npos) continue;
      // The annotated function is the first identifier followed by '('.
      std::size_t q = p + std::string(macro).size();
      while (q < m.size() && m[q] != ';' && m[q] != '{') {
        const std::string name =
            (ident_char(m[q]) && (q == 0 || !ident_char(m[q - 1]))) ? ident_at(m, q) : "";
        if (!name.empty()) {
          if (next_nonspace(m, q + name.size()) == '(') {
            (std::string(macro) == "O2K_FORK_SAFE" ? reg.fork_safe_fns : reg.fork_unsafe_fns)
                .insert(name);
            break;
          }
          q += name.size();
        } else {
          ++q;
        }
      }
    }
  }
}

}  // namespace

void harvest(const SourceFile& f, Registry& reg) {
  harvest_unordered(f, reg);
  harvest_fork_annotations(f, reg);
}

void harvest_alias_uses(const SourceFile& f, Registry& reg) { harvest_alias_vars(f, reg); }

// ---- o2k-nondeterminism ---------------------------------------------------

void check_nondeterminism(const SourceFile& f, const Registry& reg, std::vector<Finding>& out) {
  static constexpr const char* kCheck = "o2k-nondeterminism";
  static const BannedToken kBanned[] = {
      {"system_clock", "", false,
       "wall-clock time on a simulated path; virtual time must come from Pe::now()"},
      {"steady_clock", "", false,
       "wall-clock time on a simulated path; virtual time must come from Pe::now()"},
      {"high_resolution_clock", "", false,
       "wall-clock time on a simulated path; virtual time must come from Pe::now()"},
      {"random_device", "", false,
       "nondeterministic entropy source; use a seeded common::rng stream"},
      {"rand", "", true, "C PRNG with process-global hidden state; use a seeded common::rng"},
      {"srand", "", true, "C PRNG with process-global hidden state; use a seeded common::rng"},
      {"drand48", "", true, "C PRNG with process-global hidden state; use a seeded common::rng"},
      {"lrand48", "", true, "C PRNG with process-global hidden state; use a seeded common::rng"},
      {"gettimeofday", "", true, "wall-clock time on a simulated path"},
      {"clock_gettime", "", true, "wall-clock time on a simulated path"},
  };
  scan_banned(f, kCheck, kBanned, std::size(kBanned), out);

  const std::string& m = f.masked;

  // Pointer-keyed ordered containers: iteration order follows host
  // addresses, which differ run to run.
  for (const char* ty : {"map", "set"}) {
    for (std::size_t p = 0; (p = find_word(m, ty, p)) != std::string::npos; p += 3) {
      if (!qualified_by(m, p, "std::")) continue;
      const std::size_t lt = skip_ws(m, p + std::string(ty).size());
      if (lt >= m.size() || m[lt] != '<') continue;
      const std::size_t close = match_bracket(m, lt);
      if (close == std::string::npos) continue;
      // First template argument: up to the first top-level comma.
      int depth = 0;
      std::size_t arg_end = close - 1;
      for (std::size_t i = lt + 1; i < close - 1; ++i) {
        if (m[i] == '<' || m[i] == '(') ++depth;
        else if (m[i] == '>' || m[i] == ')') --depth;
        else if (m[i] == ',' && depth == 0) {
          arg_end = i;
          break;
        }
      }
      const std::string key = m.substr(lt + 1, arg_end - lt - 1);
      if (key.find('*') != std::string::npos) {
        add(out, kCheck, f, p,
            "pointer-keyed std::" + std::string(ty) +
                ": comparison order follows host addresses, which vary run to run");
      }
    }
  }

  // Iteration over unordered containers feeding an ordered consumer.
  for (std::size_t p = 0; (p = find_word(m, "for", p)) != std::string::npos; p += 3) {
    std::size_t q = skip_ws(m, p + 3);
    if (q >= m.size() || m[q] != '(') continue;
    const std::size_t close = match_bracket(m, q);
    if (close == std::string::npos) continue;
    // Range-for: exactly one top-level ':' that is not part of '::'.
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = q + 1; i < close - 1; ++i) {
      const char c = m[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ':' && depth == 0) {
        if (m[i + 1] == ':' || (i > 0 && m[i - 1] == ':')) continue;
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range = m.substr(colon + 1, close - 1 - colon - 1);
    const std::string name = trailing_ident(range);
    if (!name.empty() && reg.unordered_vars.count(name) != 0) {
      add(out, kCheck, f, colon + 1,
          "iteration over unordered container '" + name +
              "': visit order is hash/layout-dependent and must not feed simulated state");
    }
  }

  // Explicit begin() on a tracked unordered container (e.g. bulk-inserting
  // its elements into an order-sensitive consumer).
  for (std::size_t p = 0; (p = find_word(m, "begin", p)) != std::string::npos; p += 5) {
    if (!is_member_access(m, p)) continue;
    if (next_nonspace(m, p + 5) != '(') continue;
    const std::size_t dot = (m[p - 1] == '.') ? p - 1 : p - 2;
    const std::string recv = ident_ending_at(m, dot);
    if (!recv.empty() && reg.unordered_vars.count(recv) != 0) {
      add(out, kCheck, f, p,
          "explicit iteration over unordered container '" + recv +
              "': visit order is hash/layout-dependent and must not feed simulated state");
    }
  }
}

// ---- o2k-fiber-blocking ---------------------------------------------------

void check_fiber_blocking(const SourceFile& f, const Registry&, std::vector<Finding>& out) {
  static constexpr const char* kCheck = "o2k-fiber-blocking";
  static const BannedToken kBanned[] = {
      {"sleep_for", "", false, "host sleep blocks the whole fiber worker; park on Pe::park_until"},
      {"sleep_until", "", false,
       "host sleep blocks the whole fiber worker; park on Pe::park_until"},
      {"usleep", "", true, "host sleep blocks the whole fiber worker; park on Pe::park_until"},
      {"nanosleep", "", true, "host sleep blocks the whole fiber worker; park on Pe::park_until"},
      {"sleep", "", true, "host sleep blocks the whole fiber worker; park on Pe::park_until"},
      {"poll", "", true, "blocking syscall on a fiber-executed path stalls every PE on the worker"},
      {"select", "", true,
       "blocking syscall on a fiber-executed path stalls every PE on the worker"},
      {"epoll_wait", "", true,
       "blocking syscall on a fiber-executed path stalls every PE on the worker"},
      {"system", "", true,
       "blocking syscall on a fiber-executed path stalls every PE on the worker"},
      {"getchar", "", true,
       "blocking syscall on a fiber-executed path stalls every PE on the worker"},
      {"fgets", "", true,
       "blocking syscall on a fiber-executed path stalls every PE on the worker"},
      {"cin", "std::", false,
       "blocking stream read on a fiber-executed path stalls every PE on the worker"},
      {"condition_variable", "std::", false,
       "a host condvar wait blocks every PE on the worker; park on Pe::park_until"},
  };
  scan_banned(f, kCheck, kBanned, std::size(kBanned), out);

  const std::string& m = f.masked;

  // thread_local: fibers migrate across host workers between parks, so
  // thread-locals silently alias the wrong PE.
  for (std::size_t p = 0; (p = find_word(m, "thread_local", p)) != std::string::npos; p += 12) {
    add(out, kCheck, f, p,
        "thread_local on a fiber-executed path: fibers migrate between host workers, so "
        "thread-locals alias across PEs");
  }

  // Lock guards live across Pe::park_until or Pe::hand_off: the fiber
  // switches out while holding a host mutex, deadlocking every other fiber
  // that needs it.
  struct Guard {
    std::string name;
    int depth;
    bool locked;
    std::size_t decl;
  };
  std::vector<Guard> guards;
  int depth = 0;
  static constexpr std::array<const char*, 4> kGuardTypes{"lock_guard", "unique_lock",
                                                          "scoped_lock", "shared_lock"};
  for (std::size_t i = 0; i < m.size(); ++i) {
    const char c = m[i];
    if (c == '{') {
      ++depth;
      continue;
    }
    if (c == '}') {
      --depth;
      while (!guards.empty() && guards.back().depth > depth) guards.pop_back();
      continue;
    }
    if (!ident_char(c) || (i > 0 && ident_char(m[i - 1]))) continue;
    const std::string id = ident_at(m, i);
    if (id.empty()) continue;  // number literal, not an identifier
    bool guard_type = false;
    for (const char* g : kGuardTypes) guard_type = guard_type || id == g;
    if (guard_type && !is_member_access(m, i)) {
      // `std::unique_lock<std::mutex> lk(mu);` / `std::scoped_lock lk(mu);`
      std::size_t q = i + id.size();
      q = skip_ws(m, q);
      if (q < m.size() && m[q] == '<') {
        const std::size_t e = match_bracket(m, q);
        if (e != std::string::npos) q = skip_ws(m, e);
      }
      const std::string var = ident_at(m, q);
      if (!var.empty()) {
        const char after = next_nonspace(m, q + var.size());
        if (after == '(' || after == '{') guards.push_back({var, depth, true, i});
      }
    } else if (id == "unlock" && is_member_access(m, i)) {
      const std::size_t dot = (m[i - 1] == '.') ? i - 1 : i - 2;
      const std::string recv = ident_ending_at(m, dot);
      for (Guard& g : guards) {
        if (g.name == recv) g.locked = false;
      }
    } else if (id == "park_until" || id == "hand_off") {
      for (const Guard& g : guards) {
        if (!g.locked) continue;
        add(out, kCheck, f, i,
            "Pe::" + id + " reached while lock guard '" + g.name + "' (declared at line " +
                std::to_string(f.line_of(g.decl)) +
                ") is held: a fiber that switches out holding a host mutex deadlocks its "
                "worker");
      }
    }
    i += id.size() - 1;
  }
}

// ---- o2k-fork-unsafe ------------------------------------------------------

namespace {

void scan_fork_region(const SourceFile& f, std::size_t b0, std::size_t b1,
                      const Registry& reg, std::vector<Finding>& out) {
  static constexpr const char* kCheck = "o2k-fork-unsafe";
  const std::string& m = f.masked;

  // Threads never survive fork: the child inherits one thread and any mutex
  // another thread held stays locked forever.
  static const BannedToken kThreads[] = {
      {"thread", "std::", false, "thread created in a checkpoint/fork region: forked children "
                                 "inherit only the forking thread"},
      {"jthread", "std::", false, "thread created in a checkpoint/fork region: forked children "
                                  "inherit only the forking thread"},
      {"async", "std::", false, "thread created in a checkpoint/fork region: forked children "
                                "inherit only the forking thread"},
      {"pthread_create", "", true, "thread created in a checkpoint/fork region: forked children "
                                   "inherit only the forking thread"},
  };
  for (const BannedToken& b : kThreads) {
    const std::string word = b.word;
    for (std::size_t p = b0; (p = find_word(m, word, p)) != std::string::npos && p < b1;
         p += word.size()) {
      if (b.qual[0] != '\0' && !qualified_by(m, p, b.qual)) continue;
      if (b.call && next_nonspace(m, p + word.size()) != '(') continue;
      add(out, kCheck, f, p, b.msg);
    }
  }

  // First fork() in the region, if any.
  std::size_t fork_at = std::string::npos;
  for (std::size_t p = b0; (p = find_word(m, "fork", p)) != std::string::npos && p < b1;
       p += 4) {
    if (next_nonspace(m, p + 4) != '(') continue;
    fork_at = p;
    break;
  }

  if (fork_at != std::string::npos) {
    // Buffered writes before the fork must be flushed, or the child
    // duplicates the parent's pending output.
    static constexpr std::array<const char*, 9> kBuffered{
        "printf", "fprintf", "fputs", "puts", "fwrite", "cout", "cerr", "clog", "ofstream"};
    for (const char* w : kBuffered) {
      const std::string word = w;
      for (std::size_t p = b0; (p = find_word(m, word, p)) != std::string::npos && p < fork_at;
           p += word.size()) {
        const std::size_t flush = find_word(m, "fflush", p);
        if (flush != std::string::npos && flush < fork_at) continue;
        add(out, kCheck, f, p,
            "buffered write before fork() with no fflush between them: the child duplicates "
            "the parent's pending output");
      }
    }
    // Children must _exit: running atexit handlers / flushing shared
    // streams in the child corrupts the parent's state.
    for (std::size_t p = fork_at; (p = find_word(m, "exit", p)) != std::string::npos && p < b1;
         p += 4) {
      if (next_nonspace(m, p + 4) != '(') continue;
      add(out, kCheck, f, p,
          "exit() after fork(): forked children must _exit() to skip atexit handlers and "
          "shared stream flushes");
    }
  }

  // Calls to functions the registry marks fork-unsafe.
  for (const std::string& fn : reg.fork_unsafe_fns) {
    for (std::size_t p = b0; (p = find_word(m, fn, p)) != std::string::npos && p < b1;
         p += fn.size()) {
      if (next_nonspace(m, p + fn.size()) != '(') continue;
      add(out, kCheck, f, p,
          "'" + fn + "' is annotated O2K_FORK_UNSAFE and must not be reachable from a "
                     "checkpoint/fork region");
    }
  }
}

}  // namespace

void check_fork_unsafe(const SourceFile& f, const Registry& reg, std::vector<Finding>& out) {
  static constexpr const char* kCheck = "o2k-fork-unsafe";
  const std::string& m = f.masked;

  // Regions: lambda bodies passed to Machine::arm_checkpoint.
  for (std::size_t p = 0; (p = find_word(m, "arm_checkpoint", p)) != std::string::npos;
       p += 14) {
    std::size_t q = skip_ws(m, p + 14);
    if (q >= m.size() || m[q] != '(') continue;
    const std::size_t call_end = match_bracket(m, q);
    if (call_end == std::string::npos) continue;
    const std::size_t intro = m.find('[', q);
    if (intro == std::string::npos || intro >= call_end) continue;  // decl/definition, no lambda
    const std::size_t intro_end = match_bracket(m, intro);
    if (intro_end == std::string::npos) continue;
    const std::size_t body = m.find('{', intro_end);
    if (body == std::string::npos || body >= call_end) continue;
    const std::size_t body_end = match_bracket(m, body);
    if (body_end == std::string::npos) continue;
    scan_fork_region(f, body, body_end, reg, out);
  }

  // Functions annotated O2K_FORK_SAFE must themselves keep the promise: no
  // thread creation, no calls to O2K_FORK_UNSAFE functions.
  for (std::size_t p = 0; (p = find_word(m, "O2K_FORK_SAFE", p)) != std::string::npos;
       p += 13) {
    const std::string raw_line = f.line_text(f.line_of(p));
    if (raw_line.find("#define") != std::string::npos) continue;
    // Find the parameter list, then a following '{' (definitions only).
    std::size_t q = p + 13;
    std::size_t paren = std::string::npos;
    while (q < m.size() && m[q] != ';' && m[q] != '{') {
      if (m[q] == '(') {
        paren = q;
        break;
      }
      ++q;
    }
    if (paren == std::string::npos) continue;
    const std::size_t paren_end = match_bracket(m, paren);
    if (paren_end == std::string::npos) continue;
    std::size_t b = skip_ws(m, paren_end);
    if (word_at(m, b, "const")) b = skip_ws(m, b + 5);
    if (word_at(m, b, "noexcept")) b = skip_ws(m, b + 8);
    if (b >= m.size() || m[b] != '{') continue;
    const std::size_t b_end = match_bracket(m, b);
    if (b_end == std::string::npos) continue;
    for (const char* w : {"thread", "jthread", "async"}) {
      const std::string word = w;
      for (std::size_t t = b; (t = find_word(m, word, t)) != std::string::npos && t < b_end;
           t += word.size()) {
        if (!qualified_by(m, t, "std::")) continue;
        add(out, kCheck, f, t,
            "function annotated O2K_FORK_SAFE creates a thread; the annotation is a lie");
      }
    }
    for (const std::string& fn : reg.fork_unsafe_fns) {
      for (std::size_t t = b; (t = find_word(m, fn, t)) != std::string::npos && t < b_end;
           t += fn.size()) {
        if (next_nonspace(m, t + fn.size()) != '(') continue;
        add(out, kCheck, f, t,
            "function annotated O2K_FORK_SAFE calls O2K_FORK_UNSAFE '" + fn + "'");
      }
    }
  }
}

// ---- o2k-sas-touch --------------------------------------------------------

void check_sas_touch(const SourceFile& f, const Registry&, std::vector<Finding>& out) {
  static constexpr const char* kCheck = "o2k-sas-touch";
  const std::string& m = f.masked;

  // Arrays this file annotates: any touch_*( ... A ... ) mention.
  std::set<std::string> touched;
  for (std::size_t p = 0; (p = m.find("touch_", p)) != std::string::npos; p += 6) {
    if (p > 0 && ident_char(m[p - 1])) continue;
    const std::string fn = ident_at(m, p);
    std::size_t q = skip_ws(m, p + fn.size());
    if (q >= m.size() || m[q] != '(') continue;
    const std::size_t end = match_bracket(m, q);
    if (end == std::string::npos) continue;
    for (std::size_t i = q + 1; i < end; ++i) {
      if (ident_char(m[i]) && !ident_char(m[i - 1])) {
        const std::string id = ident_at(m, i);
        touched.insert(id);
        i += id.size();
      }
    }
  }

  // Every World::data/span site must name an array this file touches.
  for (const char* acc : {"data", "span"}) {
    const std::string word = acc;
    for (std::size_t p = 0; (p = find_word(m, word, p)) != std::string::npos; p += word.size()) {
      if (!is_member_access(m, p)) continue;
      std::size_t q = skip_ws(m, p + word.size());
      if (q >= m.size() || m[q] != '(') continue;
      const std::size_t end = match_bracket(m, q);
      if (end == std::string::npos) continue;
      const std::size_t ap = skip_ws(m, q + 1);
      const std::string arr = ident_at(m, ap);
      if (arr.empty()) continue;  // vec.data() and friends
      // Only sas handles: require the argument to look like a SharedArray —
      // i.e. the receiver is not a std container (heuristic: any .data(x)/
      // .span(x) with an identifier argument is a sas accessor in this
      // codebase).
      if (touched.count(arr) != 0) continue;
      add(out, kCheck, f, p,
          "raw access to sas allocation '" + arr +
              "' with no touch_read/touch_write/touch_*_fields annotation anywhere in this "
              "file: the access is invisible to the race detector and charges no coherence "
              "premium");
    }
  }
}

}  // namespace o2k::lint
