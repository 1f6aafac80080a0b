#include "simdlint/rules.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstddef>
#include <set>

#include "simdlint/include_graph.hpp"

namespace simdlint {

namespace {

using Tokens = std::vector<Token>;

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

bool tok_is(const Tokens& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

/// Backward scan from the ')' at `close` to its matching '('; -1 if none.
std::ptrdiff_t match_paren_back(const Tokens& t, std::ptrdiff_t close) {
  int depth = 0;
  for (std::ptrdiff_t k = close; k >= 0; --k) {
    if (t[static_cast<std::size_t>(k)].text == ")") {
      ++depth;
    } else if (t[static_cast<std::size_t>(k)].text == "(") {
      if (--depth == 0) return k;
    }
  }
  return -1;
}

/// Forward scan from the opener at `open` to its matching closer; returns
/// t.size() if unbalanced.
std::size_t match_forward(const Tokens& t, std::size_t open, const char* o,
                          const char* c) {
  int depth = 0;
  for (std::size_t k = open; k < t.size(); ++k) {
    if (t[k].text == o) {
      ++depth;
    } else if (t[k].text == c) {
      if (--depth == 0) return k;
    }
  }
  return t.size();
}

/// True when the identifier at `i` is used as a free or std::-qualified call:
/// `foo(...)`, `std::foo(...)` — but not `obj.foo(...)`, `ns::foo(...)`, or a
/// declaration like `MachineClock clock(...)`.
bool banned_call_at(const Tokens& t, std::size_t i) {
  if (i + 1 >= t.size() || t[i + 1].text != "(") return false;
  if (i == 0) return true;
  const Token& p = t[i - 1];
  if (p.text == "::") {
    return i >= 2 && t[i - 2].text == "std";
  }
  if (p.text == "." || p.text == "->") return false;
  if (p.ident || p.text == "*" || p.text == "&" || p.text == ">") return false;
  return true;
}

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

Finding make_finding(const Rule& rule, const SourceFile& f, std::size_t line,
                     std::string message) {
  Finding out;
  out.rule = rule.id();
  out.path = f.path;
  out.line = line;
  out.message = std::move(message);
  out.excerpt = f.line_text(line);
  return out;
}

// ---------------------------------------------------------------------------
// Scope analysis
//
// A single forward walk over the token stream classifying every '{' by what
// opened it.  This drives three questions rules ask: "is this token inside a
// function body?", "is it inside a for/while loop?", and "is it at
// file/namespace scope?".  The classification is a heuristic over tokens,
// not a parse — good enough for linting, and every rule has the
// SIMDLINT-ALLOW escape hatch for the residue.
// ---------------------------------------------------------------------------

struct Region {
  std::size_t begin = 0;  // token indices, inclusive
  std::size_t end = 0;
};

struct ScopeInfo {
  std::vector<Region> functions;  // outermost function bodies
  std::vector<Region> func_sigs;  // signature tokens for functions[i]
  std::vector<Region> loops;      // for/while bodies, braced or not
  std::vector<bool> ns_scope;     // per token: at file/namespace/type scope
};

bool in_any_region(const std::vector<Region>& rs, std::size_t idx) {
  return std::any_of(rs.begin(), rs.end(), [idx](const Region& r) {
    return idx >= r.begin && idx <= r.end;
  });
}

enum class ScopeKind { kNamespace, kType, kFunction, kLoop, kBlock, kOther };

ScopeKind classify_open_brace(const Tokens& t, std::size_t i) {
  if (i == 0) return ScopeKind::kOther;
  const std::string& prev = t[i - 1].text;
  if (prev == "do" || prev == "else" || prev == "try") return ScopeKind::kBlock;

  // `namespace a::b {` / anonymous `namespace {`.
  {
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
    while (k >= 0 && (t[static_cast<std::size_t>(k)].ident ||
                      t[static_cast<std::size_t>(k)].text == "::")) {
      if (t[static_cast<std::size_t>(k)].text == "namespace") {
        return ScopeKind::kNamespace;
      }
      --k;
    }
  }

  // Function-ish: `...) {`, possibly with trailing decorations or a trailing
  // return type between the ')' and the '{'.
  std::ptrdiff_t close = -1;
  if (prev == ")") {
    close = static_cast<std::ptrdiff_t>(i) - 1;
  } else {
    static const std::set<std::string> kDecoration = {
        "const", "noexcept", "override", "final",    "mutable",
        "&",     "*",        "::",       "->",       ",",
        "<",     ">",        "throw",    "requires",
    };
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
    int budget = 50;
    while (k >= 0 && budget-- > 0) {
      const Token& tk = t[static_cast<std::size_t>(k)];
      if (tk.text == ")") {
        close = k;
        break;
      }
      if (!(tk.ident || kDecoration.count(tk.text) > 0 ||
            std::isdigit(static_cast<unsigned char>(tk.text[0])) != 0)) {
        break;
      }
      --k;
    }
  }
  if (close >= 0) {
    const std::ptrdiff_t open = match_paren_back(t, close);
    if (open > 0) {
      const std::string& kw = t[static_cast<std::size_t>(open) - 1].text;
      if (kw == "for" || kw == "while") return ScopeKind::kLoop;
      if (kw == "if" || kw == "switch" || kw == "catch") {
        return ScopeKind::kBlock;
      }
      return ScopeKind::kFunction;  // incl. lambdas: '](...)' and ctors
    }
    if (open == 0) return ScopeKind::kFunction;
  }

  // `struct X : A, B {`, `enum class E : std::uint8_t {`.
  {
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
    int budget = 100;
    while (k >= 0 && budget-- > 0) {
      const std::string& s = t[static_cast<std::size_t>(k)].text;
      if (s == ";" || s == "{" || s == "}" || s == ")" || s == "=") break;
      if (s == "struct" || s == "class" || s == "union" || s == "enum") {
        return ScopeKind::kType;
      }
      --k;
    }
  }
  return ScopeKind::kOther;
}

ScopeInfo analyze_scopes(const Tokens& t) {
  ScopeInfo info;
  info.ns_scope.assign(t.size(), true);
  std::vector<ScopeKind> stack;
  std::size_t func_depth_mark = 0;  // stack size when outermost fn was pushed
  bool in_function = false;
  std::size_t func_begin = 0;
  Region func_sig;

  auto inside_code = [&stack] {
    return std::any_of(stack.begin(), stack.end(), [](ScopeKind k) {
      return k == ScopeKind::kFunction || k == ScopeKind::kLoop ||
             k == ScopeKind::kBlock;
    });
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    info.ns_scope[i] = !inside_code();
    if (t[i].text == "{") {
      const ScopeKind kind = classify_open_brace(t, i);
      if (kind == ScopeKind::kLoop) {
        const std::size_t end = match_forward(t, i, "{", "}");
        info.loops.push_back({i, end == t.size() ? t.size() - 1 : end});
      }
      if (kind == ScopeKind::kFunction && !in_function) {
        in_function = true;
        func_depth_mark = stack.size();
        func_begin = i;
        // Signature: back to the previous top-level terminator.
        std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
        int budget = 200;
        while (k > 0 && budget-- > 0) {
          const std::string& s = t[static_cast<std::size_t>(k)].text;
          if (s == ";" || s == "}" || s == "{") break;
          --k;
        }
        func_sig = {static_cast<std::size_t>(k), i == 0 ? 0 : i - 1};
      }
      stack.push_back(kind);
    } else if (t[i].text == "}") {
      if (!stack.empty()) stack.pop_back();
      if (in_function && stack.size() == func_depth_mark) {
        in_function = false;
        info.functions.push_back({func_begin, i});
        info.func_sigs.push_back(func_sig);
      }
    }
  }

  // Braceless for/while bodies: `for (...) stmt;`.
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (!t[i].ident || (t[i].text != "for" && t[i].text != "while")) continue;
    if (i + 1 >= t.size() || t[i + 1].text != "(") continue;
    const std::size_t close = match_forward(t, i + 1, "(", ")");
    if (close >= t.size() || close + 1 >= t.size()) continue;
    if (t[close + 1].text == "{" || t[close + 1].text == ";") continue;
    int depth = 0;
    for (std::size_t k = close + 1; k < t.size(); ++k) {
      if (t[k].text == "(") ++depth;
      if (t[k].text == ")") --depth;
      if (t[k].text == ";" && depth <= 0) {
        info.loops.push_back({close + 1, k});
        break;
      }
    }
  }
  return info;
}

// ---------------------------------------------------------------------------
// D1: no-rand
// ---------------------------------------------------------------------------

class NoRandRule final : public Rule {
 public:
  std::string id() const override { return "no-rand"; }
  std::string summary() const override {
    return "unseeded or global RNG (rand, random_device, ...) — every random "
           "choice must flow from an explicit seed";
  }
  bool applies(const std::string& path) const override {
    // Carve-out for a dedicated seeded-RNG factory, should one ever exist.
    return !path_in_dir(path, "src/common/rng");
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    static const std::set<std::string> kBanned = {
        "rand",    "srand",   "rand_r",         "drand48",
        "lrand48", "mrand48", "erand48",        "random_shuffle",
        "random_device",
    };
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
      const Token& t = f.tokens[i];
      if (!t.ident || t.preproc || kBanned.count(t.text) == 0) continue;
      if (i > 0 &&
          (f.tokens[i - 1].text == "." || f.tokens[i - 1].text == "->")) {
        continue;  // member named e.g. `rand` on some other object
      }
      out.push_back(make_finding(
          *this, f, t.line,
          "'" + t.text +
              "' is a nondeterminism source; use a seeded engine "
              "(std::mt19937 with an explicit seed, or fault::splitmix64)"));
    }
  }
};

// ---------------------------------------------------------------------------
// D1/D3: no-wall-clock
// ---------------------------------------------------------------------------

class NoWallClockRule final : public Rule {
 public:
  std::string id() const override { return "no-wall-clock"; }
  std::string summary() const override {
    return "wall-clock reads in library code — simulated time flows through "
           "MachineClock; host timing belongs in bench/ or perfbench/";
  }
  bool applies(const std::string& path) const override {
    return path_in_dir(path, "src");
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    static const std::set<std::string> kBannedIdent = {
        "system_clock",  "steady_clock", "high_resolution_clock",
        "gettimeofday",  "clock_gettime", "timespec_get",
        "localtime",     "gmtime",
    };
    static const std::set<std::string> kBannedCall = {"time", "clock"};
    for (std::size_t i = 0; i < f.tokens.size(); ++i) {
      const Token& t = f.tokens[i];
      if (!t.ident || t.preproc) continue;
      if (kBannedIdent.count(t.text) > 0) {
        out.push_back(make_finding(
            *this, f, t.line,
            "'" + t.text +
                "' reads the host clock; metrics must be functions of "
                "simulated cycles (MachineClock)"));
      } else if (kBannedCall.count(t.text) > 0 && banned_call_at(f.tokens, i)) {
        out.push_back(make_finding(
            *this, f, t.line,
            "'" + t.text +
                "()' reads the host clock; route time through MachineClock"));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// D1: no-unordered-io-iter
// ---------------------------------------------------------------------------

class UnorderedIoIterRule final : public Rule {
 public:
  std::string id() const override { return "no-unordered-io-iter"; }
  std::string summary() const override {
    return "iterating an unordered container in a function that emits "
           "CSV/journal/metrics output — hash order leaks into bytes";
  }
  bool applies(const std::string& path) const override {
    return path_in_dir(path, "src") || path_in_dir(path, "bench") ||
           path_in_dir(path, "tools");
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const Tokens& t = f.tokens;
    const std::set<std::string> vars = unordered_vars(t);
    if (vars.empty()) return;
    const ScopeInfo scopes = analyze_scopes(t);
    for (std::size_t fi = 0; fi < scopes.functions.size(); ++fi) {
      const Region body = scopes.functions[fi];
      const Region sig = scopes.func_sigs[fi];
      if (!writes_output(t, sig, body)) continue;
      flag_iteration(f, t, body, vars, out);
    }
  }

 private:
  static std::set<std::string> unordered_vars(const Tokens& t) {
    static const std::set<std::string> kTypes = {
        "unordered_map", "unordered_set", "unordered_multimap",
        "unordered_multiset"};
    std::set<std::string> vars;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t[i].ident || kTypes.count(t[i].text) == 0) continue;
      std::size_t j = i + 1;
      if (j < t.size() && t[j].text == "<") {
        int depth = 0;
        for (; j < t.size(); ++j) {
          if (t[j].text == "<") ++depth;
          if (t[j].text == ">" && --depth == 0) {
            ++j;
            break;
          }
          if (t[j].text == ";" || t[j].text == "{") break;  // lost track
        }
      }
      while (j < t.size() &&
             (t[j].text == "&" || t[j].text == "*" || t[j].text == "const")) {
        ++j;
      }
      if (j < t.size() && t[j].ident) {
        // `name` followed by '(' is a function declarator, not a variable.
        if (j + 1 < t.size() && t[j + 1].text == "(") continue;
        vars.insert(t[j].text);
      }
    }
    return vars;
  }

  static bool writes_output(const Tokens& t, const Region& sig,
                            const Region& body) {
    static const std::set<std::string> kSinks = {"ofstream", "fprintf", "fputs",
                                                 "fwrite", "cout"};
    for (std::size_t i = sig.begin; i <= sig.end && i < t.size(); ++i) {
      if (t[i].ident && (t[i].text == "ostream" || t[i].text == "ofstream")) {
        return true;
      }
    }
    for (std::size_t i = body.begin; i <= body.end && i < t.size(); ++i) {
      if (!t[i].ident) continue;
      if (kSinks.count(t[i].text) > 0) return true;
      const std::string lo = lower(t[i].text);
      if (lo.find("csv") != std::string::npos ||
          lo.find("journal") != std::string::npos) {
        return true;
      }
    }
    return false;
  }

  void flag_iteration(const SourceFile& f, const Tokens& t, const Region& body,
                      const std::set<std::string>& vars,
                      std::vector<Finding>& out) const {
    for (std::size_t i = body.begin; i <= body.end && i < t.size(); ++i) {
      // Range-for over an unordered variable.
      if (t[i].text == "for" && tok_is(t, i + 1, "(")) {
        const std::size_t close = match_forward(t, i + 1, "(", ")");
        for (std::size_t k = i + 2; k < close; ++k) {
          if (t[k].text != ":") continue;
          for (std::size_t v = k + 1; v < close; ++v) {
            if (t[v].ident && vars.count(t[v].text) > 0) {
              out.push_back(make_finding(
                  *this, f, t[v].line,
                  "range-for over unordered container '" + t[v].text +
                      "' in an output-writing function; hash order is not "
                      "deterministic — use std::map or sort before emitting"));
            }
          }
          break;
        }
      }
      // Explicit begin()/end() on an unordered variable.
      if (t[i].ident && vars.count(t[i].text) > 0 && i + 3 < t.size() &&
          (t[i + 1].text == "." || t[i + 1].text == "->") &&
          (t[i + 2].text == "begin" || t[i + 2].text == "end" ||
           t[i + 2].text == "cbegin" || t[i + 2].text == "cend") &&
          t[i + 3].text == "(") {
        out.push_back(make_finding(
            *this, f, t[i].line,
            "iterator over unordered container '" + t[i].text +
                "' in an output-writing function; hash order is not "
                "deterministic — use std::map or sort before emitting"));
      }
    }
  }
};

// ---------------------------------------------------------------------------
// D1: no-pointer-order
// ---------------------------------------------------------------------------

class PointerOrderRule final : public Rule {
 public:
  std::string id() const override { return "no-pointer-order"; }
  std::string summary() const override {
    return "ordering or hashing raw pointers — addresses vary run to run, so "
           "any order derived from them is nondeterministic";
  }
  bool applies(const std::string& path) const override {
    return path_in_dir(path, "src") || path_in_dir(path, "bench");
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const Tokens& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t[i].ident || t[i].preproc) continue;
      if (t[i].text == "hash" && tok_is(t, i + 1, "<")) {
        const bool std_qualified =
            i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
        const bool bare = i == 0 || (!t[i - 1].ident && t[i - 1].text != "::" &&
                                     t[i - 1].text != "." &&
                                     t[i - 1].text != "->");
        if (!std_qualified && !bare) continue;
        const std::size_t close = match_forward(t, i + 1, "<", ">");
        for (std::size_t k = i + 2; k < close; ++k) {
          if (t[k].text == "*") {
            out.push_back(make_finding(
                *this, f, t[i].line,
                "std::hash over a pointer type; pointer values differ across "
                "runs — hash a stable id instead"));
            break;
          }
        }
      }
      if ((t[i].text == "sort" || t[i].text == "stable_sort") &&
          tok_is(t, i + 1, "(")) {
        check_sort_comparator(f, t, i, out);
      }
    }
  }

 private:
  void check_sort_comparator(const SourceFile& f, const Tokens& t,
                             std::size_t sort_idx,
                             std::vector<Finding>& out) const {
    const std::size_t close = match_forward(t, sort_idx + 1, "(", ")");
    // Find a lambda among the arguments.
    for (std::size_t i = sort_idx + 2; i < close; ++i) {
      if (t[i].text != "[") continue;
      const std::size_t cap_end = match_forward(t, i, "[", "]");
      if (cap_end >= close || !tok_is(t, cap_end + 1, "(")) continue;
      const std::size_t params_end = match_forward(t, cap_end + 1, "(", ")");
      // Parameter names declared with a '*' in their declarator.
      std::set<std::string> ptr_params;
      bool saw_star = false;
      std::string last_ident;
      for (std::size_t k = cap_end + 2; k < params_end; ++k) {
        if (t[k].text == ",") {
          if (saw_star && !last_ident.empty()) ptr_params.insert(last_ident);
          saw_star = false;
          last_ident.clear();
        } else if (t[k].text == "*") {
          saw_star = true;
        } else if (t[k].ident && t[k].text != "const") {
          last_ident = t[k].text;
        }
      }
      if (saw_star && !last_ident.empty()) ptr_params.insert(last_ident);
      if (ptr_params.empty()) continue;
      // Body: direct `a < b` / `a > b` comparison of the raw pointers.
      if (params_end + 1 >= t.size() || t[params_end + 1].text != "{") continue;
      const std::size_t body_end = match_forward(t, params_end + 1, "{", "}");
      for (std::size_t k = params_end + 2; k + 2 <= body_end; ++k) {
        if (t[k].ident && ptr_params.count(t[k].text) > 0 &&
            (t[k + 1].text == "<" || t[k + 1].text == ">") && t[k + 2].ident &&
            ptr_params.count(t[k + 2].text) > 0) {
          out.push_back(make_finding(
              *this, f, t[k].line,
              "sorting by raw pointer value; addresses vary run to run — "
              "compare a stable field or index instead"));
        }
      }
      return;
    }
  }
};

// ---------------------------------------------------------------------------
// D2: typed-errors
// ---------------------------------------------------------------------------

class TypedErrorsRule final : public Rule {
 public:
  std::string id() const override { return "typed-errors"; }
  std::string summary() const override {
    return "assert/abort/exit or bare std exceptions in library code — throw "
           "the simdts::Error hierarchy (common/error.hpp) with context";
  }
  bool applies(const std::string& path) const override {
    return path_in_dir(path, "src") && path != "src/common/error.hpp";
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    static const std::set<std::string> kAbortCalls = {
        "abort", "exit", "_Exit", "quick_exit", "terminate"};
    static const std::set<std::string> kBareExceptions = {
        "runtime_error", "logic_error",    "invalid_argument",
        "domain_error",  "length_error",   "out_of_range",
        "range_error",   "overflow_error", "underflow_error"};
    const Tokens& t = f.tokens;
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t[i].ident || t[i].preproc) continue;
      if (t[i].text == "assert" && tok_is(t, i + 1, "(")) {
        out.push_back(make_finding(
            *this, f, t[i].line,
            "assert() kills the whole sweep with no context; throw a typed "
            "simdts::Error (common/error.hpp) instead"));
      } else if (kAbortCalls.count(t[i].text) > 0 &&
                 banned_call_at(t, i)) {
        out.push_back(make_finding(
            *this, f, t[i].line,
            "'" + t[i].text +
                "()' terminates the host process; library code reports "
                "failures via the simdts::Error hierarchy"));
      } else if (t[i].text == "throw") {
        for (std::size_t k = i + 1; k < t.size() && k < i + 40; ++k) {
          if (t[k].text == ";") break;
          if (t[k].ident && kBareExceptions.count(t[k].text) > 0) {
            out.push_back(make_finding(
                *this, f, t[i].line,
                "bare std::" + t[k].text +
                    "; throw a typed simdts::Error subclass so callers can "
                    "tell failure classes apart"));
            break;
          }
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// D3: lockstep-io
// ---------------------------------------------------------------------------

class LockstepIoRule final : public Rule {
 public:
  std::string id() const override { return "lockstep-io"; }
  std::string summary() const override {
    return "host I/O in lockstep substrate code (src/{lb,simd,fault,search}) "
           "— the engine reports through RunStats, never the host";
  }
  bool applies(const std::string& path) const override {
    return path_in_dir(path, "src/lb") || path_in_dir(path, "src/simd") ||
           path_in_dir(path, "src/fault") || path_in_dir(path, "src/search");
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    static const std::set<std::string> kIo = {
        "cout",    "cerr",   "clog",   "printf", "fprintf", "fputs",
        "fwrite",  "fopen",  "freopen", "fscanf", "scanf",  "ofstream",
        "ifstream", "fstream", "getenv", "putenv", "setenv", "system",
    };
    const Tokens& t = f.tokens;
    const ScopeInfo scopes = analyze_scopes(t);
    for (std::size_t i = 0; i < t.size(); ++i) {
      if (!t[i].ident || t[i].preproc || kIo.count(t[i].text) == 0) continue;
      if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) continue;
      const bool in_loop = in_any_region(scopes.loops, i);
      out.push_back(make_finding(
          *this, f, t[i].line,
          in_loop
              ? "'" + t[i].text +
                    "' — host I/O inside a per-lane loop serializes lanes "
                    "and breaks lockstep timing; lift it out of the engine"
              : "'" + t[i].text +
                    "' — host I/O in lockstep substrate code; results leave "
                    "the engine via RunStats/metrics, not the host"));
    }
  }
};

// ---------------------------------------------------------------------------
// D4: header-pragma-once
// ---------------------------------------------------------------------------

class HeaderPragmaOnceRule final : public Rule {
 public:
  std::string id() const override { return "header-pragma-once"; }
  std::string summary() const override {
    return "headers open with #pragma once (repo convention; the "
           "self-containment check compiles each header twice)";
  }
  bool applies(const std::string& path) const override {
    const auto dot = path.rfind('.');
    if (dot == std::string::npos) return false;
    const std::string ext = path.substr(dot);
    return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx";
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const Tokens& t = f.tokens;
    if (t.size() >= 3 && t[0].text == "#" && t[1].text == "pragma" &&
        t[2].text == "once") {
      return;
    }
    const std::size_t line = t.empty() ? 1 : t[0].line;
    out.push_back(make_finding(
        *this, f, line,
        "header does not open with '#pragma once' (first code line must be "
        "the include guard)"));
  }
};

// ---------------------------------------------------------------------------
// D4: header-using-namespace
// ---------------------------------------------------------------------------

class HeaderUsingNamespaceRule final : public Rule {
 public:
  std::string id() const override { return "header-using-namespace"; }
  std::string summary() const override {
    return "'using namespace' at namespace scope in a header leaks names "
           "into every includer";
  }
  bool applies(const std::string& path) const override {
    const auto dot = path.rfind('.');
    if (dot == std::string::npos) return false;
    const std::string ext = path.substr(dot);
    return ext == ".hpp" || ext == ".h" || ext == ".hh" || ext == ".hxx";
  }
  void check(const SourceFile& f, std::vector<Finding>& out) const override {
    const Tokens& t = f.tokens;
    const ScopeInfo scopes = analyze_scopes(t);
    for (std::size_t i = 0; i + 1 < t.size(); ++i) {
      if (t[i].text == "using" && t[i + 1].text == "namespace" &&
          scopes.ns_scope[i]) {
        out.push_back(make_finding(
            *this, f, t[i].line,
            "'using namespace' at namespace scope in a header; qualify names "
            "or scope the directive inside a function"));
      }
    }
  }
};

}  // namespace

// ---------------------------------------------------------------------------
// Registry and per-file driver
// ---------------------------------------------------------------------------

bool path_in_dir(const std::string& path, const std::string& dir) {
  if (path.size() < dir.size()) return false;
  if (path.compare(0, dir.size(), dir) != 0) return false;
  return path.size() == dir.size() || path[dir.size()] == '/';
}

std::vector<std::unique_ptr<Rule>> default_rules() {
  std::vector<std::unique_ptr<Rule>> rules;
  rules.push_back(std::make_unique<NoRandRule>());
  rules.push_back(std::make_unique<NoWallClockRule>());
  rules.push_back(std::make_unique<UnorderedIoIterRule>());
  rules.push_back(std::make_unique<PointerOrderRule>());
  rules.push_back(std::make_unique<TypedErrorsRule>());
  rules.push_back(std::make_unique<LockstepIoRule>());
  rules.push_back(std::make_unique<HeaderPragmaOnceRule>());
  rules.push_back(std::make_unique<HeaderUsingNamespaceRule>());
  rules.push_back(make_layering_rule());
  return rules;
}

std::vector<Finding> lint_file(
    const SourceFile& file, const std::vector<std::unique_ptr<Rule>>& rules) {
  std::vector<Finding> findings;
  for (const auto& rule : rules) {
    if (rule->applies(file.path)) rule->check(file, findings);
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });

  // Apply SIMDLINT-ALLOW: a directive suppresses matching findings on its
  // own line and the line directly below it.
  std::set<std::pair<std::size_t, std::string>> used;
  for (Finding& f : findings) {
    for (const std::size_t line : {f.line, f.line > 0 ? f.line - 1 : 0}) {
      const auto it = file.allows.find(line);
      if (it == file.allows.end()) continue;
      if (it->second.count(f.rule) > 0) {
        f.suppressed = true;
        used.insert({line, f.rule});
      } else if (it->second.count("*") > 0) {
        f.suppressed = true;
        used.insert({line, "*"});
      }
    }
  }

  // A directive that suppressed nothing is itself a finding: stale ALLOWs
  // hide future regressions.
  for (const auto& [line, ids] : file.allows) {
    for (const std::string& id : ids) {
      if (used.count({line, id}) > 0) continue;
      Finding f;
      f.rule = "unused-suppression";
      f.path = file.path;
      f.line = line;
      f.message = "SIMDLINT-ALLOW(" + id + ") matched no finding; remove it";
      f.excerpt = file.line_text(line);
      findings.push_back(std::move(f));
    }
  }
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

}  // namespace simdlint
