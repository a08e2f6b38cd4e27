#include "lint_core.hpp"

#include <algorithm>
#include <cctype>
#include <cstddef>
#include <map>
#include <set>

#include "lint_graph.hpp"
#include "lint_passes.hpp"
#include "lint_text.hpp"

namespace nexit::lint {
namespace {

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

const char* const kUnorderedIteration = "unordered-iteration";
const char* const kRawEntropy = "raw-entropy";
const char* const kPointerSort = "pointer-sort";
const char* const kFloatAccumulate = "float-accumulate";
const char* const kUninitPodDigest = "uninit-pod-digest";
const char* const kTaintFlow = "taint-flow";
const char* const kLockOrder = "lock-order";
const char* const kUnguardedWrite = "unguarded-write";
const char* const kBadAllow = "bad-allow";
const char* const kStaleAllow = "stale-allow";

}  // namespace

const std::vector<Rule>& rule_table() {
  static const std::vector<Rule> kTable = {
      {kUnorderedIteration,
       "range-for over an unordered_map/unordered_set whose body feeds an "
       "accumulator, digest, or output",
       "hash-table iteration order is implementation- and run-dependent; "
       "anything order-sensitive must iterate a sorted view or an "
       "index-ordered vector"},
      {kRawEntropy,
       "rand()/srand()/std::random_device, std::shuffle, time()/clock()/"
       "gettimeofday(), or std::chrono::{system,steady}_clock outside "
       "util::Rng / runtime::Clock / obs::WallClock",
       "unseeded entropy and wall-clock reads make reruns diverge; all "
       "randomness flows through util::Rng streams, all simulated time "
       "through the runtime's virtual clock, and all wall-time measurement "
       "through obs::WallClock (the one sanctioned steady_clock wrapper, so "
       "timing stays corralled in the digest-excluded timing section)"},
      {kPointerSort,
       "sort comparator that orders by pointer value or address, or a "
       "comparator-less sort of a pointer container",
       "allocator addresses differ run to run, so address order is "
       "nondeterministic; sort by id or by a value key instead"},
      {kFloatAccumulate,
       "floating-point `+=` reduction inside a loop outside the canonical "
       "summation helpers (util::stats, routing::loads/IncrementalLoads, "
       "metrics)",
       "FP addition is non-associative: the reduction order IS the result, "
       "ulp drift can flip a preference class (see PR 3), so every "
       "summation order must be owned by a helper or explicitly annotated"},
      {kUninitPodDigest,
       "builtin-typed struct member without an initializer, in a file that "
       "touches the digest machinery",
       "uninitialized bytes reaching util::digest make the determinism "
       "digests compare garbage; every member must have a deterministic "
       "initial value"},
      {kTaintFlow,
       "cross-TU taint: a nondeterminism source value (obs::WallClock read, "
       "raw entropy, pointer-to-integer cast, thread id, unordered-container "
       "iteration order) flows — through locals and function return values — "
       "into a digest, metric, or output sink (runs under --taint)",
       "a digest or emitted record that depends on such a value differs "
       "between runs even when every line looks innocent in isolation; the "
       "finding anchors at the SOURCE line and reports the full "
       "source -> sink call chain, and only an allow(taint-flow) at that "
       "source line can waive it (the waiver is a statement about the "
       "value, e.g. wall_ms being digest-excluded by design)"},
      {kLockOrder,
       "two functions acquire the same pair of mutexes in opposite orders "
       "(runs under --locks)",
       "inconsistent pairwise acquisition order is the ABBA deadlock shape; "
       "under contention the run wedges — or worse, a timeout path fires "
       "nondeterministically and the records diverge"},
      {kUnguardedWrite,
       "write to shared (captured, non-slot) state inside a ThreadPool "
       "worker lambda with no lock or atomic in scope (runs under --locks)",
       "the winner of a racy write is schedule-dependent, which is exactly "
       "the nondeterminism the --threads=N bit-identity contract forbids; "
       "give each worker its own slot (out[i] = ...), guard the write, or "
       "make it atomic"},
      {kBadAllow,
       "malformed nexit-lint annotation (unknown rule name, or missing "
       "reason)",
       "suppressions are part of the determinism contract's audit trail; "
       "each must name a real rule and justify itself"},
      {kStaleAllow,
       "nexit-lint allow annotation that no longer suppresses any finding",
       "stale suppressions hide future regressions of the same rule on "
       "nearby lines; delete them when the code they excused is gone"},
  };
  return kTable;
}

bool known_rule(const std::string& name) {
  for (const Rule& r : rule_table())
    if (r.name == name) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Comment / string stripping
// ---------------------------------------------------------------------------

std::string strip_comments_and_strings(const std::string& text) {
  std::string out = text;
  enum class St { kCode, kLine, kBlock, kStr, kChar, kRaw };
  St st = St::kCode;
  std::string raw_delim;  // the )delim" closer of a raw string
  for (std::size_t i = 0; i < text.size(); ++i) {
    const char c = text[i];
    const char n = i + 1 < text.size() ? text[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && n == '/') {
          st = St::kLine;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == '/' && n == '*') {
          st = St::kBlock;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c == 'R' && n == '"' &&
                   (i == 0 || !ident_char(text[i - 1]))) {
          std::size_t p = i + 2;
          std::string d;
          while (p < text.size() && text[p] != '(') d += text[p++];
          raw_delim = ")" + d + "\"";
          st = St::kRaw;
          for (std::size_t k = i; k <= p && k < text.size(); ++k)
            if (out[k] != '\n') out[k] = ' ';
          i = p;
        } else if (c == '"') {
          st = St::kStr;
        } else if (c == '\'') {
          st = St::kChar;
        }
        break;
      case St::kLine:
        if (c == '\n') st = St::kCode;
        else out[i] = ' ';
        break;
      case St::kBlock:
        if (c == '*' && n == '/') {
          st = St::kCode;
          out[i] = out[i + 1] = ' ';
          ++i;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kStr:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\0' && n != '\n') out[++i] = ' ';
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\') {
          out[i] = ' ';
          if (n != '\0' && n != '\n') out[++i] = ' ';
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kRaw:
        if (text.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

namespace {

// ---------------------------------------------------------------------------
// allow() annotations
// ---------------------------------------------------------------------------

struct Allow {
  int line = 0;
  std::string rule;
  std::string reason;
  bool used = false;
};

std::string trim(const std::string& s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Parses every `nexit-lint: allow(<rule>): <reason>` annotation from the
/// RAW text (annotations live in comments). Malformed ones become bad-allow
/// findings directly.
std::vector<Allow> collect_allows(const std::string& raw,
                                  const std::string& path,
                                  std::vector<Finding>& findings) {
  std::vector<Allow> allows;
  const std::string kTag = "nexit-lint:";
  const LineIndex lines(raw);
  std::size_t from = 0;
  while (true) {
    const std::size_t at = raw.find(kTag, from);
    if (at == std::string::npos) break;
    from = at + kTag.size();
    const int line = lines.line_of(at);
    const std::size_t eol_pos = raw.find('\n', at);
    const std::string rest = trim(raw.substr(
        at + kTag.size(),
        (eol_pos == std::string::npos ? raw.size() : eol_pos) - at -
            kTag.size()));
    auto bad = [&](const std::string& why) {
      findings.push_back({path, line, kBadAllow,
                          "malformed nexit-lint annotation: " + why, false, ""});
    };
    if (rest.compare(0, 6, "allow(") != 0) {
      bad("expected `allow(<rule>): <reason>` after `nexit-lint:`");
      continue;
    }
    const std::size_t close = rest.find(')', 6);
    if (close == std::string::npos) {
      bad("unterminated allow(");
      continue;
    }
    const std::string rule = trim(rest.substr(6, close - 6));
    if (!known_rule(rule)) {
      bad("unknown rule `" + rule + "` (see --list-rules)");
      continue;
    }
    if (rule == kBadAllow || rule == kStaleAllow) {
      bad("rule `" + rule + "` is not suppressible");
      continue;
    }
    std::size_t p = skip_ws(rest, close + 1);
    if (p >= rest.size() || rest[p] != ':') {
      bad("expected `: <reason>` after allow(" + rule + ")");
      continue;
    }
    const std::string reason = trim(rest.substr(p + 1));
    if (reason.empty()) {
      bad("allow(" + rule + ") needs a non-empty reason");
      continue;
    }
    allows.push_back({line, rule, reason, false});
  }
  return allows;
}

// ---------------------------------------------------------------------------
// Declaration harvesting (shared by several rules)
// ---------------------------------------------------------------------------

/// After a container-type token (e.g. `unordered_map`), skips the template
/// argument list and any `const`/`&`/`*` decoration and returns the declared
/// variable name, or "" when the token is not a declaration site.
std::string declared_name_after_type(const std::string& s,
                                     const Token& type_tok) {
  std::size_t p = skip_ws(s, type_tok.end);
  if (p < s.size() && s[p] == '<') {
    const std::size_t close = find_matching(s, p, '<', '>');
    if (close == std::string::npos) return "";
    p = skip_ws(s, close + 1);
  }
  while (p < s.size()) {
    if (s[p] == '&' || s[p] == '*') {
      p = skip_ws(s, p + 1);
      continue;
    }
    if (s.compare(p, 5, "const") == 0 && (p + 5 >= s.size() || !ident_char(s[p + 5]))) {
      p = skip_ws(s, p + 5);
      continue;
    }
    break;
  }
  if (p >= s.size() || !ident_start(s[p])) return "";
  std::size_t e = p;
  while (e < s.size() && ident_char(s[e])) ++e;
  std::string name = s.substr(p, e - p);
  // `unordered_map<...> foo(` is a function returning the map, not a var.
  const std::size_t after = skip_ws(s, e);
  if (after < s.size() && s[after] == '(') return "";
  return name;
}

/// Names of variables declared in `s` with a type whose last type token is
/// in `type_tokens` and whose template argument list satisfies `args_ok`
/// (always true when the type has no template args and `args_ok` is null).
std::set<std::string> harvest_decls(
    const std::string& s, const std::vector<Token>& toks,
    const std::set<std::string>& type_tokens,
    bool (*args_ok)(const std::string&) = nullptr) {
  std::set<std::string> names;
  for (const Token& t : toks) {
    if (type_tokens.count(t.text) == 0) continue;
    if (args_ok != nullptr) {
      const std::size_t p = skip_ws(s, t.end);
      if (p >= s.size() || s[p] != '<') continue;
      const std::size_t close = find_matching(s, p, '<', '>');
      if (close == std::string::npos) continue;
      if (!args_ok(s.substr(p + 1, close - p - 1))) continue;
    }
    const std::string name = declared_name_after_type(s, t);
    if (!name.empty()) names.insert(name);
  }
  return names;
}

// ---------------------------------------------------------------------------
// Rule: unordered-iteration
// ---------------------------------------------------------------------------

const char* find_sink(const std::string& body) {
  static const char* const kSinks[] = {"+=",        "<<",      "push_back",
                                       "emplace",   "insert",  "append",
                                       "fnv1a",     "digest",  "printf",
                                       "log_line"};
  for (const char* sink : kSinks)
    if (body.find(sink) != std::string::npos) return sink;
  return nullptr;
}

void rule_unordered_iteration(const std::string& path, const std::string& s,
                              const std::vector<Token>& toks,
                              const LineIndex& lines,
                              std::vector<Finding>& findings) {
  static const std::set<std::string> kUnorderedTypes = {
      "unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"};
  const std::set<std::string> unordered_vars =
      harvest_decls(s, toks, kUnorderedTypes);

  for (const Token& t : toks) {
    if (t.text != "for") continue;
    const std::size_t open = skip_ws(s, t.end);
    if (open >= s.size() || s[open] != '(') continue;
    const std::size_t close = find_matching(s, open, '(', ')');
    if (close == std::string::npos) continue;
    // Top-level `:` of a range-for (skipping `::`).
    std::size_t colon = std::string::npos;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
      const char c = s[i];
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ':' && depth == 0) {
        if ((i + 1 < close && s[i + 1] == ':') || (i > 0 && s[i - 1] == ':')) {
          continue;
        }
        colon = i;
        break;
      }
    }
    if (colon == std::string::npos) continue;
    const std::string range_expr = s.substr(colon + 1, close - colon - 1);
    bool over_unordered = range_expr.find("unordered_") != std::string::npos;
    std::string var;
    for (const Token& rt : tokenize(range_expr)) {
      if (unordered_vars.count(rt.text) != 0) {
        over_unordered = true;
        var = rt.text;
        break;
      }
    }
    if (!over_unordered) continue;
    // Loop body: braced block or single statement.
    std::size_t body_begin = skip_ws(s, close + 1);
    std::string body;
    if (body_begin < s.size() && s[body_begin] == '{') {
      const std::size_t body_close = find_matching(s, body_begin, '{', '}');
      if (body_close == std::string::npos) continue;
      body = s.substr(body_begin, body_close - body_begin + 1);
    } else {
      const std::size_t semi = s.find(';', body_begin);
      if (semi == std::string::npos) continue;
      body = s.substr(body_begin, semi - body_begin + 1);
    }
    if (const char* sink = find_sink(body)) {
      findings.push_back(
          {path, lines.line_of(t.begin), kUnorderedIteration,
           "iteration over unordered container" +
               (var.empty() ? std::string() : " `" + var + "`") +
               " feeds `" + sink +
               "` — hash order is nondeterministic; iterate a sorted view "
               "or index-ordered vector instead",
           false, ""});
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: raw-entropy
// ---------------------------------------------------------------------------

void rule_raw_entropy(const std::string& path, const std::string& s,
                      const std::vector<Token>& toks, const LineIndex& lines,
                      std::vector<Finding>& findings) {
  if (path_ends_with(path, "src/util/rng.hpp") ||
      path_ends_with(path, "src/util/rng.cpp") ||
      path_ends_with(path, "src/runtime/clock.hpp") ||
      path_ends_with(path, "src/runtime/clock.cpp") ||
      path_ends_with(path, "src/obs/wall_clock.hpp")) {
    return;  // the canonical wrappers themselves
  }
  // Entropy/time functions: flagged when *called* (next char is `(`) and
  // not a member access (`obj.time(...)` is somebody's method, `::time(`
  // and bare `time(` are libc).
  static const std::set<std::string> kCalls = {
      "rand",      "srand",        "rand_r",       "random",
      "drand48",   "lrand48",      "mrand48",      "time",
      "clock",     "gettimeofday", "timespec_get", "localtime",
      "gmtime",    "shuffle",      "random_shuffle"};
  // Nondeterminism sources flagged on sight, call or not.
  static const std::set<std::string> kBare = {"random_device", "system_clock",
                                              "steady_clock"};

  for (const Token& t : toks) {
    std::string what;
    if (kBare.count(t.text) != 0) {
      what = t.text;
    } else if (kCalls.count(t.text) != 0) {
      const std::size_t p = skip_ws(s, t.end);
      if (p >= s.size() || s[p] != '(') continue;
      if (member_access_before(s, t.begin)) continue;
      what = t.text + "()";
    } else {
      continue;
    }
    findings.push_back(
        {path, lines.line_of(t.begin), kRawEntropy,
         "`" + what +
             "` — route randomness through util::Rng, simulated time "
             "through runtime::Clock, and wall-clock measurement through "
             "obs::WallClock",
         false, ""});
  }
}

// ---------------------------------------------------------------------------
// Rule: pointer-sort
// ---------------------------------------------------------------------------

bool template_args_contain_pointer(const std::string& args) {
  return args.find('*') != std::string::npos;
}

std::vector<std::string> lambda_param_names(const std::string& params) {
  std::vector<std::string> names;
  int depth = 0;
  std::string current;
  auto flush = [&]() {
    const std::vector<Token> ts = tokenize(current);
    if (!ts.empty()) names.push_back(ts.back().text);
    current.clear();
  };
  for (const char c : params) {
    if (c == '<' || c == '(' || c == '[' || c == '{') ++depth;
    else if (c == '>' || c == ')' || c == ']' || c == '}') --depth;
    if (c == ',' && depth == 0) flush();
    else current += c;
  }
  flush();
  return names;
}

/// `&a < &b` style address comparison anywhere in `body`.
bool compares_addresses(const std::string& body) {
  for (std::size_t i = 0; i < body.size(); ++i) {
    if (body[i] != '&') continue;
    // Binary bitwise-and (`x & y`) has an identifier/paren directly before —
    // but a keyword like `return` before `&` still introduces an address-of.
    const std::size_t prev = prev_nonspace(body, i);
    if (prev != std::string::npos &&
        (ident_char(body[prev]) || body[prev] == ')' || body[prev] == ']')) {
      bool keyword_before = false;
      if (ident_char(body[prev])) {
        std::size_t b = prev;
        while (b > 0 && ident_char(body[b - 1])) --b;
        const std::string word = body.substr(b, prev - b + 1);
        keyword_before = word == "return" || word == "case" ||
                         word == "co_return" || word == "co_yield";
      }
      if (!keyword_before) continue;
    }
    std::size_t p = skip_ws(body, i + 1);
    if (p >= body.size() || !ident_start(body[p])) continue;
    while (p < body.size() && (ident_char(body[p]) || body[p] == '.')) ++p;
    p = skip_ws(body, p);
    if (p < body.size() && (body[p] == '<' || body[p] == '>')) {
      std::size_t q = p + 1;
      if (q < body.size() && body[q] == '=') ++q;
      q = skip_ws(body, q);
      if (q < body.size() && body[q] == '&') return true;
    }
  }
  return false;
}

/// Bare `a < b` where a, b are comparator parameter names (no dereference,
/// no member access): the comparator orders by pointer value.
bool compares_params_bare(const std::string& body,
                          const std::vector<std::string>& params) {
  const std::vector<Token> toks = tokenize(body);
  for (std::size_t i = 0; i < toks.size(); ++i) {
    bool is_param = false;
    for (const std::string& p : params) is_param |= (toks[i].text == p);
    if (!is_param) continue;
    const std::size_t prev = prev_nonspace(body, toks[i].begin);
    if (prev != std::string::npos &&
        (body[prev] == '*' || body[prev] == '.' || body[prev] == '&'))
      continue;  // dereferenced / member / address-of (handled separately)
    std::size_t p = skip_ws(body, toks[i].end);
    if (p >= body.size() || (body[p] != '<' && body[p] != '>')) continue;
    std::size_t q = p + 1;
    if (q < body.size() && body[q] == '=') ++q;
    if (q < body.size() && (body[q] == body[p])) continue;  // << or >>
    q = skip_ws(body, q);
    if (q >= body.size() || !ident_start(body[q])) continue;
    std::size_t e = q;
    while (e < body.size() && ident_char(body[e])) ++e;
    const std::string rhs = body.substr(q, e - q);
    // RHS must be a *bare* param too (a < b->id is a value compare).
    if (e < body.size() && (body[e] == '.' || body.compare(e, 2, "->") == 0))
      continue;
    for (const std::string& pn : params)
      if (rhs == pn) return true;
  }
  return false;
}

void rule_pointer_sort(const std::string& path, const std::string& s,
                       const std::vector<Token>& toks, const LineIndex& lines,
                       std::vector<Finding>& findings) {
  static const std::set<std::string> kVectorTypes = {"vector", "array", "deque"};
  const std::set<std::string> ptr_containers =
      harvest_decls(s, toks, kVectorTypes, template_args_contain_pointer);
  static const std::set<std::string> kSortFns = {"sort", "stable_sort",
                                                 "partial_sort", "nth_element"};
  for (const Token& t : toks) {
    if (kSortFns.count(t.text) == 0) continue;
    const std::size_t open = skip_ws(s, t.end);
    if (open >= s.size() || s[open] != '(') continue;
    if (member_access_before(s, t.begin)) continue;  // x.sort() is a method
    const std::size_t close = find_matching(s, open, '(', ')');
    if (close == std::string::npos) continue;
    const std::string args = s.substr(open + 1, close - open - 1);
    const int line = lines.line_of(t.begin);

    // Comparator lambda, if present.
    std::size_t lb = std::string::npos;
    for (std::size_t i = 0; i < args.size(); ++i) {
      if (args[i] != '[') continue;
      const std::size_t prev = prev_nonspace(args, i);
      if (prev != std::string::npos &&
          (ident_char(args[prev]) || args[prev] == ')' || args[prev] == ']'))
        continue;  // subscript, not a lambda introducer
      lb = i;
      break;
    }
    if (lb != std::string::npos) {
      const std::size_t cap_close = find_matching(args, lb, '[', ']');
      if (cap_close == std::string::npos) continue;
      std::size_t p = skip_ws(args, cap_close + 1);
      std::string params;
      if (p < args.size() && args[p] == '(') {
        const std::size_t pc = find_matching(args, p, '(', ')');
        if (pc == std::string::npos) continue;
        params = args.substr(p + 1, pc - p - 1);
        p = pc + 1;
      }
      const std::size_t bb = args.find('{', p);
      if (bb == std::string::npos) continue;
      const std::size_t bc = find_matching(args, bb, '{', '}');
      if (bc == std::string::npos) continue;
      const std::string body = args.substr(bb + 1, bc - bb - 1);
      if (compares_addresses(body)) {
        findings.push_back({path, line, kPointerSort,
                            "sort comparator compares addresses (&x < &y) — "
                            "allocation order is not deterministic",
                            false, ""});
        continue;
      }
      if (params.find('*') != std::string::npos &&
          compares_params_bare(body, lambda_param_names(params))) {
        findings.push_back({path, line, kPointerSort,
                            "sort comparator orders pointer parameters by "
                            "pointer value — sort by id or value key instead",
                            false, ""});
      }
      continue;
    }

    // No lambda: a two-argument sort over a declared pointer container
    // sorts by address.
    int commas = 0, depth = 0;
    for (const char c : args) {
      if (c == '(' || c == '[' || c == '{' || c == '<') ++depth;
      else if (c == ')' || c == ']' || c == '}' || c == '>') --depth;
      else if (c == ',' && depth == 0) ++commas;
    }
    if (commas != 1) continue;
    for (const Token& at : tokenize(args)) {
      if (ptr_containers.count(at.text) != 0) {
        findings.push_back(
            {path, line, kPointerSort,
             "sorting pointer container `" + at.text +
                 "` without a value comparator orders it by address",
             false, ""});
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-accumulate
// ---------------------------------------------------------------------------

/// Variables (including members and parameters) declared `double`/`float`.
std::set<std::string> harvest_float_decls(const std::string& s,
                                          const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (const Token& t : toks) {
    if (t.text != "double" && t.text != "float") continue;
    std::size_t p = skip_ws(s, t.end);
    // Declarator list: name [= init | { init }] [, name ...] terminated by
    // `;` or `)`. A `(` right after the name means a function declaration.
    while (p < s.size()) {
      if (!ident_start(s[p])) break;
      std::size_t e = p;
      while (e < s.size() && ident_char(s[e])) ++e;
      const std::string name = s.substr(p, e - p);
      std::size_t q = skip_ws(s, e);
      if (q < s.size() && s[q] == '(') break;  // function, not a variable
      if (q < s.size() && (s[q] == '=' || s[q] == '{')) {
        // Skip the initializer to the next top-level `,` `;` or `)`.
        int depth = 0;
        if (s[q] == '{') { depth = 1; ++q; }
        else ++q;
        while (q < s.size()) {
          const char c = s[q];
          if (c == '(' || c == '[' || c == '{') ++depth;
          else if (c == ')' || c == ']' || c == '}') {
            if (depth == 0) break;
            --depth;
          } else if ((c == ',' || c == ';') && depth == 0) {
            break;
          }
          ++q;
        }
      }
      names.insert(name);
      q = skip_ws(s, q);
      if (q < s.size() && s[q] == ',') {
        p = skip_ws(s, q + 1);
        continue;
      }
      break;
    }
  }
  return names;
}

void rule_float_accumulate(const std::string& path, const std::string& s,
                           const std::string& sibling_header,
                           const std::vector<Token>& toks,
                           const LineIndex& lines,
                           std::vector<Finding>& findings) {
  // The canonical owners of summation order are exempt: they are the
  // helpers everything else is told to call.
  static const char* const kCanonical[] = {
      "src/util/stats.hpp",          "src/util/stats.cpp",
      "src/routing/loads.hpp",       "src/routing/loads.cpp",
      "src/routing/incremental_loads.hpp",
      "src/routing/incremental_loads.cpp",
      "src/metrics/metrics.hpp",
      "src/metrics/metrics.cpp"};
  for (const char* c : kCanonical)
    if (path_ends_with(path, c)) return;

  std::set<std::string> float_vars = harvest_float_decls(s, toks);
  if (!sibling_header.empty()) {
    const std::string hdr = strip_comments_and_strings(sibling_header);
    for (const std::string& n : harvest_float_decls(hdr, tokenize(hdr)))
      float_vars.insert(n);
  }
  if (float_vars.empty()) return;

  // Walk the file tracking which open brace scopes are loop bodies.
  std::vector<bool> scope_is_loop;
  bool pending_loop = false;  // just closed a for/while header (or saw do)
  int unbraced_loop = 0;      // inside an unbraced loop body statement
  int paren_depth = 0;
  std::size_t i = 0;
  while (i < s.size()) {
    const char c = s[i];
    if (ident_start(c) && (i == 0 || !ident_char(s[i - 1]))) {
      std::size_t e = i;
      while (e < s.size() && ident_char(s[e])) ++e;
      const std::string word = s.substr(i, e - i);
      if (word == "for" || word == "while") {
        const std::size_t open = skip_ws(s, e);
        if (open < s.size() && s[open] == '(') {
          const std::size_t close = find_matching(s, open, '(', ')');
          if (close != std::string::npos) {
            // The loop header itself is scanned as part of the outer
            // context; the body begins after `)`.
            i = close + 1;
            const std::size_t nb = skip_ws(s, i);
            if (nb < s.size() && s[nb] != '{') ++unbraced_loop;
            else pending_loop = true;
            continue;
          }
        }
      } else if (word == "do") {
        const std::size_t nb = skip_ws(s, e);
        if (nb < s.size() && s[nb] == '{') pending_loop = true;
        else ++unbraced_loop;
      }
      i = e;
      continue;
    }
    if (c == '{') {
      scope_is_loop.push_back(pending_loop);
      pending_loop = false;
    } else if (c == '}') {
      if (!scope_is_loop.empty()) scope_is_loop.pop_back();
    } else if (c == '(') {
      ++paren_depth;
    } else if (c == ')') {
      if (paren_depth > 0) --paren_depth;
    } else if (c == ';' && paren_depth == 0) {
      unbraced_loop = 0;
    } else if (c == '+' && i + 1 < s.size() && s[i + 1] == '=') {
      const int loop_depth =
          static_cast<int>(std::count(scope_is_loop.begin(),
                                      scope_is_loop.end(), true)) +
          unbraced_loop;
      if (loop_depth > 0) {
        // LHS identifier (skipping `obj.` / `ptr->` prefixes; `x[i] +=` and
        // `(*p) +=` have `]`/`)` before the operator and are skipped).
        std::size_t e2 = prev_nonspace(s, i);
        if (e2 != std::string::npos && ident_char(s[e2])) {
          std::size_t b = e2;
          while (b > 0 && ident_char(s[b - 1])) --b;
          const std::string lhs = s.substr(b, e2 - b + 1);
          if (float_vars.count(lhs) != 0) {
            findings.push_back(
                {path, lines.line_of(i), kFloatAccumulate,
                 "floating-point reduction `" + lhs +
                     " +=` inside a loop — use util::sum/util::mean "
                     "(src/util/stats.hpp) or annotate why this order is "
                     "canonical",
                 false, ""});
          }
        }
      }
      i += 2;
      continue;
    }
    ++i;
  }
}

// ---------------------------------------------------------------------------
// Rule: uninit-pod-digest
// ---------------------------------------------------------------------------

bool digest_adjacent(const std::string& raw, const std::string& sanitized) {
  if (raw.find("util/digest.hpp") != std::string::npos) return true;
  for (const Token& t : tokenize(sanitized))
    if (t.text.find("digest") != std::string::npos) return true;
  return false;
}

const std::set<std::string>& builtin_type_tokens() {
  static const std::set<std::string> kTypes = {
      "bool",     "char",     "wchar_t",  "char8_t",  "char16_t",
      "char32_t", "short",    "int",      "long",     "unsigned",
      "signed",   "float",    "double",   "size_t",   "ptrdiff_t",
      "int8_t",   "int16_t",  "int32_t",  "int64_t",  "uint8_t",
      "uint16_t", "uint32_t", "uint64_t", "intptr_t", "uintptr_t"};
  return kTypes;
}

void scan_struct_body(const std::string& path, const std::string& s,
                      const std::string& struct_name, std::size_t body_open,
                      std::size_t body_close, const LineIndex& lines,
                      std::vector<Finding>& findings) {
  std::size_t i = body_open + 1;
  std::size_t stmt_begin = i;
  bool stmt_has_init = false;
  while (i < body_close) {
    const char c = s[i];
    if (c == '{') {
      const std::size_t prev = prev_nonspace(s, i);
      bool initializer = prev != std::string::npos && prev > body_open &&
                         (ident_char(s[prev]) || s[prev] == '=');
      if (initializer && ident_char(s[prev])) {
        // `...) const {`, `...) noexcept {` etc. are function bodies, not
        // brace initializers, despite the identifier before `{`.
        std::size_t b = prev;
        while (b > body_open && ident_char(s[b - 1])) --b;
        const std::string word = s.substr(b, prev - b + 1);
        if (word == "const" || word == "noexcept" || word == "override" ||
            word == "final" || word == "mutable" || word == "try")
          initializer = false;
      }
      const std::size_t close = find_matching(s, i, '{', '}');
      if (close == std::string::npos || close > body_close) return;
      if (initializer) {
        stmt_has_init = true;
        i = close + 1;
      } else {
        // Function body or nested type (nested structs are found by the
        // outer token scan on their own): skip it and start a new statement.
        i = close + 1;
        stmt_begin = i;
        stmt_has_init = false;
      }
      continue;
    }
    if (c == ';') {
      std::string stmt = s.substr(stmt_begin, i - stmt_begin);
      std::size_t stmt_offset = stmt_begin;
      // Strip a leading access specifier (`public:` etc.) so the member
      // after it is still analyzed.
      for (const char* spec : {"public", "private", "protected"}) {
        const std::size_t at = stmt.find(spec);
        if (at == std::string::npos) continue;
        std::size_t colon = skip_ws(stmt, at + std::string(spec).size());
        if (colon < stmt.size() && stmt[colon] == ':' &&
            (colon + 1 >= stmt.size() || stmt[colon + 1] != ':')) {
          stmt_offset += colon + 1;
          stmt = stmt.substr(colon + 1);
        }
      }
      // Bitfield colon (a `:` that is not part of `::`)?
      bool has_bitfield_colon = false;
      for (std::size_t ci = 0; ci < stmt.size(); ++ci) {
        if (stmt[ci] != ':') continue;
        if ((ci + 1 < stmt.size() && stmt[ci + 1] == ':') ||
            (ci > 0 && stmt[ci - 1] == ':'))
          continue;
        has_bitfield_colon = true;
        break;
      }
      // A member declaration of builtin scalar type with no initializer?
      bool skip = stmt_has_init || stmt.find('=') != std::string::npos ||
                  stmt.find('(') != std::string::npos || has_bitfield_colon;
      if (!skip) {
        const std::vector<Token> ts = tokenize(stmt);
        static const std::set<std::string> kSkipWords = {
            "static", "constexpr", "using",  "typedef",
            "friend", "operator",  "return", "enum"};
        std::size_t k = 0;
        bool saw_builtin = false;
        for (; k < ts.size(); ++k) {
          const std::string& w = ts[k].text;
          if (kSkipWords.count(w) != 0) {
            saw_builtin = false;
            break;
          }
          if (w == "std" || w == "const" || w == "mutable" || w == "volatile")
            continue;
          if (builtin_type_tokens().count(w) != 0) {
            saw_builtin = true;
            continue;
          }
          break;  // first non-type token: the declarator name(s) start here
        }
        if (saw_builtin && k < ts.size()) {
          std::string members;
          for (std::size_t m = k; m < ts.size(); ++m)
            members += (members.empty() ? "" : ", ") + ts[m].text;
          findings.push_back(
              {path, lines.line_of(stmt_offset + ts[k].begin),
               kUninitPodDigest,
               "member `" + members + "` of `" +
                   (struct_name.empty() ? "(anonymous)" : struct_name) +
                   "` has builtin type but no initializer, in a "
                   "digest-adjacent file — uninitialized bits would reach "
                   "util::digest",
               false, ""});
        }
      }
      ++i;
      stmt_begin = i;
      stmt_has_init = false;
      continue;
    }
    ++i;
  }
}

void rule_uninit_pod_digest(const std::string& path, const std::string& raw,
                            const std::string& s,
                            const std::vector<Token>& toks,
                            const LineIndex& lines,
                            std::vector<Finding>& findings) {
  if (!digest_adjacent(raw, s)) return;
  for (std::size_t ti = 0; ti < toks.size(); ++ti) {
    const Token& t = toks[ti];
    if (t.text != "struct" && t.text != "class") continue;
    if (ti > 0 && toks[ti - 1].text == "enum") continue;
    std::string name;
    std::size_t p = skip_ws(s, t.end);
    if (p < s.size() && ident_start(s[p])) {
      std::size_t e = p;
      while (e < s.size() && ident_char(s[e])) ++e;
      name = s.substr(p, e - p);
      p = e;
    }
    // Find the introducing `{`; bail at `;` (forward decl) or `(`
    // (elaborated type in a parameter/return position).
    std::size_t open = std::string::npos;
    for (std::size_t i = p; i < s.size(); ++i) {
      if (s[i] == '{') {
        open = i;
        break;
      }
      if (s[i] == ';' || s[i] == '(' || s[i] == ')' || s[i] == '=') break;
    }
    if (open == std::string::npos) continue;
    const std::size_t close = find_matching(s, open, '{', '}');
    if (close == std::string::npos) continue;
    scan_struct_body(path, s, name, open, close, lines, findings);
  }
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// [0] unused; [i] = line i of the sanitized text has no code on it
/// (blank, or comment-only before stripping).
std::vector<bool> blank_lines(const std::string& sanitized) {
  std::vector<bool> blank{true};
  bool cur = true;
  for (char c : sanitized) {
    if (c == '\n') {
      blank.push_back(cur);
      cur = true;
    } else if (!std::isspace(static_cast<unsigned char>(c))) {
      cur = false;
    }
  }
  blank.push_back(cur);
  return blank;
}

void run_line_rules(const std::string& path, const std::string& raw,
                    const std::string& sibling_header,
                    std::vector<Finding>& findings) {
  const std::string s = strip_comments_and_strings(raw);
  const std::vector<Token> toks = tokenize(s);
  const LineIndex lines(s);
  rule_unordered_iteration(path, s, toks, lines, findings);
  rule_raw_entropy(path, s, toks, lines, findings);
  rule_pointer_sort(path, s, toks, lines, findings);
  rule_float_accumulate(path, s, sibling_header, toks, lines, findings);
  rule_uninit_pod_digest(path, raw, s, toks, lines, findings);
}

}  // namespace

std::vector<Finding> lint_project(const std::vector<SourceFile>& files,
                                  const ProjectOptions& opts) {
  std::vector<Finding> findings;
  std::map<std::string, std::vector<Allow>> allows;
  std::map<std::string, std::vector<bool>> blanks;
  for (const SourceFile& f : files) {
    allows[f.path] = collect_allows(f.content, f.path, findings);
    blanks[f.path] = blank_lines(strip_comments_and_strings(f.content));
    run_line_rules(f.path, f.content, f.sibling_header, findings);
  }

  if (opts.taint || opts.locks) {
    const CallGraph graph = build_call_graph(files);
    if (opts.taint) run_taint_pass(files, graph, findings);
    if (opts.locks) run_lock_pass(files, graph, findings);
  }

  // Apply suppressions: an allow() covers findings of its rule on its own
  // line or on the next code line — lines that are blank after stripping
  // (comment-only, e.g. a wrapped reason) are skipped, so a multi-line
  // annotation comment still anchors to the statement below it.
  const auto next_code_line = [](const std::vector<bool>& blank, int from) {
    int l = from + 1;
    while (l < static_cast<int>(blank.size()) && blank[l]) ++l;
    return l;
  };
  for (Finding& f : findings) {
    if (f.rule == kBadAllow) continue;
    const auto it = allows.find(f.file);
    if (it == allows.end()) continue;
    const std::vector<bool>& blank = blanks[f.file];
    for (Allow& a : it->second) {
      if (a.rule == f.rule &&
          (a.line == f.line || next_code_line(blank, a.line) == f.line)) {
        f.suppressed = true;
        f.allow_reason = a.reason;
        a.used = true;
        break;
      }
    }
  }

  // Stale-allow auditing only covers rules whose pass actually ran: a tree
  // scanned without --taint must not call the taint waivers stale.
  std::set<std::string> active = {kUnorderedIteration, kRawEntropy,
                                  kPointerSort, kFloatAccumulate,
                                  kUninitPodDigest};
  if (opts.taint) active.insert(kTaintFlow);
  if (opts.locks) {
    active.insert(kLockOrder);
    active.insert(kUnguardedWrite);
  }
  for (const auto& [path, file_allows] : allows) {
    for (const Allow& a : file_allows) {
      if (a.used || active.count(a.rule) == 0) continue;
      findings.push_back({path, a.line, kStaleAllow,
                          "allow(" + a.rule +
                              ") suppresses nothing on this line or the "
                              "next code line — delete it",
                          false, ""});
    }
  }

  std::stable_sort(findings.begin(), findings.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.rule < b.rule;
                   });
  return findings;
}

std::vector<Finding> lint_source(const std::string& path_label,
                                 const std::string& content,
                                 const std::string& sibling_header) {
  return lint_project({{path_label, content, sibling_header}},
                      ProjectOptions{});
}

}  // namespace nexit::lint
