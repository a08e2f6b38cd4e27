#pragma once

// Rule engine of the determinism lint (tools/lint/determinism_lint).
//
// The repo's correctness story is "bit-identical outcomes": across
// --threads=N, across incremental vs. full oracle evaluation, and across
// spec-archive reloads. The tests pin that contract by example; this lint
// defends it by pattern, flagging the constructs that historically break
// bit-identity long before a digest mismatch shows up:
//
//   unordered-iteration   iterating an unordered container into an
//                         accumulator, digest, or output stream
//   raw-entropy           rand()/std::random_device/time()/system_clock/
//                         steady_clock/std::shuffle outside util::Rng /
//                         runtime::Clock / obs::WallClock
//   pointer-sort          sort comparators that order by address
//   float-accumulate      ad-hoc floating-point `+=` reductions in loops
//                         (summation order belongs to the canonical helpers)
//   uninit-pod-digest     uninitialized builtin members in structs defined
//                         in digest-adjacent files (padding/garbage bits
//                         would reach the FNV digests)
//
// On top of the line-local rules, lint_project() runs cross-TU passes over
// a whole-program call graph (lint_graph.hpp):
//
//   taint-flow            a nondeterminism source value (wall clock, raw
//                         entropy, pointer-to-int cast, thread id,
//                         unordered iteration order) flows — possibly
//                         through function return values across TUs —
//                         into a digest/metric/output sink; anchored and
//                         waivable ONLY at the source line
//   lock-order            two functions acquire the same pair of mutexes
//                         in opposite orders (ABBA deadlock shape)
//   unguarded-write       write to shared state inside a ThreadPool worker
//                         lambda with no lock/atomic in scope
//
// Findings are suppressible only by an inline annotation on the same line
// or directly above the flagged statement (comment-only lines in between —
// a wrapped reason — are skipped):
//
//   // nexit-lint: allow(<rule>): <reason>
//
// The reason is mandatory, unknown rule names are themselves findings
// (bad-allow), and annotations that no longer suppress anything are too
// (stale-allow) — so suppressions cannot rot silently.
//
// The scanner is heuristic (token-level, not a C++ parser): it strips
// comments and string literals, then pattern-matches the sanitized text.
// Known blind spots are documented next to each rule in lint_core.cpp; the
// fixture suite under tools/lint/fixtures/ pins exactly what each rule does
// and does not catch.

#include <string>
#include <vector>

namespace nexit::lint {

struct Rule {
  std::string name;       // stable id, used in allow() annotations
  std::string summary;    // one line: what the rule flags
  std::string rationale;  // why that is a determinism hazard in this repo
};

/// The five line-local hazard rules, the four cross-TU pass rules, then
/// the two annotation meta-rules (bad-allow, stale-allow). Order is the
/// presentation order of --list-rules and of the generated docs table.
const std::vector<Rule>& rule_table();

bool known_rule(const std::string& name);

struct Finding {
  std::string file;          // path label as given to lint_source
  int line = 0;              // 1-based
  std::string rule;
  std::string message;
  bool suppressed = false;   // an allow() annotation covers it
  std::string allow_reason;  // the annotation's reason when suppressed
};

/// Lint one source file. `path_label` is echoed into findings and decides
/// the canonical-helper exemptions (e.g. src/util/rng.cpp may use raw
/// entropy; src/util/stats.cpp IS the canonical summation order).
/// `sibling_header` is the text of the matching .hpp when linting a .cpp,
/// so member declarations inform the float-accumulate scan.
/// Returned findings are sorted by (line, rule) and include suppressed
/// ones, flagged as such.
std::vector<Finding> lint_source(const std::string& path_label,
                                 const std::string& content,
                                 const std::string& sibling_header = "");

/// One file of a project-level lint run.
struct SourceFile {
  std::string path;            // repo-relative label, echoed into findings
  std::string content;         // raw text
  std::string sibling_header;  // matching .hpp text when path is a .cpp
};

/// Which cross-TU passes lint_project runs on top of the line-local
/// rules. An allow() for a pass rule is only audited for staleness when
/// that pass actually ran — a tree scanned without --taint must not call
/// the taint waivers stale.
struct ProjectOptions {
  bool taint = false;
  bool locks = false;
};

/// Lint a whole project: line-local rules per file, then the enabled
/// cross-TU passes over the shared call graph, then one unified
/// allow()/stale-allow application. Findings are sorted by
/// (file, line, rule).
std::vector<Finding> lint_project(const std::vector<SourceFile>& files,
                                  const ProjectOptions& opts);

/// Comments and the bodies of string/char literals blanked with spaces;
/// newlines and overall layout preserved (so byte offsets map to the same
/// lines). Exposed for the fixture tests.
std::string strip_comments_and_strings(const std::string& text);

}  // namespace nexit::lint
