#pragma once

// The cross-TU passes of the determinism lint, each built on the call
// graph of lint_graph.hpp. Called from lint_project() in lint_core.cpp;
// findings they append flow through the same allow()/stale-allow machinery
// as the line-local rules.

#include <string>
#include <vector>

#include "lint_core.hpp"
#include "lint_graph.hpp"

namespace nexit::lint {

/// Pass 2: determinism-taint propagation. Sources (obs::WallClock reads,
/// raw entropy, pointer-to-integer casts, std::this_thread::get_id,
/// unordered-container iteration order) propagate through local variables,
/// return values, and call edges; a finding fires when a tainted value
/// reaches a digest/metric/output sink, anchored at the SOURCE line (the
/// only place an allow(taint-flow) can waive it) and reporting the full
/// source -> ... -> sink call chain in the message.
void run_taint_pass(const std::vector<SourceFile>& files,
                    const CallGraph& graph, std::vector<Finding>& findings);

/// Pass 3: lock discipline. Per-function mutex-acquisition order is
/// recorded; a pair of mutexes acquired in opposite orders by two
/// functions is flagged in both (lock-order). Writes to captured/shared
/// state inside ThreadPool worker lambdas (submit / parallel_for) with no
/// lock or atomic in scope are flagged too (unguarded-write); writes to
/// locals declared inside the lambda and index-addressed slot writes
/// (`out[i] = ...`, the sanctioned sharding pattern) are exempt.
void run_lock_pass(const std::vector<SourceFile>& files,
                   const CallGraph& graph, std::vector<Finding>& findings);

}  // namespace nexit::lint
