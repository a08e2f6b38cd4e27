#pragma once

// Machine-readable run records: the one JSON emitter, shared by the
// scenario driver, the runtime/micro benches, and the tests.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "util/flags.hpp"
#include "util/stats.hpp"

namespace nexit::util {

/// Machine-readable run record for perf trajectories: a binary that is
/// handed `--json=<path>` writes `{binary, spec: {...}, config: {...},
/// metrics: {...}}` there, so successive runs (BENCH_*.json) can be diffed
/// and plotted across PRs. The `spec` section is the serialized
/// sim::ExperimentSpec (round-trippable key=value strings) and is omitted
/// when empty; `config` holds ad-hoc knobs of non-scenario benches.
///
/// Two optional sections carry observability data: `obs` (deterministic
/// counters/histograms off the obs::Registry — thread-count independent,
/// fair game for byte-comparisons) and `timing` (wall-clock phase profile —
/// run-dependent, never digested). Sweep points get their own `obs`
/// sub-section next to their metrics.
///
/// Every section rejects duplicate keys: recording the same key twice in
/// one section is a bug in the caller (the record would silently shadow a
/// value), so it aborts with exit 2 naming the key and section.
///
/// Construct it right after parsing (the Flags constructor reads --json,
/// keeping reject_unknown happy), record entries as they are computed, and
/// call write() last. Everything is a no-op without a path.
class JsonReport {
 public:
  JsonReport(const Flags& flags, std::string binary_name);
  /// Direct-path form for tests and programmatic callers (no --json flag).
  JsonReport(std::string path, std::string binary_name);

  /// One serialized spec key=value pair; values are recorded verbatim as
  /// JSON strings so the record parses back into the exact same spec.
  void spec_entry(const std::string& key, const std::string& value);

  void config(const std::string& key, const std::string& value);
  void config(const std::string& key, std::int64_t value);
  void config(const std::string& key, double value);

  void metric(const std::string& name, double value);
  void metric(const std::string& name, std::int64_t value);
  void metric(const std::string& name, const std::string& value);
  /// Nine-point summary of a CDF under
  /// "<name>.{n,min,p5,p25,p50,p75,p90,p99,max}".
  void metric_cdf(const std::string& name, const Cdf& cdf);

  /// One deterministic observability entry ("obs" section; lands in the
  /// active point's obs sub-section during a sweep).
  void obs_entry(const std::string& name, std::int64_t value);

  /// Splices an entry whose value is ALREADY serialized JSON (produced by
  /// this class's own formatters in another process). The distributed
  /// coordinator replays worker-shipped metric entries through this —
  /// verbatim value strings are what make a distributed record
  /// byte-identical to the in-process one. Same duplicate-key abort as
  /// every other entry path.
  void metric_serialized(const std::string& name, std::string value);

  /// The serialized (key, value) entries of the current metrics sink, in
  /// record order — what a dist worker ships to the coordinator.
  [[nodiscard]] const std::vector<std::pair<std::string, std::string>>&
  metric_entries() const {
    return in_point_ ? points_.back().metrics : metrics_;
  }

  /// One wall-clock profile entry (top-level "timing" section; never
  /// point-scoped — timing is reported once per run).
  void timing_entry(const std::string& name, std::int64_t value);
  void timing_entry(const std::string& name, double value);

  /// Sweep support: after begin_point(), metric*() calls land in a per-
  /// point section of a top-level "points" array (`{"point": <label>,
  /// "metrics": {...}}`) instead of the shared metrics map, until
  /// end_points() returns routing to the top level. One record therefore
  /// aggregates a whole sweep: shared spec + config, one metrics section
  /// per expanded point, and the overall digest on top.
  void begin_point(const std::string& label);
  void end_points();

  /// Writes the file if a path was given; exits 2 on I/O failure (a
  /// requested-but-unwritable record should not fail silently).
  void write() const;

 private:
  using Entries = std::vector<std::pair<std::string, std::string>>;

  struct Point {
    std::string label;
    Entries metrics;
    Entries obs;
  };

  /// Appends to `entries`, aborting (exit 2) when `key` is already present
  /// in that section.
  static void insert(Entries& entries, const char* section,
                     const std::string& key, std::string value);

  /// The entry list metric*() currently appends to: the active point's, or
  /// the top-level metrics map.
  Entries& sink() { return in_point_ ? points_.back().metrics : metrics_; }
  /// Same routing for obs entries.
  Entries& obs_sink() { return in_point_ ? points_.back().obs : obs_; }

  std::string path_;
  std::string binary_;
  Entries spec_;
  Entries config_;
  Entries metrics_;
  Entries obs_;
  Entries timing_;
  std::vector<Point> points_;
  bool in_point_ = false;
};

}  // namespace nexit::util
