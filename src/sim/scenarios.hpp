#pragma once

// The scenario-preset registry and the shared parse/run/report pipeline
// behind the `nexit_run` driver. A ScenarioPreset is a named spec transform
// (its per-figure defaults) plus the analysis that turns engine samples
// into the printed figure, the paper checks, and the JSON record.
// `nexit_run --scenario=<name>` runs one; tests/golden pins each preset's
// outcome digest and JSON record.
//
// Sweeps: a spec may declare axes (`sweep.<key>=...`). Axes a preset owns
// (ScenarioPreset::own_axes — the ablation sweeps the paper hard-coded) are
// iterated inside its run function so its single-table output stays
// byte-identical; every other axis is expanded here as a cross product,
// each point running the preset's full pipeline with a per-point JSON
// section and a per-point digest folded into one sweep digest.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "runtime/scenario.hpp"
#include "sim/spec.hpp"
#include "util/digest.hpp"
#include "util/json_report.hpp"

namespace nexit::sim {

/// What a preset's run function gets: the fully merged+validated spec, the
/// JSON record (spec section already filled), and the outcome digest it
/// should fold its deterministic sample data into (helpers below). The
/// pipeline prints the digest and writes the record after run returns.
struct ScenarioContext {
  const ExperimentSpec& spec;
  util::JsonReport& record;
  std::uint64_t digest = util::kFnvOffsetBasis;
  /// Destination for the --trace timeline (null = tracing off). Owned by
  /// run_scenario; shared across sweep points so one file holds the whole
  /// sweep (tracks keep incrementing).
  obs::Trace* trace = nullptr;

  void mix(std::uint64_t v) { digest = util::fnv1a_mix(digest, v); }
  void mix_double(double v) { mix(util::double_bits(v)); }
  void mix(const std::vector<DistanceSample>& samples);
  void mix(const std::vector<BandwidthSample>& samples);

  /// The declared values of a preset-owned axis (tune() installs the
  /// paper's defaults; `--sweep.<key>=...` overrides them). Empty when the
  /// axis is undeclared.
  [[nodiscard]] std::vector<std::string> axis_values(
      const std::string& key) const;
  /// This point's spec: the base spec with one owned-axis value applied
  /// through the normal key parser and re-validated. Exits 2 naming the
  /// axis on a malformed or invalid value (run_scenario pre-validates, so
  /// a run function normally never trips this).
  [[nodiscard]] ExperimentSpec spec_with(const std::string& key,
                                         const std::string& value) const;
};

struct ScenarioPreset {
  const char* name = nullptr;         // "fig9", "abl_models", "custom", ...
  const char* description = nullptr;  // one line for --list-scenarios
  /// Figure-specific spec defaults, applied before --spec/flag overrides.
  void (*tune)(ExperimentSpec&);
  /// Runs the engines and reports; returns the process exit code.
  int (*run)(ScenarioContext&);
  /// Spec keys this preset's run function controls itself (sweep axes, the
  /// fixed worked-example parameters): "" = none, a comma-separated list,
  /// or "!k1,k2" = every key EXCEPT the listed ones. An explicit override
  /// of an ignored key to a value other than the preset's own exits 2: a
  /// knob that silently vanishes is the misconfiguration mode this API
  /// must not allow.
  const char* ignored_keys = "";
  /// Comma-separated axes the run function iterates itself (via
  /// axis_values) instead of the generic cross-product expansion:
  /// `pref-range` for abl_pref_range, the virtual `model`/`policy` variant
  /// axes for abl_models/abl_policies. tune() declares their default
  /// values; `--sweep.<axis>=...` re-declares them.
  const char* own_axes = "";
};

/// All registered presets: fig4..fig11 (plus the fig4_sweep/fig7_sweep
/// multi-point variants), table3, the abl_* ablations, the runtime
/// scenarios, and "custom" (a generic runner for arbitrary composed specs).
const std::vector<ScenarioPreset>& scenario_registry();
const ScenarioPreset* find_scenario(const std::string& name);
std::vector<std::string> scenario_names();

/// `--list-scenarios` bodies: a human table, or name/description TSV for
/// scripts (the README catalog generator iterates the tsv form).
void print_scenario_list(std::ostream& os);
void print_scenario_tsv(std::ostream& os);

/// The shared pipeline: preset defaults -> optional --spec file -> flag
/// overrides -> reject_unknown -> validate -> lock/axis checks -> optional
/// --spec-out archive -> record spec -> run (expanding non-owned sweep
/// axes, in-process or sharded across dist.* workers) -> digest print +
/// JSON write. The record's `binary` field is the preset name.
int run_scenario(const ScenarioPreset& preset, const util::Flags& flags);

/// What one executed point produced: the run function's exit code, the
/// outcome digest, and the obs::Registry work-counter snapshot.
struct PointOutcome {
  int rc = 0;
  std::uint64_t digest = 0;
  obs::Snapshot obs;
};

/// Runs one fully merged+validated spec through `preset`'s run function
/// with the obs counters reset first: metric entries land in `record`'s
/// active sink, the snapshot is taken after the run. This is the unit of
/// work both the in-process sweep loop and the nexit_workerd job loop
/// execute — sharing it is what makes a distributed record byte-identical
/// to the in-process one.
PointOutcome run_point(const ScenarioPreset& preset,
                       const ExperimentSpec& point, util::JsonReport& record,
                       obs::Trace* trace);

/// Emits a snapshot as JSON "obs" entries (counters, then histogram
/// count/sum/non-empty buckets) into `record`'s active obs sink — the one
/// serialization of an obs section, whether the snapshot was taken in this
/// process or shipped from a worker.
void record_obs_section(util::JsonReport& record, const obs::Snapshot& snap);

/// FNV digests over the deterministic per-sample fields; equal digests
/// across --threads / --incremental / worker counts demonstrate
/// bit-identical experiments.
std::uint64_t digest_samples(const std::vector<DistanceSample>& samples);
std::uint64_t digest_samples(const std::vector<BandwidthSample>& samples);

}  // namespace nexit::sim
