#pragma once

// The scenario-preset registry and the shared parse/run/report pipeline
// behind the `nexit_run` driver. A ScenarioPreset is one data row: its
// spec defaults as `key=value` text, its input rules (locked keys, the one
// axis it owns, whether it owns the cheat: axis), and the analysis rows
// that turn engine samples into the printed figure, the paper claims and
// the JSON record. One generic runner executes every row; only table3,
// abl_destination_based and the runtime timelines keep a run function.
// `nexit_run --scenario=<name>` runs one; tests/golden pins each preset's
// outcome digest and JSON record and fails on a missed paper claim.
//
// Sweeps: a spec may declare axes (`sweep.<key>=...`). The axis a preset
// owns (ScenarioPreset::axis, the ablation sweeps the paper hard-coded)
// becomes the rows of its single table; every other axis is expanded here
// as a cross product, each point running the preset's full pipeline with a
// per-point JSON section and a per-point digest folded into one sweep
// digest.

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

/// What a run gets: the fully merged+validated spec, the JSON record (spec
/// section already filled), and the outcome digest it folds its
/// deterministic sample data into. The pipeline prints the digest and
/// writes the record after the run returns.
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
};

/// The analysis rows of one experiment kind (scenarios.cpp): what to
/// collect from each sample, which figures to print, which paper claims to
/// check and what to record.
template <typename Sample>
struct Rows;

struct ScenarioPreset {
  const char* name = nullptr;         // "fig9", "abl_models", "custom", ...
  const char* description = nullptr;  // one line for --list-scenarios
  /// Figure-specific spec defaults as space-separated `key=value` words,
  /// parsed by the spec's own key rows before --spec/flag overrides.
  const char* defaults = "";
  /// Keys the preset fixes: an explicit override to a value other than
  /// the preset's own exits 2, because a knob that silently vanishes is
  /// the misconfiguration this API must not allow. (Re-stating the
  /// preset's value is harmless, so serialized specs reload cleanly.)
  std::vector<std::string> locked{};
  /// When non-empty, the only keys the preset reads: every other key is
  /// locked (table3 reads just `seed`).
  std::vector<std::string> reads_only{};
  /// The one axis the preset iterates itself as the rows of its table
  /// (`groups`, `pref-range`, or a sweep-only variant axis whose values
  /// come from its spec key row). nullptr = none.
  const char* axis = nullptr;
  /// The preset compares a both-truthful arm with a one-cheater arm (side
  /// A cheats), so an explicit cheat: objective cannot mean anything.
  bool owns_cheat = false;
  /// The analysis for experiment=distance / experiment=bandwidth specs.
  const Rows<DistanceSample>* distance = nullptr;
  const Rows<BandwidthSample>* bandwidth = nullptr;
  /// Runs every spec the rows above do not cover; returns the exit code.
  int (*run)(ScenarioContext&) = nullptr;
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

/// The preset's defaults row parsed into a spec (with its owned variant
/// axis declared at the axis row's default values).
ExperimentSpec preset_spec(const ScenarioPreset& preset);

/// The shared pipeline: preset defaults -> optional --spec file -> flag
/// overrides -> reject_unknown -> validate -> input rules -> optional
/// --spec-out archive -> record spec -> run (expanding non-owned sweep
/// axes, in-process or sharded across dist.* workers) -> digest print +
/// JSON write. The record's `binary` field is the preset name.
int run_scenario(const ScenarioPreset& preset, const util::Flags& flags);

/// What one executed point produced: the exit code (with the broken input
/// rule on rc 2 before anything ran), the outcome digest, and the
/// obs::Registry work-counter snapshot.
struct PointOutcome {
  int rc = 0;
  std::string error;
  std::uint64_t digest = 0;
  obs::Snapshot obs;
};

/// Runs one fully merged+validated spec through `preset` with the obs
/// counters reset first: metric entries land in `record`'s active sink,
/// the snapshot is taken after the run. A point carries no axis but the
/// preset's own and must pass the preset's input rules, else rc 2. This
/// is the unit of work both the in-process sweep loop and the
/// nexit_workerd job loop execute — sharing it is what makes a
/// distributed record byte-identical to the in-process one and holds a
/// worker to the same rules as nexit_run.
PointOutcome run_point(const ScenarioPreset& preset,
                       const ExperimentSpec& point, util::JsonReport& record,
                       obs::Trace* trace);

/// FNV digests over the deterministic per-sample fields; equal digests
/// across --threads / --incremental / worker counts demonstrate
/// bit-identical experiments.
std::uint64_t digest_samples(const std::vector<DistanceSample>& samples);
std::uint64_t digest_samples(const std::vector<BandwidthSample>& samples);

}  // namespace nexit::sim
