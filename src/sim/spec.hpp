#pragma once

// The declarative scenario API. An ExperimentSpec is a flat, fully
// serializable description of one experiment run: which engine (distance,
// bandwidth, or the concurrent runtime), the universe, each side's
// objective (an OracleRegistry name, optionally behind the cheating
// decorator), the negotiation policies, the traffic/capacity/failure
// models, grouping, threading — plus, for the runtime, the session
// population and a declared timeline — plus any number of declared sweep
// axes. Specs layer:
//
//   struct defaults  ->  ScenarioPreset tune()  ->  --spec=<file>  ->  flags
//
// Each later layer only overrides the keys it mentions (every merge reads a
// key with the current value as fallback). A spec file is `key=value` lines
// (`#` comments); the keys are exactly the command-line flag names, parsed
// through the same util::Flags machinery, so malformed values and unknown
// keys die with the same exit-2 diagnostics as a typo'd flag. Every spec
// serializes back to the full key=value list — the JSON record embeds it,
// `--spec-out=<file>` archives it, and parsing that list reproduces the
// spec bit-for-bit (round-trippable).
//
// Every key is one row of a single table in spec.cpp: its name, owning
// experiment kinds, doc line, a codec bound to its ExperimentSpec field, and
// the field's bounds. The parser, the serializer, spec_key_registry() (and
// through it `nexit_run --help-spec` and docs/SPEC_REFERENCE.md) and
// validate()'s single-key range checks all read that row, so none of them
// can drift from the others.

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/oracle_registry.hpp"
#include "runtime/scenario.hpp"
#include "sim/bandwidth_experiment.hpp"
#include "sim/distance_experiment.hpp"
#include "util/flags.hpp"

namespace nexit::sim {

/// Which engine a spec drives: the §5 distance or bandwidth experiment, or
/// the concurrent negotiation runtime (src/runtime) with a declared
/// timeline.
enum class ExperimentKind { kDistance, kBandwidth, kRuntime };

/// Bitmask of experiment kinds a spec key is meaningful for. validate()
/// rejects an explicitly-set non-default key the chosen kind would silently
/// ignore, and the generated reference docs print the mask per key.
enum : unsigned {
  kForDistance = 1u << 0,
  kForBandwidth = 1u << 1,
  kForRuntime = 1u << 2,
  kForAllKinds = kForDistance | kForBandwidth | kForRuntime,
};

/// The kFor* bit of one kind.
[[nodiscard]] unsigned kind_bit(ExperimentKind kind);

/// One declared sweep axis: `sweep.<key>=v1,v2,...` or `sweep.<key>=
/// lo:hi:step` (expanded to explicit values at parse time). Multiple axes
/// form a cross product; the expansion order is canonical (axes sorted by
/// key, rightmost varying fastest), so sweep digests are deterministic.
struct SweepAxis {
  std::string key;
  std::vector<std::string> values;

  friend bool operator==(const SweepAxis&, const SweepAxis&) = default;
};

/// The `runtime.*` spec namespace: session population, transport, lifecycle
/// limits, fault injection, and the declared timeline. Only meaningful for
/// experiment=runtime (validate() enforces that, like every kind-specific
/// key).
struct RuntimeSpec {
  /// Initial sessions; 0 = one per universe pair, larger counts cycle the
  /// pairs with per-session traffic.
  std::size_t sessions = 0;
  runtime::Transport transport = runtime::Transport::kInMemory;
  /// Session i starts at tick i * stagger (start@ events override).
  std::uint64_t stagger = 1;
  /// Universe pairs need at least this many interconnections (failures need
  /// survivors).
  std::size_t min_links = 2;
  /// Pump steps before a session yields its worker (0 = run to stall).
  std::size_t burst = 0;
  std::uint64_t handshake_deadline = 64;
  std::uint64_t round_timeout = 32;
  std::size_t max_attempts = 3;
  std::uint64_t max_ticks = 1u << 20;
  double drop = 0.0;
  double corrupt = 0.0;
  /// Sessions whose transport gets the fault injection (empty = all).
  std::vector<std::uint32_t> fault_targets;
  /// The declared timeline, spelled `kind@<tick>/<session>[/<param>]`
  /// comma-separated in `runtime.events=` (`--help-spec=runtime.events`
  /// prints the grammar; runtime::EventKind documents each kind).
  std::vector<runtime::ScenarioEvent> events;
  /// Mirror session journals (snapshot + WAL frames) to this directory —
  /// CI uploads them when a crash-recovery run diverges. Empty = in-memory
  /// journaling only. Journaling itself is implied by any kill/resume
  /// event; this key never enables or disables it.
  std::string snapshot_dir;

  friend bool operator==(const RuntimeSpec&, const RuntimeSpec&) = default;
};

/// The `dist.*` spec namespace: distributed execution (src/dist). A sweep's
/// points — or a whole runtime timeline — are sharded across worker
/// processes, either spawned locally (`dist.workers=N`) or reached over TCP
/// (`dist.connect=host:port,...`). Results fold back in odometer order, so
/// the JSON record and sweep digest are byte-identical for every worker
/// count, including zero (in-process). validate() rejects dist.* on runs
/// with nothing to shard (no sweep axes, not experiment=runtime) and in
/// combination with the per-process obs artifacts (trace/timing).
struct DistSpec {
  /// Spawn-local worker processes (nexit_workerd forked beside the driver);
  /// 0 = run in-process.
  std::size_t workers = 0;
  /// Comma-separated host:port endpoints of running `nexit_workerd
  /// --listen` daemons; mutually exclusive with workers.
  std::string connect;
  /// Per-job deadline; a worker silent past it is declared dead and its job
  /// reassigned.
  std::uint64_t timeout_ms = 120000;
  /// Reassignments allowed per job (worker death/timeout) before the run
  /// fails.
  std::size_t retries = 2;
  /// Directory for spawn-local worker logs (worker<i>.log); empty =
  /// /dev/null.
  std::string log_dir;

  [[nodiscard]] bool enabled() const { return workers > 0 || !connect.empty(); }

  friend bool operator==(const DistSpec&, const DistSpec&) = default;
};

/// The `obs.*` spec namespace: the observability layer (src/obs). Both keys
/// apply to every experiment kind and default to off, so the observability
/// layer is invisible — and provably zero-overhead — unless asked for.
struct ObsSpec {
  /// Write a Chrome trace_event JSON file (Perfetto-loadable) of the run's
  /// negotiation timeline here. Logical clocks only: traces are
  /// byte-identical across --threads=N.
  std::string trace;
  /// Enable the wall-clock phase profile (digest-excluded "timing" JSON
  /// section). Off = every PhaseTimer is a single relaxed atomic load.
  bool timing = false;

  friend bool operator==(const ObsSpec&, const ObsSpec&) = default;
};

/// Everything --help-spec and the generated reference know about one key
/// (or sweep-only axis). Each key is one row of the key table in spec.cpp,
/// and that row also parses, serializes and bounds it: `default_value` is
/// the row's serialization of a default-constructed ExperimentSpec, and
/// `constraints` is printed from the choice table or `range` the parser
/// and validate() enforce — nothing here is hand-maintained twice.
struct SpecKeyInfo {
  /// Inclusive bounds of a numeric key.
  struct Range {
    double lo = 0;
    double hi = 0;
  };

  std::string key;
  std::string type;         // "choice", "count", "int", "double", "bool", ...
  std::string doc;          // one line
  std::string constraints;  // "one of {...}", "integer in [lo, hi]", or ""
  std::string default_value;
  unsigned kinds = kForAllKinds;
  std::optional<Range> range;
  /// True for virtual axes that exist only as `sweep.<key>` (a preset maps
  /// their values to config variants); they have no scalar value.
  bool sweep_only = false;
  /// For sweep-only axes: the scenario whose run function consumes them.
  std::string owner_scenario;
};

/// Every registered spec key and sweep-only axis, in canonical (serialized)
/// order. The single source for --help-spec, docs/SPEC_REFERENCE.md, and
/// the kind-applicability checks in validate().
const std::vector<SpecKeyInfo>& spec_key_registry();
const SpecKeyInfo* find_spec_key(const std::string& key);
/// "distance", "distance, bandwidth", "any", ... for a kinds mask.
[[nodiscard]] std::string kinds_label(unsigned kinds);

struct ExperimentSpec {
  // --- engine selection -----------------------------------------------
  ExperimentKind experiment = ExperimentKind::kDistance;

  // --- universe ---------------------------------------------------------
  std::size_t isps = 65;
  std::uint64_t seed = 42;
  std::size_t pairs = 120;
  std::size_t pop_min = 6;
  std::size_t pop_max = 20;

  // --- per-side objectives ---------------------------------------------
  /// "default" resolves per experiment kind (distance -> "distance",
  /// bandwidth -> "bandwidth") at config-build time; any OracleRegistry
  /// name or "cheat:<name>" is valid.
  core::OracleSpec objective[2] = {{"default", false}, {"default", false}};

  // --- negotiation policies (paper §4) ---------------------------------
  int pref_range = 10;
  core::TurnPolicy turn = core::TurnPolicy::kAlternate;
  core::ProposalPolicy proposal = core::ProposalPolicy::kMaxCombinedGain;
  core::AcceptancePolicy acceptance = core::AcceptancePolicy::kProtective;
  core::TerminationPolicy termination = core::TerminationPolicy::kEarly;
  core::TieBreak tie_break = core::TieBreak::kRandom;
  /// Reassignment quantum (paper: 0.05); only load-dependent oracles
  /// honour it, so the distance figures are unaffected by the default.
  double reassign = 0.05;
  bool rollback = true;
  bool incremental = true;
  int verify_incremental = 0;

  // --- workload / capacity / failure models ----------------------------
  traffic::WorkloadModel traffic_model = traffic::WorkloadModel::kGravity;
  bool capacity_pow2 = false;
  capacity::UnusedLinkRule capacity_unused = capacity::UnusedLinkRule::kMedian;
  std::size_t max_failures = 4;

  // --- extra series / grouping / execution ------------------------------
  bool flow_baselines = false;  // Fig. 5 flow-pair strawmen (distance)
  bool unilateral = false;      // Fig. 8 upstream-only LP series (bandwidth)
  std::size_t groups = 1;
  std::size_t threads = 1;

  // --- runtime scenario (experiment=runtime only) -----------------------
  RuntimeSpec runtime;

  // --- observability (src/obs) ------------------------------------------
  ObsSpec obs;

  // --- distributed execution (src/dist) ---------------------------------
  DistSpec dist;

  // --- declared sweep axes ----------------------------------------------
  /// Sorted by key (canonical order). run_scenario expands the cross
  /// product; presets may own an axis and iterate it inside their run
  /// function instead (abl_pref_range owns `pref-range`, ...).
  std::vector<SweepAxis> sweeps;

  /// Bookkeeping, not state: the keys an explicit source (flags or a spec
  /// file) set, as opposed to defaults and preset tunes. validate() uses it
  /// to reject a key the chosen experiment kind would silently ignore —
  /// `--unilateral=true` on a distance scenario must error like any other
  /// misconfiguration, not record itself as if it took effect. Excluded
  /// from comparison (operator== compares the serialized key set).
  std::set<std::string> overridden;

  /// Overlays every key present in `flags` onto this spec (absent keys keep
  /// their current values — the accessor fallbacks are the spec itself).
  /// Malformed values, out-of-set choices and out-of-range numbers exit 2
  /// naming the key, like util::Flags; so do malformed `sweep.<key>` axes
  /// (unknown axis key, empty value list, bad lo:hi:step range), naming the
  /// axis.
  void merge_from_flags(const util::Flags& flags);

  /// Loads a `key=value` spec file on top of this spec. Unknown keys, keys
  /// without '=', malformed values, and unreadable files exit 2 with a
  /// diagnostic naming the file — the same contract util::reject_unknown
  /// gives the command line.
  void merge_from_file(const std::string& path);

  /// The full spec as (key, value) pairs in canonical order — scalar keys
  /// first, then one `sweep.<key>` entry per declared axis; parsing these
  /// back (merge_from_flags over a kv-Flags) reproduces the spec exactly.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>>
  to_key_values() const;
  /// to_key_values() as "key=value\n" lines — a valid spec file.
  [[nodiscard]] std::string to_text() const;
  /// The serialized value of one key ("" for an unknown key).
  [[nodiscard]] std::string value_of(const std::string& key) const;

  /// The declared axis for `key` (nullptr if not swept).
  [[nodiscard]] const SweepAxis* axis(const std::string& key) const;

  /// Semantic checks beyond syntax: every numeric key, and every value of a
  /// sweep axis over one, must lie within its row's bounds (the same ones
  /// the parser enforces, so a field set directly is held to them too);
  /// oracle names must be registered (or "default"), the distance engine
  /// only takes capacity-free oracles, pop-min must not exceed pop-max,
  /// explicitly overridden keys must be meaningful for the chosen
  /// experiment kind, and a declared timeline must only reference sessions
  /// that will exist. Returns false and sets *error on failure.
  [[nodiscard]] bool validate(std::string* error) const;

  /// The objective with "default" resolved for this spec's experiment kind
  /// (runtime sessions negotiate distance, like the initial sessions do).
  [[nodiscard]] core::OracleSpec resolved_objective(int side) const;

  /// Engine configs. Each requires validate() to have passed and asserts
  /// the experiment kind matches.
  [[nodiscard]] DistanceExperimentConfig to_distance_config() const;
  [[nodiscard]] BandwidthExperimentConfig to_bandwidth_config() const;
  [[nodiscard]] runtime::ScenarioConfig to_runtime_config() const;

  /// The shared §4 negotiation-policy block of both engine configs and the
  /// runtime scenario.
  [[nodiscard]] core::NegotiationConfig to_negotiation_config() const;

  /// One-line human summary of the universe ("65 synthetic ISPs, seed 42,
  /// <= 120 pairs, PoPs 6-20") for bench headers.
  [[nodiscard]] std::string universe_summary() const;

  [[nodiscard]] UniverseConfig universe() const;

  /// Two specs are equal when they describe the same run — i.e. their
  /// serialized key=value lists match; the `overridden` bookkeeping does
  /// not participate (a parsed spec has every key marked, its source may
  /// have none).
  friend bool operator==(const ExperimentSpec& a, const ExperimentSpec& b) {
    return a.to_key_values() == b.to_key_values();
  }
};

[[nodiscard]] std::string to_string(ExperimentKind kind);

/// The cross product of `axes` as per-point override lists, canonical
/// order: axes as stored (sorted by key), rightmost axis varying fastest —
/// the nested-loop order of `for v0 in axes[0]: ... for vN in axes[N]`.
/// Deterministic, so per-point digests mix into a stable sweep digest.
[[nodiscard]] std::vector<std::vector<std::pair<std::string, std::string>>>
expand_sweep(const std::vector<SweepAxis>& axes);

}  // namespace nexit::sim
