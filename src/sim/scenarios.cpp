#include "sim/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <sstream>
#include <type_traits>

#include "core/engine.hpp"
#include "dist/coordinator.hpp"
#include "core/problem.hpp"
#include "geo/coord.hpp"
#include "graph/graph.hpp"
#include "obs/registry.hpp"
#include "obs/wall_clock.hpp"
#include "routing/pair_routing.hpp"
#include "topology/isp_topology.hpp"
#include "traffic/traffic.hpp"
#include "util/stats.hpp"

namespace nexit::sim {

namespace {

/// One trace track per engine sample: each recorded round becomes a
/// one-tick 'X' span on the round-index logical clock, closed by a "settle"
/// instant. Logical clocks only — the emitted events are byte-identical for
/// every --threads value, which is what lets CI diff traces like digests.
void emit_round_track(obs::Trace* trace, const std::string& track_name,
                      const std::vector<core::RoundTrace>& rounds,
                      std::size_t flows_moved) {
  if (trace == nullptr) return;
  const int track = trace->new_track(track_name);
  std::uint64_t ts = 0;
  std::int64_t accepted = 0;
  for (const core::RoundTrace& r : rounds) {
    accepted += r.accepted ? 1 : 0;
    obs::Trace::Args args;
    args.add("round", static_cast<std::int64_t>(r.round))
        .add("proposer", static_cast<std::int64_t>(r.proposer))
        .add("flow", static_cast<std::int64_t>(r.flow.value()))
        .add("ix", static_cast<std::int64_t>(r.interconnection))
        .add("pref_a", static_cast<std::int64_t>(r.pref_a))
        .add("pref_b", static_cast<std::int64_t>(r.pref_b))
        .add_bool("reassigned", r.reassigned_after);
    trace->complete(track, ts, 1, r.accepted ? "accept" : "reject", "engine",
                    std::move(args));
    ++ts;
  }
  obs::Trace::Args settle;
  settle.add("rounds", static_cast<std::int64_t>(rounds.size()))
      .add("accepted", accepted)
      .add("flows_moved", static_cast<std::int64_t>(flows_moved));
  trace->instant(track, ts, "settle", "engine", std::move(settle));
}

}  // namespace

void ScenarioContext::mix(const std::vector<DistanceSample>& samples) {
  digest = util::fnv1a_mix(digest, digest_samples(samples));
  if (trace != nullptr) {
    for (const DistanceSample& s : samples)
      emit_round_track(trace, s.pair_label, s.rounds, s.flows_moved);
  }
}
void ScenarioContext::mix(const std::vector<BandwidthSample>& samples) {
  digest = util::fnv1a_mix(digest, digest_samples(samples));
  if (trace != nullptr) {
    for (const BandwidthSample& s : samples)
      emit_round_track(trace,
                       s.pair_label + " fail@" + std::to_string(s.failed_ix),
                       s.rounds, s.flows_moved);
  }
}

void ScenarioContext::mix(const std::vector<DestinationSample>& samples) {
  for (const DestinationSample& s : samples) {
    mix_double(s.sd_gain);
    mix_double(s.db_gain);
    for (double side : s.db_side_gain) mix_double(side);
  }
  if (trace != nullptr) {
    for (const DestinationSample& s : samples) {
      emit_round_track(trace, s.pair_label + " source-dest",
                       s.source_dest.rounds, s.source_dest.flows_moved);
      emit_round_track(trace, s.pair_label + " destination-based",
                       s.destination_based.rounds,
                       s.destination_based.flows_moved);
    }
  }
}

std::uint64_t digest_samples(const std::vector<DistanceSample>& samples) {
  using util::double_bits;
  using util::fnv1a_mix;
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const DistanceSample& s : samples) {
    h = fnv1a_mix(h, s.interconnections);
    h = fnv1a_mix(h, s.flow_count);
    h = fnv1a_mix(h, s.flows_moved);
    h = fnv1a_mix(h, double_bits(s.default_km));
    h = fnv1a_mix(h, double_bits(s.optimal_km));
    h = fnv1a_mix(h, double_bits(s.negotiated_km));
    h = fnv1a_mix(h, double_bits(s.pareto_km));
    h = fnv1a_mix(h, double_bits(s.bothbetter_km));
    for (int side = 0; side < 2; ++side) {
      h = fnv1a_mix(h, double_bits(s.default_side_km[side]));
      h = fnv1a_mix(h, double_bits(s.optimal_side_km[side]));
      h = fnv1a_mix(h, double_bits(s.negotiated_side_km[side]));
    }
    for (double g : s.flow_gain_pct_negotiated) h = fnv1a_mix(h, double_bits(g));
  }
  return h;
}

std::uint64_t digest_samples(const std::vector<BandwidthSample>& samples) {
  using util::double_bits;
  using util::fnv1a_mix;
  // Deliberately excludes the eval_* telemetry: those count how the work
  // was done, not what the answer was, so the digest stays equal across
  // --incremental on/off (the A/B contract CI checks).
  std::uint64_t h = util::kFnvOffsetBasis;
  for (const BandwidthSample& s : samples) {
    h = fnv1a_mix(h, s.failed_ix);
    h = fnv1a_mix(h, s.affected_flows);
    h = fnv1a_mix(h, s.flows_moved);
    h = fnv1a_mix(h, double_bits(s.affected_volume_fraction));
    for (int side = 0; side < 2; ++side) {
      h = fnv1a_mix(h, double_bits(s.mel_default[side]));
      h = fnv1a_mix(h, double_bits(s.mel_negotiated[side]));
      h = fnv1a_mix(h, double_bits(s.mel_optimal[side]));
      h = fnv1a_mix(h, double_bits(s.mel_unilateral[side]));
    }
    h = fnv1a_mix(h, double_bits(s.downstream_distance_gain_pct));
  }
  return h;
}

namespace {

using Clock = obs::WallClock;

/// A run that produced nothing must not print NaN percentages, emit an
/// all-zero "everything is fine" digest, and exit 0 — scripts consuming the
/// digest or the JSON record would read a no-op as success.
int no_samples() {
  std::cerr << "error: the universe yielded no usable samples — grow "
               "--isps/--pairs (or loosen the failure model)\n";
  return 1;
}

void print_bench_header(const std::string& figure_id, const std::string& title,
                        const std::string& config_summary) {
  std::cout << "\n==============================================================\n"
            << figure_id << ": " << title << "\n"
            << "config: " << config_summary << "\n"
            << "==============================================================\n";
}

/// One paper claim: the claim, the measured value, and whether the shape
/// holds.
void paper_check(const std::string& claim, const std::string& measured,
                 bool holds) {
  std::cout << (holds ? "[OK]   " : "[MISS] ") << claim << "\n"
            << "       measured: " << measured << "\n";
}

// ------------------------------------------------------------------------
// The rows every figure, ablation table and paper claim is made of
// ------------------------------------------------------------------------

template <typename S>
struct Measured;

/// A series row (its record name, its label in the figures and how each
/// sample adds values to it; printed as a CDF column, recorded through
/// metric_cdf) or a scalar metric row (`put` records it from the run).
template <typename S>
struct Column {
  const char* name = nullptr;
  const char* label = nullptr;
  /// Appends one sample's values; `c` is the same pair's sample of the
  /// one-cheater arm (`s` itself on a one-arm run).
  void (*add)(std::vector<double>& out, const S& s, const S& c) = nullptr;
  void (*put)(util::JsonReport& record, const Measured<S>& m) = nullptr;
  /// Collect the series only for specs this holds for (null: always).
  bool (*when)(const ExperimentSpec& spec) = nullptr;
};

/// What one run measured: each arm's samples and, per series, its values
/// in sample order and their CDF.
template <typename S>
struct Measured {
  std::vector<S> samples;   // the (both-truthful) arm
  std::vector<S> cheating;  // the one-cheater arm of an arm pair
  bool arm_pair = false;
  double wall_ms = 0.0;
  std::map<std::string, std::vector<double>> values;
  std::map<std::string, util::Cdf> cdfs;

  /// Samples paired across both arms (every sample on a one-arm run).
  std::size_t pairs() const {
    return arm_pair ? std::min(samples.size(), cheating.size())
                    : samples.size();
  }
  const util::Cdf& cdf(const Column<S>& c) const { return cdfs.at(c.name); }
  double median(const Column<S>& c) const { return cdf(c).value_at(0.5); }
  double mean(const Column<S>& c) const {
    return util::mean(values.at(c.name));
  }
  std::size_t count(const Column<S>& c, bool (*pred)(double)) const {
    const std::vector<double>& v = values.at(c.name);
    return static_cast<std::size_t>(std::count_if(v.begin(), v.end(), pred));
  }
};

/// One printed CDF figure: id, title, x label and its series. A figure
/// none of whose series was collected is skipped.
template <typename S>
struct Figure {
  const char* id = nullptr;
  const char* title = nullptr;
  const char* x_label = nullptr;
  std::vector<const Column<S>*> series;
};

/// One paper claim as checked: the paper's claim, what this run measured
/// and whether the shape holds. Printed as [OK]/[MISS] after the figures.
struct Claim {
  std::string text;
  std::string measured;
  bool holds = false;
};
using Claims = std::vector<Claim>;

/// An owned-axis table: what each axis value measured, in axis order.
template <typename S>
using Table = std::vector<std::pair<std::string, Measured<S>>>;

/// The row of `value` (the last one if the axis repeats it), or null.
template <typename S>
const Measured<S>* row_of(const Table<S>& table, const std::string& value) {
  for (auto it = table.rbegin(); it != table.rend(); ++it)
    if (it->first == value) return &it->second;
  return nullptr;
}

}  // namespace

/// One preset's analysis of one experiment kind. A one-arm or arm-pair run
/// prints the samples line, the figures, an optional table, the claims and
/// a note, then records `columns` in order. A preset that owns an axis
/// prints a `row` per axis value instead, then checks and records the
/// table.
template <typename S>
struct Rows {
  const char* figure = nullptr;  // the header: "Figure 4", ...
  const char* title = nullptr;
  bool title_objectives = false;  // append ", A=<oracle>, B=<oracle>"
  /// The "samples: <n> <unit>[ (x2 runs)]<detail>" line (null: none).
  const char* unit = nullptr;
  std::string (*detail)(const Measured<S>&) = nullptr;
  std::vector<Column<S>> columns{};  // recorded in this order
  std::vector<Column<S>> hidden{};   // series the record leaves out
  std::vector<Figure<S>> figures{};
  void (*table)(const Measured<S>&) = nullptr;  // printed after the figures
  Claims (*claims)(const Measured<S>&) = nullptr;
  std::string (*note)(const Measured<S>&) = nullptr;  // after the claims

  const char* heading = nullptr;  // the owned-axis table's column header
  void (*row)(const std::string& label, const Measured<S>&) = nullptr;
  /// Records the table's metrics and returns its claims.
  Claims (*check_table)(util::JsonReport&, const Table<S>&) = nullptr;
};

namespace {

// ------------------------------------------------------------------------
// The generic runner
// ------------------------------------------------------------------------

/// Runs `spec` and, for an arm pair, its twin whose side A cheats.
template <typename S>
Measured<S> measure(const ExperimentSpec& spec, bool arm_pair) {
  const auto run = [](const ExperimentSpec& s) {
    if constexpr (std::is_same_v<S, DistanceSample>) {
      return run_distance_experiment(s);
    } else {
      return run_bandwidth_experiment(s);
    }
  };
  Measured<S> m;
  m.arm_pair = arm_pair;
  const auto t0 = Clock::now();
  m.samples = run(spec);
  if (arm_pair) {
    ExperimentSpec cheating = spec;
    cheating.objective[0].cheat = true;
    m.cheating = run(cheating);
  }
  m.wall_ms = Clock::ms_since(t0);
  return m;
}

template <typename S>
void collect(Measured<S>& m, const std::vector<Column<S>>& columns,
             const ExperimentSpec& spec) {
  for (const Column<S>& c : columns) {
    if (c.add == nullptr || (c.when != nullptr && !c.when(spec))) continue;
    std::vector<double>& out = m.values[c.name];
    for (std::size_t i = 0; i < m.pairs(); ++i)
      c.add(out, m.samples[i], m.arm_pair ? m.cheating[i] : m.samples[i]);
    m.cdfs.emplace(c.name, util::Cdf(out));
  }
}

/// Prints the figure, one row per CDF percentile and one column per
/// collected series; false when a series it prints is empty.
template <typename S>
bool print_figure(const Figure<S>& f, const Measured<S>& m) {
  std::vector<std::string> labels;
  std::vector<const util::Cdf*> cdfs;
  for (const Column<S>* column : f.series) {
    if (m.cdfs.count(column->name) == 0) continue;
    labels.emplace_back(column->label);
    cdfs.push_back(&m.cdf(*column));
  }
  if (cdfs.empty()) return true;
  std::cout << "\n--- " << f.id << ": " << f.title << " ---\n"
            << "x = " << f.x_label << "; rows are CDF percentiles";
  if (!cdfs[0]->empty()) std::cout << " (n = " << cdfs[0]->size() << ")";
  std::cout << "\n"
            << util::format_cdf_table(labels, cdfs,
                                      {5, 10, 20, 25, 30, 40, 50, 60, 70, 75,
                                       80, 90, 95, 99});
  return std::none_of(cdfs.begin(), cdfs.end(),
                      [](const util::Cdf* c) { return c->empty(); });
}

/// Prints the claims after one blank line (none: nothing).
void print_claims(const Claims& claims) {
  if (!claims.empty()) std::cout << "\n";
  for (const Claim& c : claims) paper_check(c.text, c.measured, c.holds);
}

using Overrides = std::vector<std::pair<std::string, std::string>>;
std::optional<ExperimentSpec> spec_at_point(const ExperimentSpec& base,
                                            const char* keep,
                                            const Overrides& overrides);

/// One table row per value of the preset's own axis. Every point is built
/// and validated before any engine runs, so a bad value at the end of the
/// axis fails up front. A variant's row is labelled by its variant label,
/// a key value by its spelling in the spec.
template <typename S>
int run_table(ScenarioContext& ctx, const char* axis, const Rows<S>& rows) {
  struct Point {
    std::string key, label;
    ExperimentSpec spec;
  };
  const SpecKeyInfo* info = find_spec_key(axis);
  const SweepAxis* declared = ctx.spec.axis(axis);
  std::vector<Point> points;
  for (const std::string& value :
       declared != nullptr ? declared->values : std::vector<std::string>{}) {
    Point p{value, value, {}};
    Overrides keys = {{axis, value}};
    for (const AxisVariant& v : info->variants) {
      if (v.name != value) continue;
      keys = v.keys;
      p.label = v.label;
    }
    std::optional<ExperimentSpec> spec = spec_at_point(ctx.spec, axis, keys);
    if (!spec) return 2;
    p.spec = std::move(*spec);
    if (!info->sweep_only) p.key = p.label = p.spec.value_of(axis);
    points.push_back(std::move(p));
  }

  print_bench_header(rows.figure, rows.title, ctx.spec.universe_summary());
  std::cout << rows.heading;
  Table<S> table;
  for (const Point& p : points) {
    Measured<S> m = measure<S>(p.spec, false);
    if (m.samples.empty()) return no_samples();
    ctx.mix(m.samples);
    collect(m, rows.hidden, p.spec);
    rows.row(p.label, m);
    table.emplace_back(p.key, std::move(m));
  }
  print_claims(rows.check_table(ctx.record, table));
  return 0;
}

/// Collects the rows' series from a measured run, prints the samples
/// line, the figures, the table, the claims and the note, then records the
/// columns in order.
template <typename S>
int report(ScenarioContext& ctx, const Rows<S>& rows, Measured<S>& m) {
  collect(m, rows.columns, ctx.spec);
  collect(m, rows.hidden, ctx.spec);
  if (rows.unit != nullptr) {
    std::cout << "samples: " << m.samples.size() << " " << rows.unit
              << (m.arm_pair ? " (x2 runs)" : "")
              << (rows.detail != nullptr ? rows.detail(m) : "") << "\n";
  }
  for (const Figure<S>& figure : rows.figures)
    if (!print_figure(figure, m)) return no_samples();
  if (rows.table != nullptr) rows.table(m);
  if (rows.claims != nullptr) print_claims(rows.claims(m));
  if (rows.note != nullptr) std::cout << rows.note(m);

  for (const Column<S>& c : rows.columns) {
    if (c.put != nullptr) {
      c.put(ctx.record, m);
    } else if (m.cdfs.count(c.name) > 0) {
      ctx.record.metric_cdf(c.name, m.cdf(c));
    }
  }
  return 0;
}

template <typename S>
int run_rows(ScenarioContext& ctx, const ScenarioPreset& preset,
             const Rows<S>& rows) {
  if (preset.axis != nullptr) return run_table(ctx, preset.axis, rows);
  std::string title = rows.title;
  if (rows.title_objectives) {
    title += ", A=" + ctx.spec.resolved_objective(0).to_string() +
             ", B=" + ctx.spec.resolved_objective(1).to_string();
  }
  print_bench_header(rows.figure, title, ctx.spec.universe_summary());
  Measured<S> m = measure<S>(ctx.spec, preset.owns_cheat);
  if (m.samples.empty()) return no_samples();
  ctx.mix(m.samples);
  if (m.arm_pair) ctx.mix(m.cheating);
  return report(ctx, rows, m);
}

// ------------------------------------------------------------------------
// Shared series and metrics
// ------------------------------------------------------------------------

using D = DistanceSample;
using B = BandwidthSample;

std::string str(const std::string& text) { return text; }
std::string str(double v) { return std::to_string(v); }
std::string str(std::size_t v) { return std::to_string(v); }
/// Text and numbers concatenated, each number through std::to_string.
template <typename... T>
std::string cat(const T&... parts) {
  return (std::string() + ... + str(parts));
}

// Series extractors over arm A of a pair (0: both truthful, 1: A cheats).
template <double D::*km, int A = 0>
void total_gain(std::vector<double>& v, const D& s, const D& c) {
  v.push_back((A == 0 ? s : c).total_gain_pct((A == 0 ? s : c).*km));
}
template <double (D::*km)[2], int side, int A = 0>
void side_gain(std::vector<double>& v, const D& s, const D& c) {
  v.push_back((A == 0 ? s : c).side_gain_pct((A == 0 ? s : c).*km, side));
}
template <double (D::*km)[2]>
void side_gains(std::vector<double>& v, const D& s, const D& c) {
  side_gain<km, 0>(v, s, c);
  side_gain<km, 1>(v, s, c);
}
template <double (B::*mel)[2], int side, int A = 0>
void mel_ratio(std::vector<double>& v, const B& s, const B& c) {
  v.push_back((A == 0 ? s : c).ratio((A == 0 ? s : c).*mel, side));
}

void put_count(util::JsonReport& record, const char* name, std::size_t n) {
  record.metric(name, static_cast<std::int64_t>(n));
}

template <typename S, typename Field>
std::size_t total(const std::vector<S>& samples, Field field) {
  std::size_t sum = 0;
  for (const S& s : samples) sum += s.*field;
  return sum;
}
std::size_t flows(const Measured<D>& m) {
  return total(m.samples, &D::flow_count);
}
std::size_t moved(const Measured<D>& m) {
  return total(m.samples, &D::flows_moved);
}

template <typename S>
constexpr Column<S> kSamples{.put = [](auto& r, auto& m) {
  put_count(r, "samples", m.pairs());
}};
constexpr Column<D> kFlowCounts{.put = [](auto& r, auto& m) {
  put_count(r, "flows", flows(m));
  put_count(r, "flows_moved", moved(m));
}};
/// Run-dependent by design: outside the digest, and dropped by every
/// record comparison.
template <typename S>
constexpr Column<S> kWallMs{
    .put = [](auto& r, auto& m) { r.metric("wall_ms", m.wall_ms); }};
/// The oracle-evaluation work summed over the samples.
template <typename S>
constexpr Column<S> kEvalWork{.put = [](auto& r, auto& m) {
  put_count(r, "eval_calls_full", total(m.samples, &S::eval_calls_full));
  put_count(r, "eval_calls_incremental",
            total(m.samples, &S::eval_calls_incremental));
  put_count(r, "eval_rows_computed", total(m.samples, &S::eval_rows_computed));
  put_count(r, "eval_rows_full_equivalent",
            total(m.samples, &S::eval_rows_full_equivalent));
}};

/// The share of the naive full-recompute row work the negotiations
/// performed (1.0 with --incremental=false).
template <typename S>
double row_fraction(const Measured<S>& m) {
  const std::size_t full = total(m.samples, &S::eval_rows_full_equivalent);
  const std::size_t rows = total(m.samples, &S::eval_rows_computed);
  return full > 0 ? static_cast<double>(rows) / static_cast<double>(full)
                  : 1.0;
}

/// The wall-clock line after fig6/fig7's claims, with the oracle work.
template <typename S>
std::string eval_note(const Measured<S>& m) {
  char line[256];
  std::snprintf(line, sizeof line,
                "\nwall-clock %.1f ms; evaluate calls %zu full + %zu "
                "incremental; preference rows %zu of %zu full-equivalent "
                "(%.1f%%)\n",
                m.wall_ms, total(m.samples, &S::eval_calls_full),
                total(m.samples, &S::eval_calls_incremental),
                total(m.samples, &S::eval_rows_computed),
                total(m.samples, &S::eval_rows_full_equivalent),
                100.0 * row_fraction(m));
  return line;
}

constexpr Column<D> kTotalNeg{"total_gain_pct.negotiated", "negotiated",
                              total_gain<&D::negotiated_km>};
constexpr Column<D> kTotalOpt{"total_gain_pct.optimal", "optimal",
                              total_gain<&D::optimal_km>};
constexpr Column<D> kIndivNeg{"individual_gain_pct.negotiated", "negotiated",
                              side_gains<&D::negotiated_side_km>};
constexpr Column<D> kIndivOpt{"individual_gain_pct.optimal", "optimal",
                              side_gains<&D::optimal_side_km>};

constexpr Column<B> kUpDefault{"mel_ratio.upstream.default", "default",
                               mel_ratio<&B::mel_default, 0>};
constexpr Column<B> kUpNeg{"mel_ratio.upstream.negotiated", "negotiated",
                           mel_ratio<&B::mel_negotiated, 0>};
constexpr Column<B> kDownDefault{"mel_ratio.downstream.default", "default",
                                 mel_ratio<&B::mel_default, 1>};
constexpr Column<B> kDownNeg{"mel_ratio.downstream.negotiated", "negotiated",
                             mel_ratio<&B::mel_negotiated, 1>};
constexpr Column<B> kDownGain{"downstream_distance_gain_pct", "negotiated",
                              [](auto& v, auto& s, auto&) {
                                v.push_back(s.downstream_distance_gain_pct);
                              }};

constexpr const char* kTotalKm =
    "% reduction in total flow km vs default routing";
constexpr const char* kOwnKm = "% reduction in own-network flow km vs default";
constexpr const char* kMelRatio = "MEL relative to MEL of optimal routing";
constexpr const char* kDownKm =
    "% reduction of affected flows' km inside downstream vs default";

bool loses(double gain_pct) { return gain_pct < -0.5; }
bool over_20(double gain_pct) { return gain_pct > 20.0; }
bool over_2(double ratio) { return ratio > 2.0; }

// ------------------------------------------------------------------------
// Figures 4-11 (paper §5-§6)
// ------------------------------------------------------------------------

const Rows<D> kFig4{
    .figure = "Figure 4",
    .title = "distance gain of optimal vs negotiated routing",
    .unit = "ISP pairs",
    .columns = {kSamples<D>, kTotalNeg, kTotalOpt, kIndivNeg, kIndivOpt,
                {.put = [](auto& r, auto& m) {
                  put_count(r, "isps_losing.optimal",
                            m.count(kIndivOpt, loses));
                  put_count(r, "isps_losing.negotiated",
                            m.count(kIndivNeg, loses));
                }}},
    .figures = {{"Fig 4a", "total gain across both ISPs", kTotalKm,
                 {&kTotalNeg, &kTotalOpt}},
                {"Fig 4b", "individual ISP gain", kOwnKm,
                 {&kIndivNeg, &kIndivOpt}}},
    .claims = [](auto& m) -> Claims {
      const double opt = m.median(kTotalOpt), neg = m.median(kTotalNeg);
      const std::size_t isps = m.values.at(kIndivOpt.name).size();
      const std::size_t opt_losers = m.count(kIndivOpt, loses);
      const std::size_t neg_losers = m.count(kIndivNeg, loses);
      return {
          {"negotiated total gain is close to globally optimal (within ~1/3)",
           cat("median optimal ", opt, "%, negotiated ", neg, "%"),
           neg >= opt * 0.5},
          {"median total gain is modest (paper ~4%; price of anarchy low)",
           cat("median total optimal gain ", opt, "%"), opt < 25.0},
          {"a sizable fraction of ISPs lose under GLOBAL optimisation (paper "
           "~1/3)",
           cat(opt_losers, "/", isps, " ISPs lose >0.5% of own distance"),
           opt_losers > isps / 20},
          {"no ISP loses under NEGOTIATION",
           cat(neg_losers, "/", isps, " ISPs lose >0.5%"), neg_losers == 0}};
    }};

constexpr Column<D> kPareto{"total_gain_pct.pareto", "flow-Pareto",
                            total_gain<&D::pareto_km>};
constexpr Column<D> kBothBetter{"total_gain_pct.both_better",
                                "flow-both-better",
                                total_gain<&D::bothbetter_km>};

const Rows<D> kFig5{
    .figure = "Figure 5",
    .title = "flow-pair strategies that merely discard bad alternatives",
    .unit = "ISP pairs",
    .columns = {kSamples<D>, kPareto, kBothBetter, kTotalNeg, kTotalOpt},
    .figures = {{"Fig 5", "total gain of the flow-pair strategies", kTotalKm,
                 {&kBothBetter, &kPareto, &kTotalNeg, &kTotalOpt}}},
    .claims = [](auto& m) -> Claims {
      const double pareto = m.median(kPareto), both = m.median(kBothBetter);
      const double neg = m.median(kTotalNeg);
      return {{"flow-pair strategies capture little of the negotiated gain",
               cat("medians: flow-Pareto ", pareto, "%, flow-both-better ",
                   both, "%, negotiated ", neg, "%"),
               pareto < neg * 0.5 + 0.5 && both < neg * 0.75 + 0.5}};
    }};

constexpr Column<D> kFlowNeg{
    "flow_gain_pct.negotiated", "negotiated", [](auto& v, auto& s, auto&) {
      v.insert(v.end(), s.flow_gain_pct_negotiated.begin(),
               s.flow_gain_pct_negotiated.end());
    }};
constexpr Column<D> kFlowOpt{
    "flow_gain_pct.optimal", "optimal", [](auto& v, auto& s, auto&) {
      v.insert(v.end(), s.flow_gain_pct_optimal.begin(),
               s.flow_gain_pct_optimal.end());
    }};

const Rows<D> kFig6{
    .figure = "Figure 6",
    .title = "flow-level gains of optimal and negotiated routing",
    .unit = "ISP pairs",
    .detail = [](auto& m) { return cat(", ", flows(m), " flows"); },
    .columns = {kWallMs<D>, kSamples<D>, kFlowCounts, kEvalWork<D>, kFlowNeg,
                kFlowOpt},
    .figures = {{"Fig 6", "per-flow gain",
                 "% reduction of the flow's end-to-end km vs default",
                 {&kFlowNeg, &kFlowOpt}}},
    .claims = [](auto& m) -> Claims {
      const std::size_t n = flows(m), neg20 = m.count(kFlowNeg, over_20);
      const std::size_t neg50 =
          m.count(kFlowNeg, [](double g) { return g > 50.0; });
      const std::size_t opt20 = m.count(kFlowOpt, over_20);
      return {
          {"a heavy tail of flows gains substantially (paper: 7% >20%, 1% "
           ">50%)",
           cat(100.0 * neg20 / n, "% of flows gain >20%, ", 100.0 * neg50 / n,
               "% gain >50% (negotiated)"),
           neg20 > 0 && neg50 > 0 && neg20 >= neg50},
          {"negotiation catches almost all flows that optimal improves >20%",
           cat(static_cast<double>(neg20), " vs ", static_cast<double>(opt20),
               " flows improved >20% (negotiated vs optimal)"),
           neg20 >= 0.6 * opt20},
          {"only a minority of flows needs non-default routing (paper ~20%)",
           cat(100.0 * moved(m) / n, "% of flows moved off default"),
           moved(m) < n / 2}};
    },
    .note = eval_note<D>};

const Rows<B> kFig7{
    .figure = "Figure 7",
    .title = "MEL after failures: default and negotiated vs optimal",
    .unit = "failed interconnections",
    .columns = {kWallMs<B>, kEvalWork<B>, {.put = [](auto& r, auto& m) {
                  r.metric("eval_row_fraction", row_fraction(m));
                }},
                kSamples<B>, kUpDefault, kUpNeg, kDownDefault, kDownNeg},
    .figures = {{"Fig 7 (left)", "upstream ISP", kMelRatio,
                 {&kUpNeg, &kUpDefault}},
                {"Fig 7 (right)", "downstream ISP", kMelRatio,
                 {&kDownNeg, &kDownDefault}}},
    .claims = [](auto& m) -> Claims {
      const std::size_t n = m.samples.size();
      const std::size_t gt2 = m.count(kUpDefault, over_2);
      const std::size_t gt5 =
          m.count(kUpDefault, [](double r) { return r > 5.0; });
      const std::size_t near1 =
          m.count(kUpNeg, [](double r) { return r < 1.25; });
      const double def = m.median(kUpDefault), neg = m.median(kUpNeg);
      return {
          {"default routing often overloads the upstream (paper: ratio >2 for "
           "half)",
           cat(100.0 * gt2 / n, "% of samples >2x optimal, ", 100.0 * gt5 / n,
               "% >5x"),
           gt2 > n / 10},
          {"negotiated routing is close to optimal (most MEL ratios ~1)",
           cat(100.0 * near1 / n,
               "% of upstream samples within 1.25x of optimal; median ", neg),
           neg < 1.3},
          {"negotiated stochastically dominates default (upstream)",
           cat("median default ", def, " vs negotiated ", neg),
           neg <= def + 1e-9}};
    },
    .note = eval_note<B>};

constexpr Column<B> kUnilateralRatio{
    "downstream_unilateral_ratio", "upstream-optimized/default",
    [](auto& v, auto& s, auto&) {
      if (s.mel_default[1] > 0.0 && s.mel_unilateral[1] > 0.0)
        v.push_back(s.mel_unilateral[1] / s.mel_default[1]);
    }};

const Rows<B> kFig8{
    .figure = "Figure 8",
    .title = "unilateral upstream optimisation, impact on the downstream",
    .unit = "failed interconnections",
    .columns = {kSamples<B>, kUnilateralRatio},
    .figures = {{"Fig 8", "downstream impact of upstream-centric optimisation",
                 "downstream MEL, upstream-optimized / default (>1 means "
                 "harmed)",
                 {&kUnilateralRatio}}},
    .claims = [](auto& m) -> Claims {
      const std::size_t n = m.values.at(kUnilateralRatio.name).size();
      const std::size_t helped =
          m.count(kUnilateralRatio, [](double r) { return r < 0.99; });
      const std::size_t hurt =
          m.count(kUnilateralRatio, [](double r) { return r > 1.01; });
      const std::size_t hurt2x = m.count(kUnilateralRatio, over_2);
      return {
          {"the downstream outcome is unpredictable: both helped and hurt "
           "occur",
           cat(100.0 * helped / n, "% helped, ", 100.0 * hurt / n, "% hurt, ",
               100.0 * hurt2x / n, "% hurt >2x"),
           helped > 0 && hurt > 0},
          {"a noticeable share of samples is harmed badly (paper ~10% >2x)",
           cat(100.0 * hurt2x / n, "% over 2x default MEL"), hurt2x > 0}};
    }};

const Rows<B> kFig9{
    .figure = "Figure 9",
    .title = "diverse criteria: upstream=bandwidth, downstream=distance",
    .unit = "failed interconnections",
    .columns = {kSamples<B>, kUpDefault, kUpNeg, kDownGain},
    .figures = {{"Fig 9 (left)", "upstream ISP controls overload", kMelRatio,
                 {&kUpNeg, &kUpDefault}},
                {"Fig 9 (right)", "downstream ISP reduces distance", kDownKm,
                 {&kDownGain}}},
    .claims = [](auto& m) -> Claims {
      const double neg = m.median(kUpNeg), def = m.median(kUpDefault);
      const util::Cdf& gain = m.cdf(kDownGain);
      return {{"upstream effectively controls overload despite diverse "
               "criteria",
               cat("median upstream MEL ratio: negotiated ", neg,
                   " vs default ", def),
               neg <= def + 1e-9},
              {"downstream significantly reduces its distance",
               cat("median downstream distance gain ", gain.value_at(0.5),
                   "%, p90 ", gain.value_at(0.9), "%"),
               gain.value_at(0.9) > 5.0 && gain.min() > -1.0}};
    }};

// fig10/fig11 compare each pair's both-truthful outcome with the one where
// side A cheats (arm 1 of the extractors).

constexpr Column<D> kTotalHonest{"total_gain_pct.honest", "both-truthful",
                                 total_gain<&D::negotiated_km>};
constexpr Column<D> kTotalCheating{"total_gain_pct.cheating", "one-cheater",
                                   total_gain<&D::negotiated_km, 1>};
constexpr Column<D> kIndivHonest{"individual_gain_pct.honest",
                                 "both-truthful",
                                 side_gains<&D::negotiated_side_km>};
constexpr Column<D> kCheaterGain{"cheater_gain_pct", "cheater",
                                 side_gain<&D::negotiated_side_km, 0, 1>};
constexpr Column<D> kTruthfulGain{"truthful_gain_pct", "truthful",
                                  side_gain<&D::negotiated_side_km, 1, 1>};
constexpr Column<D> kCheaterHonestGain{"cheater_gain_pct.honest", nullptr,
                                       side_gain<&D::negotiated_side_km, 0>};

const Rows<D> kFig10{
    .figure = "Figure 10", .title = "impact of cheating, distance experiment",
    .unit = "ISP pairs",
    .columns = {kSamples<D>, kTotalHonest, kTotalCheating, kCheaterGain,
                kTruthfulGain},
    .hidden = {kIndivHonest, kCheaterHonestGain},
    .figures = {{"Fig 10a", "total gain across both ISPs",
                 "% reduction in total flow km vs default",
                 {&kTotalHonest, &kTotalCheating}},
                {"Fig 10b", "individual gains",
                 "% reduction in own-network km vs default",
                 {&kIndivHonest, &kCheaterGain, &kTruthfulGain}}},
    .claims = [](auto& m) -> Claims {
      const double honest = m.median(kTotalHonest);
      const double cheating = m.median(kTotalCheating);
      const double cheater = m.mean(kCheaterGain);
      const double cheater_honest = m.mean(kCheaterHonestGain);
      const std::size_t losses = m.count(kTruthfulGain, loses);
      return {{"cheating reduces the total gain",
               cat("median total: honest ", honest, "% vs one-cheater ",
                   cheating, "%"),
               cheating <= honest + 1e-9},
              {"cheating is self-defeating: the cheater gains LESS than when "
               "truthful",
               cat("cheater mean gain ", cheater, "% vs its gain when honest ",
                   cheater_honest, "%"),
               cheater <= cheater_honest + 1e-9},
              {"the truthful ISP never ends below its default",
               cat(losses, " losses >0.5%"), losses == 0}};
    }};

constexpr Column<B> kUpHonest{"mel_ratio.upstream.honest", "both-truthful",
                              mel_ratio<&B::mel_negotiated, 0>};
constexpr Column<B> kUpCheating{"mel_ratio.upstream.cheating", "one-cheater",
                                mel_ratio<&B::mel_negotiated, 0, 1>};
constexpr Column<B> kDownHonest{"mel_ratio.downstream.honest",
                                "both-truthful",
                                mel_ratio<&B::mel_negotiated, 1>};
constexpr Column<B> kDownCheating{"mel_ratio.downstream.cheating",
                                  "one-cheater",
                                  mel_ratio<&B::mel_negotiated, 1, 1>};

const Rows<B> kFig11{
    .figure = "Figure 11", .title = "impact of cheating, bandwidth experiment",
    .unit = "failed interconnections",
    .columns = {kSamples<B>, kUpHonest, kUpCheating, kDownHonest,
                kDownCheating},
    .hidden = {kUpDefault, kDownDefault},
    .figures = {{"Fig 11 (left)", "upstream ISP (the cheater)", kMelRatio,
                 {&kUpHonest, &kUpCheating, &kUpDefault}},
                {"Fig 11 (right)", "downstream ISP (truthful)", kMelRatio,
                 {&kDownHonest, &kDownCheating, &kDownDefault}}},
    .claims = [](auto& m) -> Claims {
      const double up = m.median(kUpHonest), up_cheat = m.median(kUpCheating);
      const double down = m.median(kDownCheating);
      const double down_default = m.median(kDownDefault);
      return {{"cheating does not help the cheating upstream (median MEL "
               "ratio)",
               cat("truthful ", up, " vs cheating ", up_cheat),
               up_cheat >= up - 0.05},
              {"negotiation with a cheater is still no worse than default "
               "(median)",
               cat("cheater-run downstream ", down, " vs default ",
                   down_default),
               down <= down_default + 0.05}};
    }};

// ------------------------------------------------------------------------
// Ablations (paper §4-§5)
// ------------------------------------------------------------------------

double moved_pct(const Measured<D>& m) {
  return 100.0 * static_cast<double>(moved(m)) /
         static_cast<double>(flows(m));
}

/// Share (%) of the km saved by negotiated moves that the top `pct`% of
/// the moved flows carry.
double top_share(const Measured<D>& m, double pct) {
  std::vector<double> savings;  // km saved by each moved flow
  for (const D& s : m.samples)
    for (double km : s.flow_saving_km_negotiated)
      if (km > 1e-9) savings.push_back(km);
  std::sort(savings.rbegin(), savings.rend());
  const auto k = std::min(
      savings.size(), static_cast<std::size_t>(savings.size() * pct / 100.0));
  const double top = util::sum(std::vector<double>(
      savings.begin(), savings.begin() + static_cast<std::ptrdiff_t>(k)));
  const double all = util::sum(savings);
  return all > 0 ? 100.0 * top / all : 0.0;
}

const Rows<D> kFlowFraction{
    .figure = "Ablation: fraction of flows moved",
    .title = "how many non-default routes are needed for the gain",
    .unit = "pairs",
    .detail = [](auto& m) {
      std::ostringstream os;  // the percentage as a stream prints it
      os << ", " << flows(m) << " flows; moved " << moved(m) << " ("
         << moved_pct(m) << "%)";
      return os.str();
    },
    .columns = {kFlowCounts, {.put = [](auto& r, auto& m) {
                  std::vector<double> gains;
                  for (const D& s : m.samples)
                    gains.push_back(s.default_km - s.negotiated_km);
                  r.metric("total_gain_km", util::sum(gains));
                  r.metric("gain_share_top20pct", top_share(m, 20.0));
                }}},
    .table = [](auto& m) {
      std::cout << "\n  top-moved-flows%   share-of-total-gain%\n";
      for (double pct : {1.0, 5.0, 10.0, 20.0, 50.0, 100.0})
        std::printf("  %15.1f   %20.2f\n", pct, top_share(m, pct));
    },
    .claims = [](auto& m) -> Claims {
      const double share = top_share(m, 20.0);
      return {{"a minority of flows moved off default suffices (paper ~20%)",
               cat(moved_pct(m), "% of all flows were re-routed"),
               moved_pct(m) < 50.0},
              {"the top 20% of improved flows carries most of the gain",
               cat(share, "% of the gain from the top 20% of flows"),
               share > 50.0}};
    }};

/// Negotiated total gains bucketed by interconnection count (6+ pooled).
std::map<std::size_t, std::vector<double>> ix_buckets(const Measured<D>& m) {
  std::map<std::size_t, std::vector<double>> buckets;
  for (const D& s : m.samples) {
    buckets[std::min<std::size_t>(s.interconnections, 6)].push_back(
        s.total_gain_pct(s.negotiated_km));
  }
  return buckets;
}
/// Mean gain of the fewest- or of the most-interconnection bucket.
double ix_mean(const Measured<D>& m, bool most) {
  const auto buckets = ix_buckets(m);
  return util::mean(most ? buckets.rbegin()->second : buckets.begin()->second);
}

const Rows<D> kIxCount{
    .figure = "Ablation: interconnection count",
    .title = "negotiated gain bucketed by number of interconnections",
    .columns = {kSamples<D>, {.put = [](auto& r, auto& m) {
                  r.metric("mean_gain_pct.fewest_ix", ix_mean(m, false));
                  r.metric("mean_gain_pct.most_ix", ix_mean(m, true));
                }}},
    .table = [](auto& m) {
      std::cout << "\n  interconnections   pairs   mean-gain%   median-gain%\n";
      for (const auto& [b, gains] : ix_buckets(m)) {
        std::printf("  %10zu%s   %5zu   %10.3f   %12.3f\n", b,
                    b == 6 ? "+" : " ", gains.size(), util::mean(gains),
                    util::median(gains));
      }
    },
    .claims = [](auto& m) -> Claims {
      const double low = ix_mean(m, false), high = ix_mean(m, true);
      return {{"pairs with more interconnections gain more from negotiation",
               cat("mean gain, fewest-ix bucket ", low, "% vs most-ix bucket ",
                   high, "%"),
               high >= low}};
    }};

// The owned-axis ablations: one table row per value of the axis. A claim
// or metric comparing two values is left out unless both ran.

const Rows<D> kGroupNegotiation{
    .figure = "Ablation: group negotiation",
    .title = "negotiating in k separate groups vs the whole set",
    .hidden = {kTotalNeg},
    .heading = "\n  groups   mean-total-gain%   median-total-gain%\n",
    .row = [](auto& label, auto& m) {
      std::printf("  %6s   %16.3f   %18.3f\n", label.c_str(),
                  m.mean(kTotalNeg), m.median(kTotalNeg));
    },
    .check_table = [](auto& r, auto& t) -> Claims {
      const auto *one = row_of(t, "1"), *many = row_of(t, "64");
      if (one == nullptr || many == nullptr) return {};
      const double whole = one->mean(kTotalNeg), split = many->mean(kTotalNeg);
      r.metric("mean_gain_pct.groups_1", whole);
      r.metric("mean_gain_pct.groups_64", split);
      return {{"negotiating over the entire flow set beats many separate "
               "groups",
               cat("mean gain whole-set ", whole, "% vs 64 groups ", split,
                   "%"),
               split <= whole + 1e-9}};
    }};

/// Whether negotiated <= default at the median for every model variant.
bool shapes_hold(const Table<B>& t) {
  return std::all_of(t.begin(), t.end(), [](const auto& row) {
    return row.second.median(kUpNeg) <= row.second.median(kUpDefault) + 1e-9;
  });
}

const Rows<B> kModels{
    .figure = "Ablation: alternate models (§5.2)",
    .title = "workload / capacity / metric sensitivity of Fig. 7",
    .hidden = {kUpDefault, kUpNeg},
    .heading = "\n  variant                              samples   "
               "default-med   negotiated-med   neg<=def%\n",
    .row = [](auto& label, auto& m) {
      const auto dominated =
          std::count_if(m.samples.begin(), m.samples.end(), [](const B& s) {
            return s.ratio(s.mel_negotiated, 0) <=
                   s.ratio(s.mel_default, 0) + 1e-9;
          });
      std::printf("  %-36s   %6zu   %11.3f   %14.3f   %8.1f\n", label.c_str(),
                  m.samples.size(), m.median(kUpDefault), m.median(kUpNeg),
                  100.0 * static_cast<double>(dominated) /
                      static_cast<double>(m.samples.size()));
    },
    // The paper-model medians only exist when the axis kept "paper":
    // recording a variant that never ran would fabricate data.
    .check_table = [](auto& r, auto& t) -> Claims {
      const auto* paper = row_of(t, "paper");
      Claims claims;
      if (paper != nullptr) {
        const double def = paper->median(kUpDefault);
        const double neg = paper->median(kUpNeg);
        r.metric("paper_model.default_median", def);
        r.metric("paper_model.negotiated_median", neg);
        claims.push_back(
            {"results are qualitatively similar across alternate models "
             "(negotiated <= default at the median everywhere)",
             cat("paper-model medians: default ", def, ", negotiated ", neg),
             shapes_hold(t)});
      }
      put_count(r, "all_shapes_hold", shapes_hold(t) ? 1 : 0);
      return claims;
    }};

constexpr Column<D> kGainGap{
    "gain_gap_km", nullptr, [](auto& v, auto& s, auto&) {
      const double ga = s.default_side_km[0] - s.negotiated_side_km[0];
      const double gb = s.default_side_km[1] - s.negotiated_side_km[1];
      v.push_back(std::abs(ga - gb));
    }};

const Rows<D> kPolicies{
    .figure = "Ablation: protocol policies",
    .title = "turn / termination / proposal policy comparison",
    .hidden = {kTotalNeg, kGainGap},
    .heading = "\n  variant                                   mean-gain%   "
               "median-gain%   mean|gainA-gainB| (km)\n",
    .row = [](auto& label, auto& m) {
      std::printf("  %-40s   %9.3f   %11.3f   %18.1f\n", label.c_str(),
                  m.mean(kTotalNeg), m.median(kTotalNeg), m.mean(kGainGap));
    },
    .check_table = [](auto& r, auto& t) -> Claims {
      const auto *lower = row_of(t, "lower-gain"), *paper = row_of(t, "paper");
      if (lower == nullptr || paper == nullptr) return {};
      const double fair = lower->mean(kGainGap), alt = paper->mean(kGainGap);
      r.metric("imbalance_km.lower_gain", fair);
      r.metric("imbalance_km.alternate", alt);
      return {{"lower-cumulative-gain turns approximate max-min fairness "
               "(smaller gain imbalance than alternate turns)",
               cat("mean |gainA-gainB|: lower-gain ", fair,
                   " km vs alternate ", alt, " km"),
               fair <= alt * 1.25}};
    }};

const Rows<D> kPrefRange{
    .figure = "Ablation: preference range P",
    .title = "negotiated gain as a function of the class range",
    .hidden = {kTotalNeg, kTotalOpt},
    .heading = "\n   P   median-total-gain%   mean-total-gain%   "
               "optimal-median%\n",
    .row = [](auto& label, auto& m) {
      std::printf("  %2s   %18.3f   %16.3f   %15.3f\n", label.c_str(),
                  m.median(kTotalNeg), m.mean(kTotalNeg), m.median(kTotalOpt));
    },
    .check_table = [](auto& r, auto& t) -> Claims {
      for (const char* p : {"1", "10", "50"}) {
        if (const auto* row = row_of(t, p))
          r.metric(std::string("median_gain_pct.p") + p,
                   row->median(kTotalNeg));
      }
      const auto *p1 = row_of(t, "1"), *p10 = row_of(t, "10");
      const auto* p50 = row_of(t, "50");
      Claims claims;
      if (p10 != nullptr && p50 != nullptr) {
        const double m10 = p10->median(kTotalNeg), m50 = p50->median(kTotalNeg);
        claims.push_back(
            {"increasing the range beyond P=10 does not noticeably help",
             cat("median gain at P=10: ", m10, "%, at P=50: ", m50, "%"),
             m50 - m10 < 1.0});
      }
      if (p1 != nullptr && p10 != nullptr) {
        const double m1 = p1->median(kTotalNeg), m10 = p10->median(kTotalNeg);
        claims.push_back(
            {"a tiny range (P=1) leaves gain on the table",
             cat("median gain at P=1: ", m1, "% vs P=10: ", m10, "%"),
             m1 <= m10 + 1e-9});
      }
      return claims;
    }};

// ------------------------------------------------------------------------
// custom: any composed distance or bandwidth spec, on the figures' series
// ------------------------------------------------------------------------

const Rows<D> kCustomDistance{
    .figure = "Custom scenario", .title = "distance experiment",
    .title_objectives = true,
    .unit = "ISP pairs",
    .detail = [](auto& m) {
      return cat(", ", flows(m), " flows, ", moved(m), " moved off default");
    },
    .columns = {kSamples<D>, kFlowCounts, kTotalNeg, kTotalOpt, kIndivNeg},
    .figures = {{"custom", "total gain across both ISPs", kTotalKm,
                 {&kTotalNeg, &kTotalOpt}},
                {"custom", "individual ISP gain", kOwnKm, {&kIndivNeg}}}};

/// fig9's downstream distance series, when side B minimises distance.
constexpr Column<B> kCustomDownGain{
    .name = kDownGain.name,
    .label = kDownGain.label,
    .add = kDownGain.add,
    .when = [](const ExperimentSpec& spec) {
      return spec.resolved_objective(1).name == "distance";
    }};

const Rows<B> kCustomBandwidth{
    .figure = "Custom scenario", .title = "bandwidth (failure) experiment",
    .title_objectives = true,
    .unit = "failed interconnections",
    .columns = {kCustomDownGain, kSamples<B>, kUpDefault, kUpNeg, kDownDefault,
                kDownNeg},
    .figures = {{"custom", "upstream ISP", kMelRatio, {&kUpNeg, &kUpDefault}},
                {"custom", "downstream ISP", kMelRatio,
                 {&kDownNeg, &kDownDefault}},
                {"custom", "downstream ISP reduces distance", kDownKm,
                 {&kCustomDownGain}}}};

// ------------------------------------------------------------------------
// table3: the worked Fig. 2/3 example
// ------------------------------------------------------------------------

/// Minimal scripted oracle mirroring the paper's preference lists.
class TableOracle : public core::PreferenceOracle {
 public:
  TableOracle(std::vector<core::PreferenceList> phases, bool reassign)
      : phases_(std::move(phases)), reassign_(reassign) {}

  core::Evaluation evaluate(const core::OracleContext&) override {
    const std::size_t i = std::min(calls_++, phases_.size() - 1);
    core::Evaluation e;
    e.classes = phases_[i];
    e.true_value = core::Matrix<double>(e.classes.rows(), e.classes.cols());
    std::copy(e.classes.values().begin(), e.classes.values().end(),
              e.true_value.values().begin());
    return e;
  }
  [[nodiscard]] bool wants_reassignment() const override { return reassign_; }

 private:
  std::vector<core::PreferenceList> phases_;
  bool reassign_ = false;
  std::size_t calls_ = 0;
};


int run_table3(ScenarioContext& ctx) {
  print_bench_header("Figure 3 (table)",
                     "worked preference-list example of Fig. 2",
                     "two flows (f2, f3), candidates {top, bottom}, P=1");

  std::cout <<
      "\nInitial preference lists ((A,B) tuples; defaults = bottom):\n"
      "          f2top   f2bot   f3top   f3bot\n"
      "  (A,B)  (-1,0)   (0,0)   (0,0)   (0,0)\n"
      "\nReassignment after f2 settles on bottom:\n"
      "          f3top   f3bot\n"
      "  (A,B)   (0,1)   (0,0)\n";

  // Engine setup identical to tests/core_engine_test.cpp WorkedExample.
  topology::IspPair pair = [] {
    auto mk = [](std::int32_t asn) {
      std::vector<topology::Pop> pops;
      graph::Graph g(2);
      for (int i = 0; i < 2; ++i)
        pops.push_back(topology::Pop{topology::PopId{i},
                                     static_cast<std::size_t>(i),
                                     "c" + std::to_string(i),
                                     geo::Coord{0.0, static_cast<double>(i)},
                                     1.0});
      g.add_edge(0, 1, 1.0, 100.0);
      return topology::IspTopology{topology::AsNumber{asn}, "AS",
                                   std::move(pops), std::move(g)};
    };
    return *topology::make_pair_if_peers(mk(1), mk(2), 2);
  }();
  routing::PairRouting routing(pair);
  std::vector<traffic::Flow> flows{
      {traffic::FlowId{0}, traffic::Direction::kAtoB, topology::PopId{0},
       topology::PopId{0}, 1.0},
      {traffic::FlowId{1}, traffic::Direction::kAtoB, topology::PopId{1},
       topology::PopId{1}, 1.0}};
  core::NegotiationProblem problem;
  problem.routing = &routing;
  problem.flows = &flows;
  problem.negotiable = {0, 1};
  problem.candidates = {0, 1};  // 0 = "top", 1 = "bottom"
  problem.default_assignment.ix_of_flow = {1, 1};

  const auto negotiate = [&](std::uint64_t seed) {
    TableOracle a({core::PreferenceList{{-1, 0}, {0, 0}}}, false);
    TableOracle b({core::PreferenceList{{0, 0}, {0, 0}},
                   core::PreferenceList{{0, 0}, {1, 0}}},
                  true);
    core::NegotiationConfig cfg;
    cfg.seed = seed;
    cfg.reassign_traffic_fraction = 0.5;
    cfg.record_trace = true;
    return core::NegotiationEngine(problem, a, b, cfg).run();
  };
  int reached_paper_outcome = 0;
  const int runs = 100;
  std::uint64_t shown_seed = ctx.spec.seed;
  for (std::uint64_t seed = 1; seed <= runs; ++seed) {
    // f3 on top
    const bool paper_outcome = negotiate(seed).assignment.ix_of_flow[1] == 0;
    if (paper_outcome && shown_seed == 0) shown_seed = seed;
    reached_paper_outcome += paper_outcome ? 1 : 0;
  }

  // Re-run the chosen seed with a printed trace.
  if (shown_seed == 0) shown_seed = 1;
  const core::NegotiationOutcome out = negotiate(shown_seed);

  std::cout << "\nNegotiation trace (seed " << shown_seed << "):\n";
  const char* names[] = {"f2", "f3"};
  const char* sides[] = {"ISP-A", "ISP-B"};
  const char* links[] = {"top", "bottom"};
  for (const auto& tr : out.trace) {
    std::cout << "  round " << tr.round << ": " << sides[tr.proposer]
              << " proposes " << names[tr.flow.value()] << " -> "
              << links[tr.interconnection] << "  (A " << tr.pref_a << ", B "
              << tr.pref_b << ") " << (tr.accepted ? "accepted" : "rejected")
              << (tr.reassigned_after ? ", preferences reassigned" : "")
              << "\n";
  }
  std::cout << "final: f2 -> " << links[out.assignment.ix_of_flow[0]]
            << ", f3 -> " << links[out.assignment.ix_of_flow[1]]
            << "; gains A " << out.true_gain_a << ", B " << out.true_gain_b
            << "; stop: " << core::to_string(out.stop_reason) << "\n\n";

  paper_check(
      "the mutually acceptable Fig. 2e outcome (f2 bottom, f3 top) is reached "
      "for most tie-break realisations",
      std::to_string(reached_paper_outcome) + "/" + std::to_string(runs) +
          " random-seed runs reach it (the paper notes the suboptimal "
          "realisation exists too)",
      reached_paper_outcome > runs / 3);

  ctx.mix(static_cast<std::uint64_t>(reached_paper_outcome));
  ctx.mix(shown_seed);
  for (std::size_t ix : out.assignment.ix_of_flow) ctx.mix(ix);
  ctx.mix_double(out.true_gain_a);
  ctx.mix_double(out.true_gain_b);
  ctx.record.metric("paper_outcome_runs",
                    static_cast<std::int64_t>(reached_paper_outcome));
  ctx.record.metric("shown_seed", static_cast<std::int64_t>(shown_seed));
  return 0;
}

// ------------------------------------------------------------------------
// abl_destination_based: footnote-2 destination-based routing
// ------------------------------------------------------------------------

using P = DestinationSample;

constexpr Column<P> kSourceDest{
    "gain_pct.source_dest", "source-dest",
    [](auto& v, auto& r, auto&) { v.push_back(r.sd_gain); }};
constexpr Column<P> kDestBased{
    "gain_pct.destination_based", "destination-based",
    [](auto& v, auto& r, auto&) { v.push_back(r.db_gain); }};
constexpr Column<P> kDestBasedSides{
    "individual_gain_pct.destination_based", nullptr,
    [](auto& v, auto& r, auto&) {
      v.insert(v.end(), std::begin(r.db_side_gain), std::end(r.db_side_gain));
    }};

const Rows<P> kDestinationBased{
    .figure = "Ablation: destination-based routing (footnote 2)",
    .title = "source-destination vs destination-based negotiation",
    .columns = {{.put = [](auto& r, auto& m) {
                  put_count(r, "pairs", m.samples.size());
                }},
                kSourceDest, kDestBased},
    .hidden = {kDestBasedSides},
    .figures = {{"footnote 2", "total gain vs the mode's own default",
                 "% reduction in total flow km", {&kSourceDest, &kDestBased}}},
    .claims = [](auto& m) -> Claims {
      const double sd = m.median(kSourceDest), db = m.median(kDestBased);
      const std::size_t losers = m.count(kDestBasedSides, loses);
      return {{"destination-based negotiation yields results similar to "
               "source-destination (same order of magnitude, same sign)",
               cat("median gain: source-dest ", sd, "% vs destination-based ",
                   db, "%"),
               db > 0.0 && db > 0.25 * sd},
              {"no ISP loses under destination-based negotiation either",
               cat(losers, "/", m.values.at(kDestBasedSides.name).size(),
                   " ISPs lose >0.5%"),
               losers == 0}};
    }};

int run_abl_destination_based(ScenarioContext& ctx) {
  print_bench_header(kDestinationBased.figure, kDestinationBased.title,
                     ctx.spec.universe_summary());
  Measured<P> m;
  m.samples = run_destination_experiment(ctx.spec);
  if (m.samples.empty()) return no_samples();
  ctx.mix(m.samples);
  return report(ctx, kDestinationBased, m);
}

// ------------------------------------------------------------------------
// runtime scenarios: the concurrent runtime behind the same registry
// ------------------------------------------------------------------------

int run_runtime(ScenarioContext& ctx) {
  const runtime::ScenarioConfig cfg = ctx.spec.to_runtime_config();
  print_bench_header("Runtime scenario",
                     "concurrent negotiation sessions over a declared timeline",
                     ctx.spec.universe_summary());
  std::cout << (cfg.session_count == 0
                    ? std::string("one session per universe pair")
                    : std::to_string(cfg.session_count) + " sessions")
            << " ("
            << (cfg.transport == runtime::Transport::kSocketPair ? "socket"
                : cfg.transport == runtime::Transport::kTcpPair ? "tcp"
                                                                : "memory")
            << " transport), stagger " << cfg.start_stagger << ", "
            << cfg.events.size() << " timeline event"
            << (cfg.events.size() == 1 ? "" : "s") << ", threads "
            << cfg.runtime.threads << "\n";

  runtime::ScenarioReport report;
  try {
    report = runtime::run_scenario(cfg);
  } catch (const std::exception& e) {
    // A mis-declared timeline (no pair with enough links, event targeting a
    // session that will not exist) is a config error, not a crash.
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }

  static const char* const kKindNames[] = {"initial", "churn-renego",
                                           "failure-renego"};
  std::printf("\n%-4s %-22s %-15s %-10s %8s %8s %9s\n", "id", "pair", "kind",
              "status", "attempts", "rounds", "messages");
  // Big populations get a capped table — the stats line and the JSON record
  // still cover every session, and the cap is announced, never silent.
  const std::size_t table_cap = 40;
  for (const auto& s : report.sessions) {
    if (s.id >= table_cap) {
      std::printf("  ... (%zu more sessions; see --json for all of them)\n",
                  report.sessions.size() - table_cap);
      break;
    }
    std::printf("%-4u %-22s %-15s %-10s %8d %8zu %9llu", s.id,
                s.pair_label.c_str(), kKindNames[static_cast<int>(s.kind)],
                runtime::to_string(s.status).c_str(), s.attempts,
                s.status == runtime::SessionStatus::kDone ? s.outcome.rounds
                                                          : 0,
                static_cast<unsigned long long>(s.messages));
    if (s.parent >= 0)
      std::printf("   (renegotiates for session %lld)",
                  static_cast<long long>(s.parent));
    if (s.status == runtime::SessionStatus::kFailed ||
        s.status == runtime::SessionStatus::kCancelled)
      std::printf("   [%s]", s.error.c_str());
    std::printf("\n");
  }

  const auto& st = report.stats;
  std::printf("\n%zu sessions: %zu done, %zu failed, %zu cancelled", st.sessions,
              st.done, st.failed, st.cancelled);
  if (st.killed > 0) std::printf(", %zu still killed", st.killed);
  std::printf("; %zu scheduling rounds (peak %zu ready), final tick %llu\n",
              st.rounds, st.peak_ready,
              static_cast<unsigned long long>(st.final_tick));

  std::size_t churn_renegos = 0, failure_renegos = 0;
  for (const auto& s : report.sessions) {
    churn_renegos += s.kind == runtime::SessionKind::kChurnRenegotiation;
    failure_renegos += s.kind == runtime::SessionKind::kFailureRenegotiation;
  }

  ctx.mix(runtime::outcome_digest(report));

  if (ctx.trace != nullptr) {
    // One track per session on the virtual tick clock, plus a timeline
    // track of the declared events. Ticks are logical, so the trace is as
    // thread-stable as the outcome digest.
    if (!cfg.events.empty()) {
      const int timeline = ctx.trace->new_track("timeline");
      static const char* const kEventNames[] = {"start", "churn", "fail",
                                                "restart", "kill", "resume"};
      for (const runtime::ScenarioEvent& ev : cfg.events) {
        obs::Trace::Args args;
        args.add("session", static_cast<std::int64_t>(ev.session));
        if (ev.kind == runtime::EventKind::kFlowChurn ||
            ev.kind == runtime::EventKind::kLinkFailure)
          args.add("param", static_cast<std::int64_t>(ev.param));
        ctx.trace->instant(timeline, ev.at,
                           kEventNames[static_cast<int>(ev.kind)], "timeline",
                           std::move(args));
      }
    }
    for (const auto& s : report.sessions) {
      const int track = ctx.trace->new_track(
          "session " + std::to_string(s.id) + " " + s.pair_label + " (" +
          kKindNames[static_cast<int>(s.kind)] + ")");
      const std::uint64_t dur =
          s.finished_at > s.started_at ? s.finished_at - s.started_at : 0;
      obs::Trace::Args args;
      args.add("status", runtime::to_string(s.status))
          .add("attempts", static_cast<std::int64_t>(s.attempts))
          .add("retries", static_cast<std::int64_t>(s.retries))
          .add("steps", static_cast<std::int64_t>(s.steps))
          .add("messages", static_cast<std::int64_t>(s.messages))
          .add("timeouts", static_cast<std::int64_t>(s.timeouts));
      if (s.status == runtime::SessionStatus::kDone)
        args.add("rounds", static_cast<std::int64_t>(s.outcome.rounds));
      if (s.parent >= 0) args.add("parent", s.parent);
      if (!s.error.empty()) args.add("error", s.error);
      ctx.trace->complete(track, s.started_at, dur,
                          runtime::to_string(s.status), "runtime",
                          std::move(args));
    }
  }

  put_count(ctx.record, "sessions", st.sessions);
  put_count(ctx.record, "sessions_done", st.done);
  put_count(ctx.record, "sessions_failed", st.failed);
  put_count(ctx.record, "sessions_cancelled", st.cancelled);
  put_count(ctx.record, "churn_renegotiations", churn_renegos);
  put_count(ctx.record, "failure_renegotiations", failure_renegos);
  put_count(ctx.record, "sessions_killed", st.killed);
  // Scheduling geometry (rounds, peak_ready, final_tick) stays on stdout
  // only: it depends on where kill/resume events land on the virtual clock,
  // and the durability contract is that a crash-resumed run's RECORD is
  // byte-identical to an uninterrupted one (CI cmp-s the two files).
  put_count(ctx.record, "steps", st.total_steps);
  put_count(ctx.record, "messages", st.messages);
  return 0;
}

// ------------------------------------------------------------------------
// The registry: one row per preset
// ------------------------------------------------------------------------

/// Every preset but custom pins its engine.
const std::vector<std::string> kEngine = {"experiment"};

const std::vector<ScenarioPreset> kScenarios = {
    {.name = "fig4",
     .description = "Fig. 4: distance gain of optimal vs negotiated routing",
     .locked = kEngine, .distance = &kFig4},
    {.name = "fig4_sweep",
     .description = "Fig. 4 swept over universe size (declared sweep.isps "
                    "axis)",
     .defaults = "sweep.isps=20,35,50,65", .locked = kEngine,
     .distance = &kFig4},
    {.name = "fig5",
     .description = "Fig. 5: flow-pair strawman strategies vs negotiation",
     .defaults = "flow-baselines=true",
     .locked = {"experiment", "flow-baselines"}, .distance = &kFig5},
    {.name = "fig6",
     .description = "Fig. 6: per-flow gains of optimal and negotiated routing",
     .locked = kEngine, .distance = &kFig6},
    // verify-incremental=-1 keeps wall_ms an honest measurement in every
    // build type; the ctest suites own the debug cross-check.
    {.name = "fig7",
     .description = "Fig. 7: post-failure MEL, default and negotiated vs "
                    "optimal",
     .defaults = "experiment=bandwidth pairs=60 verify-incremental=-1",
     .locked = kEngine, .bandwidth = &kFig7},
    // The sweep.pairs axis is the paper's 247-instance axis, scaled down.
    {.name = "fig7_sweep",
     .description = "Fig. 7 swept over sampled pair count (declared "
                    "sweep.pairs axis)",
     .defaults = "experiment=bandwidth pairs=60 verify-incremental=-1 "
                 "sweep.pairs=15,30,45,60",
     .locked = kEngine, .bandwidth = &kFig7},
    {.name = "fig8",
     .description = "Fig. 8: unilateral upstream optimisation hurts the "
                    "downstream",
     .defaults = "experiment=bandwidth pairs=60 unilateral=true",
     .locked = {"experiment", "unilateral"}, .bandwidth = &kFig8},
    {.name = "fig9",
     .description = "Fig. 9: diverse criteria (upstream bandwidth, "
                    "downstream distance)",
     .defaults = "experiment=bandwidth pairs=60 oracle-b=distance",
     .locked = kEngine, .bandwidth = &kFig9},
    {.name = "fig10",
     .description = "Fig. 10: impact of cheating on the distance experiment",
     .locked = kEngine, .owns_cheat = true, .distance = &kFig10},
    {.name = "fig11",
     .description = "Fig. 11: impact of cheating on the bandwidth experiment",
     .defaults = "experiment=bandwidth pairs=60", .locked = kEngine,
     .owns_cheat = true, .bandwidth = &kFig11},
    // Seed 0 means "auto-pick a seed that reaches the paper outcome".
    {.name = "table3",
     .description = "Fig. 3 table: the worked preference-list example of "
                    "Fig. 2",
     .defaults = "seed=0", .reads_only = {"seed"}, .run = run_table3},
    {.name = "abl_destination_based",
     .description = "footnote 2: destination-based vs source-destination "
                    "negotiation",
     .defaults = "pairs=60",
     .locked = {"experiment", "flow-baselines", "groups"},
     .run = run_abl_destination_based},
    {.name = "abl_flow_fraction",
     .description = "§5.1: fraction of flows that must move to capture the "
                    "gain",
     .defaults = "pairs=80", .locked = kEngine, .distance = &kFlowFraction},
    {.name = "abl_group_negotiation",
     .description = "§5.1: negotiating in k separate groups vs the whole set",
     .defaults = "pairs=60 sweep.groups=1,2,4,8,16,64",
     .locked = {"experiment", "groups"}, .axis = "groups",
     .distance = &kGroupNegotiation},
    {.name = "abl_ix_count",
     .description = "§5.1: negotiated gain bucketed by interconnection count",
     .defaults = "pairs=150", .locked = kEngine, .distance = &kIxCount},
    {.name = "abl_models",
     .description = "§5.2: workload / capacity / metric sensitivity of Fig. 7",
     .defaults = "experiment=bandwidth pairs=30",
     .locked = {"experiment", "traffic", "capacity-pow2", "capacity-unused",
                "oracle-a", "oracle-b"},
     .axis = "model", .bandwidth = &kModels},
    {.name = "abl_policies",
     .description = "§4: turn / termination / proposal policy comparison",
     .defaults = "pairs=60",
     .locked = {"experiment", "turn", "termination", "proposal"},
     .axis = "policy", .distance = &kPolicies},
    {.name = "abl_pref_range",
     .description = "§5: negotiated gain as a function of the class range P",
     .defaults = "pairs=60 sweep.pref-range=1,2,3,5,10,20,50",
     .locked = {"experiment", "pref-range"}, .axis = "pref-range",
     .distance = &kPrefRange},
    {.name = "runtime",
     .description = "concurrent-runtime scenario: sessions + a declared "
                    "runtime.* timeline",
     .defaults = "experiment=runtime", .locked = kEngine, .run = run_runtime},
    // The many_sessions example as a preset: staggered starts, a
    // mid-session link failure (which needs surviving interconnections), a
    // peer restart, a traffic churn, and one session stuck behind a
    // black-hole transport.
    {.name = "runtime_churn",
     .description = "runtime timeline demo: staggered starts, link failure, "
                    "restart, churn",
     .defaults = "experiment=runtime isps=30 seed=11 pairs=12 "
                 "traffic=identical runtime.stagger=2 runtime.min-links=3 "
                 "runtime.burst=8 runtime.handshake-deadline=16 "
                 "runtime.max-attempts=2 runtime.drop=1 "
                 "runtime.fault-targets=3 "
                 "runtime.events=fail@1/0/busiest,restart@3/1,churn@5/2/4242",
     .locked = kEngine, .run = run_runtime},
    {.name = "custom",
     .description = "generic runner for an arbitrary spec (use --spec=<file> "
                    "or flags)",
     .distance = &kCustomDistance, .bandwidth = &kCustomBandwidth,
     .run = run_runtime},
};

}  // namespace

const std::vector<ScenarioPreset>& scenario_registry() { return kScenarios; }

const ScenarioPreset* find_scenario(const std::string& name) {
  for (const ScenarioPreset& preset : kScenarios)
    if (preset.name == name) return &preset;
  return nullptr;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  names.reserve(kScenarios.size());
  for (const ScenarioPreset& preset : kScenarios)
    names.emplace_back(preset.name);
  return names;
}

void print_scenario_list(std::ostream& os) {
  os << "registered scenarios (run with nexit_run --scenario=<name>):\n\n";
  char line[256];
  std::snprintf(line, sizeof line, "  %-24s %s\n", "name", "description");
  os << line;
  for (const ScenarioPreset& preset : kScenarios) {
    std::snprintf(line, sizeof line, "  %-24s %s\n", preset.name,
                  preset.description);
    os << line;
  }
  os << "\nevery scenario also takes the spec keys (see --help), "
        "--spec=<file>, and --json=<path>.\n";
}

void print_scenario_tsv(std::ostream& os) {
  for (const ScenarioPreset& preset : kScenarios)
    os << preset.name << "\t" << preset.description << "\n";
}

namespace {

bool contains(const std::vector<std::string>& keys, const std::string& key) {
  return std::find(keys.begin(), keys.end(), key) != keys.end();
}

/// Checks `spec` against the preset's input rules: locked keys, the cheat:
/// axis, and which axes it may declare. A `point` is one unit of work and
/// carries no axis but the preset's own. Returns the broken rule ("" when
/// every rule holds).
std::string broken_rule(const ScenarioPreset& preset,
                        const ExperimentSpec& spec, bool point) {
  const std::string name = preset.name;
  const auto locked = [&](const std::string& key) {
    return preset.reads_only.empty() ? contains(preset.locked, key)
                                     : !contains(preset.reads_only, key);
  };
  for (const auto& [key, value] : preset_spec(preset).to_key_values()) {
    if (locked(key) && spec.overridden.count(key) > 0 &&
        spec.value_of(key) != value) {
      return "--" + key + " is ignored by scenario '" + name +
             "' (its run controls this itself)";
    }
  }
  if (preset.owns_cheat && (spec.objective[0].cheat || spec.objective[1].cheat))
    return "scenario '" + name +
           "' controls the cheat: axis itself (it runs both-truthful and "
           "one-cheater arms); give the base oracle only";
  // Any axis but the preset's own must be an orthogonal, unlocked key:
  // sweeping a key the preset controls (or another preset's variant axis)
  // would decorate every point with a value that never takes effect.
  for (const SweepAxis& axis : spec.sweeps) {
    if (preset.axis != nullptr && axis.key == preset.axis) continue;
    const SpecKeyInfo* info = find_spec_key(axis.key);
    if (info != nullptr && info->sweep_only)
      return "--sweep." + axis.key + " is an axis of scenario '" +
             info->owner_scenario + "', not of '" + name + "'";
    if (locked(axis.key))
      return "--sweep." + axis.key + " is locked by scenario '" + name +
             "' (its run controls this key itself)";
    if (point)
      return "sweep." + axis.key + ": a point of scenario '" + name +
             "' carries no axis but its own";
  }
  return "";
}

std::string point_label(const Overrides& overrides) {
  std::string label;
  for (const auto& [key, value] : overrides)
    label += (label.empty() ? "" : " ") + key + "=" + value;
  return label;
}

/// One point of a sweep: the base spec with `overrides` applied through
/// the normal key parsers (exit 2 naming the axis on a malformed value),
/// every axis but `keep` dropped, and dist.* reset: a point is one unit of
/// work — the sweep is what gets distributed, never the point itself (and
/// validate() would reject dist.* on a spec with no axes left). An invalid
/// point prints why and yields nothing.
std::optional<ExperimentSpec> spec_at_point(const ExperimentSpec& base,
                                            const char* keep,
                                            const Overrides& overrides) {
  ExperimentSpec point = base;
  std::erase_if(point.sweeps, [&](const SweepAxis& axis) {
    return keep == nullptr || axis.key != keep;
  });
  point.dist = DistSpec{};
  for (const auto& [key, value] : overrides) {
    const util::FlagErrorContext context("sweep axis --sweep." + key);
    point.merge_from_flags(util::Flags({key + "=" + value}));
  }
  std::string error;
  if (point.validate(&error)) return point;
  std::cerr << "error: sweep point (" << point_label(overrides)
            << "): " << error << "\n";
  return std::nullopt;
}

/// Ships the point specs to dist workers (spawn-local or dist.connect
/// daemons) and collects their results in point order.
int run_jobs(const ScenarioPreset& preset, const ExperimentSpec& spec,
             const std::vector<ExperimentSpec>& points,
             const std::vector<std::string>& labels,
             std::vector<dist::JobResult>* results) {
  dist::CoordinatorConfig cfg;
  cfg.workers = spec.dist.workers;
  cfg.connect = spec.dist.connect;
  cfg.log_dir = spec.dist.log_dir;
  cfg.timeout_ms = spec.dist.timeout_ms;
  cfg.retries = spec.dist.retries;

  std::vector<dist::Job> jobs;
  jobs.reserve(points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    // Workers must never recursively distribute: the shard they receive is
    // the point spec with the dist.* namespace reset to defaults.
    ExperimentSpec shard = points[i];
    shard.dist = DistSpec{};
    jobs.push_back(dist::Job{preset.name, labels[i], shard.to_text()});
  }
  try {
    dist::Coordinator coordinator(cfg);
    return coordinator.run(jobs, results);
  } catch (const std::exception& e) {
    std::cerr << "error: dist: " << e.what() << "\n";
    return 2;
  }
}

/// A snapshot as JSON "obs" entries (counters, then histogram
/// count/sum/non-empty buckets) in `record`'s active obs sink, whether it
/// was taken here or shipped from a worker.
void record_obs_section(util::JsonReport& record, const obs::Snapshot& snap) {
  for (const obs::CounterSnapshot& c : snap.counters)
    record.obs_entry(c.name, static_cast<std::int64_t>(c.value));
  for (const obs::HistogramSnapshot& h : snap.histograms) {
    record.obs_entry(h.name + ".count", static_cast<std::int64_t>(h.count));
    record.obs_entry(h.name + ".sum", static_cast<std::int64_t>(h.sum));
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (h.buckets[b] > 0)
        record.obs_entry(h.name + ".b" + std::to_string(b),
                         static_cast<std::int64_t>(h.buckets[b]));
    }
  }
}

int run_preset(const ScenarioPreset& preset, ScenarioContext& ctx) {
  if (ctx.spec.experiment == ExperimentKind::kDistance &&
      preset.distance != nullptr)
    return run_rows(ctx, preset, *preset.distance);
  if (ctx.spec.experiment == ExperimentKind::kBandwidth &&
      preset.bandwidth != nullptr)
    return run_rows(ctx, preset, *preset.bandwidth);
  return preset.run(ctx);
}

}  // namespace

ExperimentSpec preset_spec(const ScenarioPreset& preset) {
  std::vector<std::string> words;
  std::istringstream in(preset.defaults);
  for (std::string word; in >> word;) words.push_back(word);
  const SpecKeyInfo* axis =
      preset.axis != nullptr ? find_spec_key(preset.axis) : nullptr;
  if (axis != nullptr && axis->sweep_only)
    words.push_back("sweep." + axis->key + "=" + axis->default_value);
  const util::Flags flags(words);
  ExperimentSpec spec;
  spec.merge_from_flags(flags);
  util::reject_unknown(flags);
  spec.overridden.clear();  // preset defaults, not explicit overrides
  return spec;
}


PointOutcome run_point(const ScenarioPreset& preset,
                       const ExperimentSpec& point, util::JsonReport& record,
                       obs::Trace* trace) {
  PointOutcome out;
  out.error = broken_rule(preset, point, true);
  if (!out.error.empty()) {
    out.rc = 2;
    return out;
  }
  obs::Registry::global().reset_counters();
  ScenarioContext ctx{point, record};
  ctx.trace = trace;
  out.rc = run_preset(preset, ctx);
  out.digest = ctx.digest;
  if (out.rc == 0) out.obs = obs::Registry::global().snapshot();
  return out;
}

int run_scenario(const ScenarioPreset& preset, const util::Flags& flags) {
  ExperimentSpec spec = preset_spec(preset);
  const std::string spec_path = flags.get_string("spec", "");
  if (!spec_path.empty()) spec.merge_from_file(spec_path);
  spec.merge_from_flags(flags);

  // --trace is the command-line spelling of the obs.trace spec key (both
  // accepted; the bare flag wins, like any later merge layer).
  const std::string trace_flag = flags.get_string("trace", "");
  if (!trace_flag.empty()) {
    spec.obs.trace = trace_flag;
    spec.overridden.insert("obs.trace");
  }

  util::JsonReport record(flags, preset.name);
  const std::string spec_out = flags.get_string("spec-out", "");
  util::reject_unknown(flags);

  std::string error;
  if (!spec.validate(&error)) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }
  error = broken_rule(preset, spec, false);
  if (!error.empty()) {
    std::cerr << "error: " << error << "\n";
    return 2;
  }

  // --spec-out: archive the fully merged spec (defaults + preset + file +
  // flags, sweep ranges already expanded to explicit values). The archive
  // is a valid --spec input; reloading it *under the same preset* (the
  // header spells out the exact invocation — a spec file does not carry
  // the scenario name, and the `custom` default would run the preset's
  // analysis-free twin) reproduces this run's digest.
  if (!spec_out.empty()) {
    std::ofstream out(spec_out);
    out << "# merged spec written by --spec-out; reload with:\n"
        << "#   nexit_run --scenario=" << preset.name << " --spec=" << spec_out
        << "\n"
        << spec.to_text();
    out.flush();
    if (!out) {
      std::cerr << "error: --spec-out: cannot write " << spec_out << "\n";
      return 2;
    }
    std::cout << "merged spec written to " << spec_out << "\n";
  }

  // The journal mirror directory must be usable before any session starts:
  // a session that creates it mid-run would surface a bad path as a raw
  // filesystem exception after half the timeline ran.
  const std::string& snapshot_dir = spec.runtime.snapshot_dir;
  if (!snapshot_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(snapshot_dir, ec);
    if (ec || !std::filesystem::is_directory(snapshot_dir, ec)) {
      std::cerr << "error: --runtime.snapshot-dir: cannot write "
                << snapshot_dir << "\n";
      return 2;
    }
  }

  {
    // The record's spec section describes the *experiment*; dist.* is
    // execution placement, which the bit-identity contract says must not
    // show in the outcome — so it serializes as defaults here, making a
    // distributed record byte-identical to the in-process one. --spec-out
    // still archives the real dist.* keys (it archives the invocation).
    ExperimentSpec archived = spec;
    archived.dist = DistSpec{};
    // Kill/resume events and the journal mirror directory are crash
    // *placement*, not experiment shape: the durability contract makes the
    // resumed outcome byte-identical to an uninterrupted run's, so the
    // archived spec drops them too — CI cmp-s the two records whole.
    std::erase_if(archived.runtime.events,
                  [](const runtime::ScenarioEvent& ev) {
                    return ev.kind == runtime::EventKind::kKill ||
                           ev.kind == runtime::EventKind::kResume;
                  });
    archived.runtime.snapshot_dir.clear();
    for (const auto& [key, value] : archived.to_key_values())
      record.spec_entry(key, value);
  }

  // Observability setup: one Trace shared by every sweep point (tracks keep
  // incrementing, so a single file holds the whole sweep); the wall-clock
  // phase profile is armed for the run and reported once at the end. Work
  // counters reset per run/point so the "obs" sections compose like the
  // per-point digests.
  const std::unique_ptr<obs::Trace> trace =
      spec.obs.trace.empty() ? nullptr : std::make_unique<obs::Trace>();
  obs::Registry::global().set_timing_enabled(spec.obs.timing);
  obs::Registry::global().reset_timing();

  // The points: the whole spec, or — when it declares axes the preset does
  // not own — their cross product in canonical order, each point running
  // the preset's full pipeline with its own JSON section and digest. The
  // per-axis value cap composes multiplicatively, so bound the *total*
  // before materializing anything — two 10000-value axes must not allocate
  // 10^8 points.
  std::vector<SweepAxis> outer;
  for (const SweepAxis& axis : spec.sweeps) {
    if (preset.axis == nullptr || axis.key != preset.axis)
      outer.push_back(axis);
  }
  const bool sweep = !outer.empty();
  std::vector<ExperimentSpec> points = {spec};
  std::vector<std::string> labels = {""};
  if (sweep) {
    std::size_t total_points = 1;
    for (const SweepAxis& axis : outer) {
      total_points *= axis.values.size();
      if (total_points > 4096) {
        std::cerr << "error: sweep cross product exceeds 4096 points (";
        for (const SweepAxis& a : outer)
          std::cerr << a.key << "[" << a.values.size() << "]";
        std::cerr << ") — shrink an axis\n";
        return 2;
      }
    }
    points.clear();
    labels.clear();
    for (const Overrides& overrides : expand_sweep(outer)) {
      std::optional<ExperimentSpec> point =
          spec_at_point(spec, preset.axis, overrides);
      if (!point) return 2;
      points.push_back(std::move(*point));
      labels.push_back(point_label(overrides));
    }
    std::printf("declared sweep: %zu points over", points.size());
    for (const SweepAxis& axis : outer)
      std::printf(" %s[%zu]", axis.key.c_str(), axis.values.size());
    std::printf("\n");
  }

  // Points run here, or across dist.* workers (a whole runtime timeline
  // can go as one shard — validate() guarantees dist.* never reaches a
  // non-sweep distance/bandwidth run).
  const bool distributed = spec.dist.enabled();
  std::vector<dist::JobResult> shipped;
  if (distributed) {
    const int rc = run_jobs(preset, spec, points, labels, &shipped);
    if (rc != 0) return rc;
  }

  // One fold over the per-point results, wherever they ran: metrics, the
  // obs section and (in a sweep) the point digest go to the point's
  // section, and the point digests fold into the sweep digest in odometer
  // order — what makes a distributed record byte-identical to this one.
  std::uint64_t digest = 0;
  std::uint64_t sweep_digest = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (sweep) record.begin_point(labels[i]);
    PointOutcome out;
    if (distributed) {
      const dist::JobResult& result = shipped[i];
      out = {result.rc, result.error, result.digest, result.obs};
      if (out.rc != 0) {
        std::cerr << "error: dist job " << i
                  << (labels[i].empty() ? "" : " (" + labels[i] + ")") << ": "
                  << out.error << "\n";
        return out.rc;
      }
      for (const auto& [name, value] : result.metrics)
        record.metric_serialized(name, value);
      if (sweep) {
        std::printf("sweep point %zu/%zu: %s — digest %s\n", i + 1,
                    points.size(), labels[i].c_str(),
                    util::digest_hex(out.digest).c_str());
      }
    } else {
      if (sweep) {
        std::printf("\n===== sweep point %zu/%zu: %s =====\n\n", i + 1,
                    points.size(), labels[i].c_str());
      }
      out = run_point(preset, points[i], record, trace.get());
      if (out.rc != 0) {
        if (!out.error.empty()) std::cerr << "error: " << out.error << "\n";
        return out.rc;
      }
      if (sweep)
        std::printf("\npoint digest: %s\n", util::digest_hex(out.digest).c_str());
    }
    record_obs_section(record, out.obs);
    if (sweep) record.metric("digest", util::digest_hex(out.digest));
    digest = out.digest;
    sweep_digest = util::fnv1a_mix(sweep_digest, out.digest);
  }
  if (sweep) {
    record.end_points();
    digest = sweep_digest;
  }

  if (spec.obs.timing) {
    // The wall-clock phase profile as the digest-excluded "timing"
    // section, reported once per run, never per sweep point.
    for (const obs::PhaseSnapshot& p :
         obs::Registry::global().timing_snapshot()) {
      record.timing_entry(std::string("phase.") + p.name + ".calls",
                          static_cast<std::int64_t>(p.calls));
      record.timing_entry(std::string("phase.") + p.name + ".ms",
                          static_cast<double>(p.ns) / 1e6);
    }
    obs::Registry::global().set_timing_enabled(false);
  }
  if (trace != nullptr) trace->write(spec.obs.trace);
  std::printf("\noutcome digest: %s\n", util::digest_hex(digest).c_str());
  if (sweep)
    record.metric("sweep_points", static_cast<std::int64_t>(points.size()));
  record.metric("digest", util::digest_hex(digest));
  record.write();
  return 0;
}

}  // namespace nexit::sim
