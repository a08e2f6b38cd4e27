#include "sim/scenarios.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <ostream>
#include <set>

#include "core/engine.hpp"
#include "core/oracle_registry.hpp"
#include "dist/coordinator.hpp"
#include "core/problem.hpp"
#include "geo/coord.hpp"
#include "graph/graph.hpp"
#include "metrics/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/wall_clock.hpp"
#include "routing/pair_routing.hpp"
#include "sim/report.hpp"
#include "topology/isp_topology.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

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

std::vector<std::string> ScenarioContext::axis_values(
    const std::string& key) const {
  const SweepAxis* axis = spec.axis(key);
  return axis != nullptr ? axis->values : std::vector<std::string>{};
}

ExperimentSpec ScenarioContext::spec_with(const std::string& key,
                                          const std::string& value) const {
  ExperimentSpec point = spec;
  {
    const util::FlagErrorContext context("sweep axis --sweep." + key);
    point.merge_from_flags(util::Flags({key + "=" + value}));
  }
  std::string error;
  if (!point.validate(&error)) {
    std::cerr << "error: sweep." << key << "=" << value << ": " << error
              << "\n";
    std::exit(2);
  }
  return point;
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

// nexit-lint: allow(taint-flow): wall-clock phase timings are run-dependent by design; run_fig6/run_fig7 report them via the digest-excluded wall_ms metric section
double ms_since(Clock::TimePoint t0) { return Clock::ms_since(t0); }

/// A run that produced nothing must not print NaN percentages, emit an
/// all-zero "everything is fine" digest, and exit 0 — scripts consuming the
/// digest or the JSON record would read a no-op as success.
int no_samples() {
  std::cerr << "error: the universe yielded no usable samples — grow "
               "--isps/--pairs (or loosen the failure model)\n";
  return 1;
}

/// Oracle-evaluation work summed over an experiment's samples (the same
/// four counters live on both sample types).
struct EvalTotals {
  std::size_t calls_full = 0;
  std::size_t calls_incremental = 0;
  std::size_t rows = 0;
  std::size_t rows_full_equivalent = 0;
};

template <typename Sample>
EvalTotals sum_eval_telemetry(const std::vector<Sample>& samples) {
  EvalTotals t;
  for (const Sample& s : samples) {
    t.calls_full += s.eval_calls_full;
    t.calls_incremental += s.eval_calls_incremental;
    t.rows += s.eval_rows_computed;
    t.rows_full_equivalent += s.eval_rows_full_equivalent;
  }
  return t;
}

void record_eval_telemetry(ScenarioContext& ctx, const EvalTotals& t) {
  ctx.record.metric("eval_calls_full",
                    static_cast<std::int64_t>(t.calls_full));
  ctx.record.metric("eval_calls_incremental",
                    static_cast<std::int64_t>(t.calls_incremental));
  ctx.record.metric("eval_rows_computed", static_cast<std::int64_t>(t.rows));
  ctx.record.metric("eval_rows_full_equivalent",
                    static_cast<std::int64_t>(t.rows_full_equivalent));
}

// ------------------------------------------------------------------------
// fig4: distance gain of optimal vs negotiated routing
// ------------------------------------------------------------------------

int run_fig4(ScenarioContext& ctx) {
  const DistanceExperimentConfig cfg = ctx.spec.to_distance_config();
  print_bench_header("Figure 4",
                     "distance gain of optimal vs negotiated routing",
                     ctx.spec.universe_summary());
  const auto samples = run_distance_experiment(cfg);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);
  std::cout << "samples: " << samples.size() << " ISP pairs\n";

  util::Cdf total_opt, total_neg, indiv_opt, indiv_neg;
  std::size_t opt_losers = 0, neg_losers = 0, isps = 0;
  for (const auto& s : samples) {
    total_opt.add(s.total_gain_pct(s.optimal_km));
    total_neg.add(s.total_gain_pct(s.negotiated_km));
    for (int side = 0; side < 2; ++side) {
      const double og = s.side_gain_pct(s.optimal_side_km, side);
      const double ng = s.side_gain_pct(s.negotiated_side_km, side);
      indiv_opt.add(og);
      indiv_neg.add(ng);
      ++isps;
      if (og < -0.5) ++opt_losers;
      if (ng < -0.5) ++neg_losers;
    }
  }

  print_cdf_figure("Fig 4a", "total gain across both ISPs",
                   "% reduction in total flow km vs default routing",
                   {"negotiated", "optimal"}, {&total_neg, &total_opt});
  print_cdf_figure("Fig 4b", "individual ISP gain",
                   "% reduction in own-network flow km vs default",
                   {"negotiated", "optimal"}, {&indiv_neg, &indiv_opt});

  const double med_opt = total_opt.value_at(0.5);
  const double med_neg = total_neg.value_at(0.5);
  std::cout << "\n";
  paper_check(
      "negotiated total gain is close to globally optimal (within ~1/3)",
      "median optimal " + std::to_string(med_opt) + "%, negotiated " +
          std::to_string(med_neg) + "%",
      med_neg >= med_opt * 0.5);
  paper_check("median total gain is modest (paper ~4%; price of anarchy low)",
              "median total optimal gain " + std::to_string(med_opt) + "%",
              med_opt < 25.0);
  paper_check(
      "a sizable fraction of ISPs lose under GLOBAL optimisation (paper ~1/3)",
      std::to_string(opt_losers) + "/" + std::to_string(isps) +
          " ISPs lose >0.5% of own distance",
      opt_losers > isps / 20);
  paper_check("no ISP loses under NEGOTIATION",
              std::to_string(neg_losers) + "/" + std::to_string(isps) +
                  " ISPs lose >0.5%",
              neg_losers == 0);

  ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
  ctx.record.metric_cdf("total_gain_pct.negotiated", total_neg);
  ctx.record.metric_cdf("total_gain_pct.optimal", total_opt);
  ctx.record.metric_cdf("individual_gain_pct.negotiated", indiv_neg);
  ctx.record.metric_cdf("individual_gain_pct.optimal", indiv_opt);
  ctx.record.metric("isps_losing.optimal", static_cast<std::int64_t>(opt_losers));
  ctx.record.metric("isps_losing.negotiated",
                    static_cast<std::int64_t>(neg_losers));
  return 0;
}

// ------------------------------------------------------------------------
// fig5: flow-pair strawman strategies
// ------------------------------------------------------------------------

int run_fig5(ScenarioContext& ctx) {
  const DistanceExperimentConfig cfg = ctx.spec.to_distance_config();
  print_bench_header(
      "Figure 5", "flow-pair strategies that merely discard bad alternatives",
      ctx.spec.universe_summary());
  const auto samples = run_distance_experiment(cfg);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);
  std::cout << "samples: " << samples.size() << " ISP pairs\n";

  util::Cdf pareto, both_better, negotiated, optimal;
  for (const auto& s : samples) {
    pareto.add(s.total_gain_pct(s.pareto_km));
    both_better.add(s.total_gain_pct(s.bothbetter_km));
    negotiated.add(s.total_gain_pct(s.negotiated_km));
    optimal.add(s.total_gain_pct(s.optimal_km));
  }

  print_cdf_figure("Fig 5", "total gain of the flow-pair strategies",
                   "% reduction in total flow km vs default routing",
                   {"flow-both-better", "flow-Pareto", "negotiated", "optimal"},
                   {&both_better, &pareto, &negotiated, &optimal});

  const double med_pareto = pareto.value_at(0.5);
  const double med_both = both_better.value_at(0.5);
  const double med_neg = negotiated.value_at(0.5);
  std::cout << "\n";
  paper_check(
      "flow-pair strategies capture little of the negotiated gain",
      "medians: flow-Pareto " + std::to_string(med_pareto) +
          "%, flow-both-better " + std::to_string(med_both) + "%, negotiated " +
          std::to_string(med_neg) + "%",
      med_pareto < med_neg * 0.5 + 0.5 && med_both < med_neg * 0.75 + 0.5);

  ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
  ctx.record.metric_cdf("total_gain_pct.pareto", pareto);
  ctx.record.metric_cdf("total_gain_pct.both_better", both_better);
  ctx.record.metric_cdf("total_gain_pct.negotiated", negotiated);
  ctx.record.metric_cdf("total_gain_pct.optimal", optimal);
  return 0;
}

// ------------------------------------------------------------------------
// fig6: flow-level view
// ------------------------------------------------------------------------

int run_fig6(ScenarioContext& ctx) {
  const DistanceExperimentConfig cfg = ctx.spec.to_distance_config();
  print_bench_header("Figure 6",
                     "flow-level gains of optimal and negotiated routing",
                     ctx.spec.universe_summary());
  const auto t0 = Clock::now();
  const auto samples = run_distance_experiment(cfg);
  const double wall_ms = ms_since(t0);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);

  util::Cdf flow_opt, flow_neg;
  std::size_t flows = 0, moved = 0;
  double neg20 = 0, neg50 = 0, opt20 = 0;
  for (const auto& s : samples) {
    for (double g : s.flow_gain_pct_optimal) {
      flow_opt.add(g);
      if (g > 20.0) ++opt20;
    }
    for (double g : s.flow_gain_pct_negotiated) {
      flow_neg.add(g);
      if (g > 20.0) ++neg20;
      if (g > 50.0) ++neg50;
    }
    flows += s.flow_count;
    moved += s.flows_moved;
  }
  std::cout << "samples: " << samples.size() << " ISP pairs, " << flows
            << " flows\n";

  print_cdf_figure("Fig 6", "per-flow gain",
                   "% reduction of the flow's end-to-end km vs default",
                   {"negotiated", "optimal"}, {&flow_neg, &flow_opt});

  std::cout << "\n";
  paper_check(
      "a heavy tail of flows gains substantially (paper: 7% >20%, 1% >50%)",
      std::to_string(100.0 * neg20 / flows) + "% of flows gain >20%, " +
          std::to_string(100.0 * neg50 / flows) + "% gain >50% (negotiated)",
      neg20 > 0 && neg50 > 0 && neg20 >= neg50);
  paper_check(
      "negotiation catches almost all flows that optimal improves >20%",
      std::to_string(neg20) + " vs " + std::to_string(opt20) +
          " flows improved >20% (negotiated vs optimal)",
      neg20 >= 0.6 * opt20);
  paper_check(
      "only a minority of flows needs non-default routing (paper ~20%)",
      std::to_string(100.0 * moved / flows) + "% of flows moved off default",
      moved < flows / 2);

  const EvalTotals totals = sum_eval_telemetry(samples);
  std::printf(
      "\nwall-clock %.1f ms; evaluate calls %zu full + %zu incremental; "
      "preference rows %zu of %zu full-equivalent\n",
      wall_ms, totals.calls_full, totals.calls_incremental, totals.rows,
      totals.rows_full_equivalent);

  ctx.record.metric("wall_ms", wall_ms);
  ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
  ctx.record.metric("flows", static_cast<std::int64_t>(flows));
  ctx.record.metric("flows_moved", static_cast<std::int64_t>(moved));
  record_eval_telemetry(ctx, totals);
  ctx.record.metric_cdf("flow_gain_pct.negotiated", flow_neg);
  ctx.record.metric_cdf("flow_gain_pct.optimal", flow_opt);
  return 0;
}

// ------------------------------------------------------------------------
// fig7: MEL after failures (bandwidth oracles)
// ------------------------------------------------------------------------

int run_fig7(ScenarioContext& ctx) {
  const BandwidthExperimentConfig cfg = ctx.spec.to_bandwidth_config();
  print_bench_header("Figure 7",
                     "MEL after failures: default and negotiated vs optimal",
                     ctx.spec.universe_summary());
  const auto t0 = Clock::now();
  const auto samples = run_bandwidth_experiment(cfg);
  const double wall_ms = ms_since(t0);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);
  std::cout << "samples: " << samples.size() << " failed interconnections\n";

  util::Cdf def_up, neg_up, def_down, neg_down;
  std::size_t def_up_gt2 = 0, def_up_gt5 = 0, neg_up_near1 = 0;
  for (const auto& s : samples) {
    const double du = s.ratio(s.mel_default, 0);
    const double nu = s.ratio(s.mel_negotiated, 0);
    def_up.add(du);
    neg_up.add(nu);
    def_down.add(s.ratio(s.mel_default, 1));
    neg_down.add(s.ratio(s.mel_negotiated, 1));
    if (du > 2.0) ++def_up_gt2;
    if (du > 5.0) ++def_up_gt5;
    if (nu < 1.25) ++neg_up_near1;
  }

  print_cdf_figure("Fig 7 (left)", "upstream ISP",
                   "MEL relative to MEL of optimal routing",
                   {"negotiated", "default"}, {&neg_up, &def_up});
  print_cdf_figure("Fig 7 (right)", "downstream ISP",
                   "MEL relative to MEL of optimal routing",
                   {"negotiated", "default"}, {&neg_down, &def_down});

  const std::size_t n = samples.size();
  std::cout << "\n";
  paper_check(
      "default routing often overloads the upstream (paper: ratio >2 for half)",
      std::to_string(100.0 * def_up_gt2 / n) + "% of samples >2x optimal, " +
          std::to_string(100.0 * def_up_gt5 / n) + "% >5x",
      def_up_gt2 > n / 10);
  paper_check(
      "negotiated routing is close to optimal (most MEL ratios ~1)",
      std::to_string(100.0 * neg_up_near1 / n) +
          "% of upstream samples within 1.25x of optimal; median " +
          std::to_string(neg_up.value_at(0.5)),
      neg_up.value_at(0.5) < 1.3);
  paper_check("negotiated stochastically dominates default (upstream)",
              "median default " + std::to_string(def_up.value_at(0.5)) +
                  " vs negotiated " + std::to_string(neg_up.value_at(0.5)),
              neg_up.value_at(0.5) <= def_up.value_at(0.5) + 1e-9);

  // Evaluate-call work: how much of the naive full-recompute row work the
  // negotiations actually performed (1.0 with --incremental=false).
  const EvalTotals totals = sum_eval_telemetry(samples);
  const double row_fraction =
      totals.rows_full_equivalent > 0
          ? static_cast<double>(totals.rows) /
                static_cast<double>(totals.rows_full_equivalent)
          : 1.0;
  std::printf(
      "\nwall-clock %.1f ms; evaluate calls %zu full + %zu incremental; "
      "preference rows %zu of %zu full-equivalent (%.1f%%)\n",
      wall_ms, totals.calls_full, totals.calls_incremental, totals.rows,
      totals.rows_full_equivalent, 100.0 * row_fraction);

  ctx.record.metric("wall_ms", wall_ms);
  record_eval_telemetry(ctx, totals);
  ctx.record.metric("eval_row_fraction", row_fraction);
  ctx.record.metric("samples", static_cast<std::int64_t>(n));
  ctx.record.metric_cdf("mel_ratio.upstream.default", def_up);
  ctx.record.metric_cdf("mel_ratio.upstream.negotiated", neg_up);
  ctx.record.metric_cdf("mel_ratio.downstream.default", def_down);
  ctx.record.metric_cdf("mel_ratio.downstream.negotiated", neg_down);
  return 0;
}

// ------------------------------------------------------------------------
// fig8: unilateral upstream optimisation
// ------------------------------------------------------------------------

int run_fig8(ScenarioContext& ctx) {
  const BandwidthExperimentConfig cfg = ctx.spec.to_bandwidth_config();
  print_bench_header("Figure 8",
                     "unilateral upstream optimisation, impact on the downstream",
                     ctx.spec.universe_summary());
  const auto samples = run_bandwidth_experiment(cfg);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);
  std::cout << "samples: " << samples.size() << " failed interconnections\n";

  util::Cdf down_ratio;  // unilateral vs default, downstream links
  std::size_t helped = 0, hurt = 0, hurt2x = 0;
  for (const auto& s : samples) {
    if (s.mel_default[1] <= 0.0 || s.mel_unilateral[1] <= 0.0) continue;
    const double r = s.mel_unilateral[1] / s.mel_default[1];
    down_ratio.add(r);
    if (r < 0.99) ++helped;
    if (r > 1.01) ++hurt;
    if (r > 2.0) ++hurt2x;
  }

  print_cdf_figure(
      "Fig 8", "downstream impact of upstream-centric optimisation",
      "downstream MEL, upstream-optimized / default (>1 means harmed)",
      {"upstream-optimized/default"}, {&down_ratio});

  const std::size_t n = down_ratio.sorted_samples().size();
  if (n == 0) return no_samples();
  std::cout << "\n";
  paper_check(
      "the downstream outcome is unpredictable: both helped and hurt occur",
      std::to_string(100.0 * helped / n) + "% helped, " +
          std::to_string(100.0 * hurt / n) + "% hurt, " +
          std::to_string(100.0 * hurt2x / n) + "% hurt >2x",
      helped > 0 && hurt > 0);
  paper_check("a noticeable share of samples is harmed badly (paper ~10% >2x)",
              std::to_string(100.0 * hurt2x / n) + "% over 2x default MEL",
              hurt2x > 0);

  ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
  ctx.record.metric_cdf("downstream_unilateral_ratio", down_ratio);
  return 0;
}

// ------------------------------------------------------------------------
// fig9: diverse criteria (upstream bandwidth, downstream distance)
// ------------------------------------------------------------------------

int run_fig9(ScenarioContext& ctx) {
  const BandwidthExperimentConfig cfg = ctx.spec.to_bandwidth_config();
  print_bench_header("Figure 9",
                     "diverse criteria: upstream=bandwidth, downstream=distance",
                     ctx.spec.universe_summary());
  const auto samples = run_bandwidth_experiment(cfg);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);
  std::cout << "samples: " << samples.size() << " failed interconnections\n";

  util::Cdf up_def, up_neg, down_gain;
  for (const auto& s : samples) {
    up_def.add(s.ratio(s.mel_default, 0));
    up_neg.add(s.ratio(s.mel_negotiated, 0));
    down_gain.add(s.downstream_distance_gain_pct);
  }

  print_cdf_figure("Fig 9 (left)", "upstream ISP controls overload",
                   "MEL relative to MEL of optimal routing",
                   {"negotiated", "default"}, {&up_neg, &up_def});
  print_cdf_figure("Fig 9 (right)", "downstream ISP reduces distance",
                   "% reduction of affected flows' km inside downstream "
                   "vs default",
                   {"negotiated"}, {&down_gain});

  std::cout << "\n";
  paper_check(
      "upstream effectively controls overload despite diverse criteria",
      "median upstream MEL ratio: negotiated " +
          std::to_string(up_neg.value_at(0.5)) + " vs default " +
          std::to_string(up_def.value_at(0.5)),
      up_neg.value_at(0.5) <= up_def.value_at(0.5) + 1e-9);
  paper_check(
      "downstream significantly reduces its distance",
      "median downstream distance gain " +
          std::to_string(down_gain.value_at(0.5)) + "%, p90 " +
          std::to_string(down_gain.value_at(0.9)) + "%",
      down_gain.value_at(0.9) > 5.0 && down_gain.min() > -1.0);

  ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
  ctx.record.metric_cdf("mel_ratio.upstream.default", up_def);
  ctx.record.metric_cdf("mel_ratio.upstream.negotiated", up_neg);
  ctx.record.metric_cdf("downstream_distance_gain_pct", down_gain);
  return 0;
}

// ------------------------------------------------------------------------
// fig10: cheating, distance experiment
// ------------------------------------------------------------------------

/// fig10/fig11 own the cheat axis (they compare both-truthful against
/// one-cheater), so an explicit cheat: objective cannot mean anything —
/// silently stripping or honouring it would mislabel one arm. The preset
/// never sets cheat, so any cheat=true here came from the user.
bool reject_explicit_cheat(const ScenarioContext& ctx, const char* name) {
  if (!ctx.spec.objective[0].cheat && !ctx.spec.objective[1].cheat)
    return false;
  std::cerr << "error: scenario '" << name
            << "' controls the cheat: axis itself (it runs both-truthful "
               "and one-cheater arms); give the base oracle only\n";
  return true;
}

int run_fig10(ScenarioContext& ctx) {
  if (reject_explicit_cheat(ctx, "fig10")) return 2;
  const DistanceExperimentConfig honest = ctx.spec.to_distance_config();
  DistanceExperimentConfig cheating = honest;
  cheating.objective[0].cheat = true;

  print_bench_header("Figure 10", "impact of cheating, distance experiment",
                     ctx.spec.universe_summary());
  const auto hs = run_distance_experiment(honest);
  const auto cs = run_distance_experiment(cheating);
  if (hs.empty()) return no_samples();
  ctx.mix(hs);
  ctx.mix(cs);
  std::cout << "samples: " << hs.size() << " ISP pairs (x2 runs)\n";

  util::Cdf total_honest, total_cheat, indiv_honest, cheater_gain, truthful_gain;
  std::vector<double> cheater_pcts, cheater_honest_pcts;
  std::size_t truthful_losses = 0;
  // Today both runs yield one sample per pair so the sizes always match;
  // the min() keeps this loop safe (like fig11's) if the distance engine
  // ever filters samples per run.
  const std::size_t n10 = std::min(hs.size(), cs.size());
  for (std::size_t i = 0; i < n10; ++i) {
    total_honest.add(hs[i].total_gain_pct(hs[i].negotiated_km));
    total_cheat.add(cs[i].total_gain_pct(cs[i].negotiated_km));
    for (int side = 0; side < 2; ++side)
      indiv_honest.add(hs[i].side_gain_pct(hs[i].negotiated_side_km, side));
    cheater_gain.add(cs[i].side_gain_pct(cs[i].negotiated_side_km, 0));
    truthful_gain.add(cs[i].side_gain_pct(cs[i].negotiated_side_km, 1));
    cheater_pcts.push_back(cs[i].side_gain_pct(cs[i].negotiated_side_km, 0));
    cheater_honest_pcts.push_back(
        hs[i].side_gain_pct(hs[i].negotiated_side_km, 0));
    if (cs[i].side_gain_pct(cs[i].negotiated_side_km, 1) < -0.5)
      ++truthful_losses;
  }
  const double mean_cheater = util::mean(cheater_pcts);
  const double mean_cheater_honest = util::mean(cheater_honest_pcts);

  print_cdf_figure("Fig 10a", "total gain across both ISPs",
                   "% reduction in total flow km vs default",
                   {"both-truthful", "one-cheater"},
                   {&total_honest, &total_cheat});
  print_cdf_figure("Fig 10b", "individual gains",
                   "% reduction in own-network km vs default",
                   {"both-truthful", "cheater", "truthful"},
                   {&indiv_honest, &cheater_gain, &truthful_gain});

  std::cout << "\n";
  paper_check("cheating reduces the total gain",
              "median total: honest " +
                  std::to_string(total_honest.value_at(0.5)) +
                  "% vs one-cheater " +
                  std::to_string(total_cheat.value_at(0.5)) + "%",
              total_cheat.value_at(0.5) <= total_honest.value_at(0.5) + 1e-9);
  paper_check(
      "cheating is self-defeating: the cheater gains LESS than when truthful",
      "cheater mean gain " + std::to_string(mean_cheater) +
          "% vs its gain when honest " + std::to_string(mean_cheater_honest) +
          "%",
      mean_cheater <= mean_cheater_honest + 1e-9);
  paper_check("the truthful ISP never ends below its default",
              std::to_string(truthful_losses) + " losses >0.5%",
              truthful_losses == 0);

  ctx.record.metric("samples", static_cast<std::int64_t>(hs.size()));
  ctx.record.metric_cdf("total_gain_pct.honest", total_honest);
  ctx.record.metric_cdf("total_gain_pct.cheating", total_cheat);
  ctx.record.metric_cdf("cheater_gain_pct", cheater_gain);
  ctx.record.metric_cdf("truthful_gain_pct", truthful_gain);
  return 0;
}

// ------------------------------------------------------------------------
// fig11: cheating, bandwidth experiment
// ------------------------------------------------------------------------

int run_fig11(ScenarioContext& ctx) {
  if (reject_explicit_cheat(ctx, "fig11")) return 2;
  const BandwidthExperimentConfig honest = ctx.spec.to_bandwidth_config();
  BandwidthExperimentConfig cheating = honest;
  cheating.objective[0].cheat = true;

  print_bench_header("Figure 11", "impact of cheating, bandwidth experiment",
                     ctx.spec.universe_summary());
  const auto hs = run_bandwidth_experiment(honest);
  const auto cs = run_bandwidth_experiment(cheating);
  if (hs.empty()) return no_samples();
  ctx.mix(hs);
  ctx.mix(cs);
  std::cout << "samples: " << hs.size() << " failed interconnections (x2 runs)\n";

  util::Cdf up_honest, up_cheat, up_default, down_honest, down_cheat,
      down_default;
  const std::size_t n = std::min(hs.size(), cs.size());
  for (std::size_t i = 0; i < n; ++i) {
    up_honest.add(hs[i].ratio(hs[i].mel_negotiated, 0));
    up_cheat.add(cs[i].ratio(cs[i].mel_negotiated, 0));
    up_default.add(hs[i].ratio(hs[i].mel_default, 0));
    down_honest.add(hs[i].ratio(hs[i].mel_negotiated, 1));
    down_cheat.add(cs[i].ratio(cs[i].mel_negotiated, 1));
    down_default.add(hs[i].ratio(hs[i].mel_default, 1));
  }

  print_cdf_figure("Fig 11 (left)", "upstream ISP (the cheater)",
                   "MEL relative to MEL of optimal routing",
                   {"both-truthful", "one-cheater", "default"},
                   {&up_honest, &up_cheat, &up_default});
  print_cdf_figure("Fig 11 (right)", "downstream ISP (truthful)",
                   "MEL relative to MEL of optimal routing",
                   {"both-truthful", "one-cheater", "default"},
                   {&down_honest, &down_cheat, &down_default});

  std::cout << "\n";
  paper_check(
      "cheating does not help the cheating upstream (median MEL ratio)",
      "truthful " + std::to_string(up_honest.value_at(0.5)) + " vs cheating " +
          std::to_string(up_cheat.value_at(0.5)),
      up_cheat.value_at(0.5) >= up_honest.value_at(0.5) - 0.05);
  paper_check(
      "negotiation with a cheater is still no worse than default (median)",
      "cheater-run downstream " + std::to_string(down_cheat.value_at(0.5)) +
          " vs default " + std::to_string(down_default.value_at(0.5)),
      down_cheat.value_at(0.5) <= down_default.value_at(0.5) + 0.05);

  ctx.record.metric("samples", static_cast<std::int64_t>(n));
  ctx.record.metric_cdf("mel_ratio.upstream.honest", up_honest);
  ctx.record.metric_cdf("mel_ratio.upstream.cheating", up_cheat);
  ctx.record.metric_cdf("mel_ratio.downstream.honest", down_honest);
  ctx.record.metric_cdf("mel_ratio.downstream.cheating", down_cheat);
  return 0;
}

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
    for (const auto& fp : e.classes.flows)
      e.true_value.emplace_back(fp.pref_of_candidate.begin(),
                                fp.pref_of_candidate.end());
    return e;
  }
  [[nodiscard]] bool wants_reassignment() const override { return reassign_; }

 private:
  std::vector<core::PreferenceList> phases_;
  bool reassign_ = false;
  std::size_t calls_ = 0;
};

core::PreferenceList table_rows(const std::vector<std::vector<int>>& r) {
  core::PreferenceList l;
  for (std::size_t i = 0; i < r.size(); ++i)
    l.flows.push_back({traffic::FlowId{static_cast<std::int32_t>(i)}, r[i]});
  return l;
}

int run_table3(ScenarioContext& ctx) {
  const std::uint64_t seed_flag = ctx.spec.seed;
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

  int reached_paper_outcome = 0;
  const int runs = 100;
  std::uint64_t shown_seed = seed_flag;
  for (std::uint64_t seed = 1; seed <= runs; ++seed) {
    TableOracle a({table_rows({{-1, 0}, {0, 0}})}, false);
    TableOracle b({table_rows({{0, 0}, {0, 0}}),
                   table_rows({{0, 0}, {1, 0}})}, true);
    core::NegotiationConfig cfg;
    cfg.seed = seed;
    cfg.reassign_traffic_fraction = 0.5;
    cfg.record_trace = true;
    core::NegotiationEngine engine(problem, a, b, cfg);
    auto out = engine.run();
    const bool paper_outcome = out.assignment.ix_of_flow[1] == 0;  // f3 on top
    if (paper_outcome && shown_seed == 0) shown_seed = seed;
    reached_paper_outcome += paper_outcome ? 1 : 0;
  }

  // Re-run the chosen seed with a printed trace.
  TableOracle a({table_rows({{-1, 0}, {0, 0}})}, false);
  TableOracle b({table_rows({{0, 0}, {0, 0}}),
                 table_rows({{0, 0}, {1, 0}})}, true);
  core::NegotiationConfig cfg;
  cfg.seed = shown_seed == 0 ? 1 : shown_seed;
  cfg.reassign_traffic_fraction = 0.5;
  cfg.record_trace = true;
  core::NegotiationEngine engine(problem, a, b, cfg);
  auto out = engine.run();

  std::cout << "\nNegotiation trace (seed " << cfg.seed << "):\n";
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
  ctx.mix(cfg.seed);
  for (std::size_t ix : out.assignment.ix_of_flow) ctx.mix(ix);
  ctx.mix_double(out.true_gain_a);
  ctx.mix_double(out.true_gain_b);
  ctx.record.metric("paper_outcome_runs",
                    static_cast<std::int64_t>(reached_paper_outcome));
  ctx.record.metric("shown_seed", static_cast<std::int64_t>(cfg.seed));
  return 0;
}

// ------------------------------------------------------------------------
// abl_destination_based: footnote-2 destination-based routing
// ------------------------------------------------------------------------

/// Everything one pair contributes to the aggregates, filled by a worker
/// into its own index-addressed slot (same scheme as the experiment
/// engines: bit-identical results for any thread count).
struct DestinationPairResult {
  double sd_gain = 0.0;
  double db_gain = 0.0;
  double db_side_gain[2] = {0.0, 0.0};
};

int run_abl_destination_based(ScenarioContext& ctx) {
  const UniverseConfig ucfg = ctx.spec.universe();
  const DistanceExperimentConfig base = ctx.spec.to_distance_config();
  const core::NegotiationConfig ncfg_base = base.negotiation;
  print_bench_header("Ablation: destination-based routing (footnote 2)",
                     "source-destination vs destination-based negotiation",
                     ctx.spec.universe_summary());

  const auto pairs = build_pair_universe(ucfg, 2);
  if (pairs.empty()) return no_samples();

  // Pre-fork per-pair streams (traffic, then one seed source for both
  // modes) so the sweep shards across workers deterministically; see
  // util::fork_streams.
  util::Rng rng(ucfg.seed ^ 0xdddd);
  std::vector<std::vector<util::Rng>> streams =
      util::fork_streams(rng, pairs.size(), 2);

  std::vector<DestinationPairResult> results(pairs.size());
  const auto run_pair = [&](std::size_t pair_index) {
    const auto& pair = pairs[pair_index];
    routing::PairRouting routing(pair);
    traffic::TrafficConfig tcfg;
    tcfg.model = traffic::WorkloadModel::kIdentical;
    util::Rng trng = streams[pair_index][0];  // traffic stream
    auto tm = traffic::TrafficMatrix::build_bidirectional(pair, tcfg, trng);
    std::vector<std::size_t> cands(pair.interconnection_count());
    for (std::size_t i = 0; i < cands.size(); ++i) cands[i] = i;

    DestinationPairResult& res = results[pair_index];
    auto run_mode = [&](const core::NegotiationProblem& problem,
                        double& total_out, double* side_out) {
      const core::OracleRegistry& registry = core::OracleRegistry::global();
      const core::BuiltOracle a =
          registry.build(base.objective[0], {0, ncfg_base.preferences, nullptr});
      const core::BuiltOracle b =
          registry.build(base.objective[1], {1, ncfg_base.preferences, nullptr});
      core::NegotiationConfig ncfg = ncfg_base;
      ncfg.seed = streams[pair_index][1].next_u64();  // engine-seed stream
      core::NegotiationEngine engine(problem, a.get(), b.get(), ncfg);
      auto out = engine.run();
      const double def = metrics::total_flow_km(routing, tm.flows(),
                                                problem.default_assignment);
      const double neg =
          metrics::total_flow_km(routing, tm.flows(), out.assignment);
      total_out = def > 0 ? (def - neg) / def * 100.0 : 0.0;
      if (side_out != nullptr) {
        for (int side = 0; side < 2; ++side) {
          const double dside = metrics::side_flow_km(
              routing, tm.flows(), problem.default_assignment, side);
          const double nside =
              metrics::side_flow_km(routing, tm.flows(), out.assignment, side);
          side_out[side] = dside > 0 ? (dside - nside) / dside * 100.0 : 0.0;
        }
      }
    };

    run_mode(core::make_distance_problem(routing, tm.flows(), cands),
             res.sd_gain, nullptr);
    run_mode(core::make_destination_problem(routing, tm.flows(), cands),
             res.db_gain, res.db_side_gain);
  };

  util::ThreadPool pool(util::workers_for_threads(ctx.spec.threads));
  util::parallel_for(pool, pairs.size(), run_pair);

  util::Cdf sd_gain, db_gain, db_indiv;
  std::size_t db_losers = 0, db_isps = 0;
  for (const DestinationPairResult& res : results) {
    sd_gain.add(res.sd_gain);
    db_gain.add(res.db_gain);
    ctx.mix_double(res.sd_gain);
    ctx.mix_double(res.db_gain);
    for (int side = 0; side < 2; ++side) {
      db_indiv.add(res.db_side_gain[side]);
      ctx.mix_double(res.db_side_gain[side]);
      ++db_isps;
      if (res.db_side_gain[side] < -0.5) ++db_losers;
    }
  }

  print_cdf_figure("footnote 2", "total gain vs the mode's own default",
                   "% reduction in total flow km",
                   {"source-dest", "destination-based"},
                   {&sd_gain, &db_gain});

  std::cout << "\n";
  paper_check(
      "destination-based negotiation yields results similar to "
      "source-destination (same order of magnitude, same sign)",
      "median gain: source-dest " + std::to_string(sd_gain.value_at(0.5)) +
          "% vs destination-based " + std::to_string(db_gain.value_at(0.5)) +
          "%",
      db_gain.value_at(0.5) > 0.0 &&
          db_gain.value_at(0.5) > 0.25 * sd_gain.value_at(0.5));
  paper_check("no ISP loses under destination-based negotiation either",
              std::to_string(db_losers) + "/" + std::to_string(db_isps) +
                  " ISPs lose >0.5%",
              db_losers == 0);

  ctx.record.metric("pairs", static_cast<std::int64_t>(pairs.size()));
  ctx.record.metric_cdf("gain_pct.source_dest", sd_gain);
  ctx.record.metric_cdf("gain_pct.destination_based", db_gain);
  return 0;
}

// ------------------------------------------------------------------------
// abl_flow_fraction: how many moved flows carry the gain
// ------------------------------------------------------------------------

int run_abl_flow_fraction(ScenarioContext& ctx) {
  const DistanceExperimentConfig cfg = ctx.spec.to_distance_config();
  print_bench_header("Ablation: fraction of flows moved",
                     "how many non-default routes are needed for the gain",
                     ctx.spec.universe_summary());
  const auto samples = run_distance_experiment(cfg);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);

  // Aggregate per-flow savings of negotiated moves across all pairs.
  std::vector<double> savings;  // km saved by each moved flow
  double total_gain_km = 0.0;
  std::size_t total_flows = 0, moved_flows = 0;
  for (const auto& s : samples) {
    total_flows += s.flow_count;
    moved_flows += s.flows_moved;
    // nexit-lint: allow(float-accumulate): summed in sample order, the
    // canonical order of run_distance_experiment's output
    total_gain_km += s.default_km - s.negotiated_km;
    for (double km : s.flow_saving_km_negotiated)
      if (km > 1e-9) savings.push_back(km);
  }
  std::sort(savings.rbegin(), savings.rend());

  const double frac_moved = 100.0 * static_cast<double>(moved_flows) /
                            static_cast<double>(total_flows);
  std::cout << "samples: " << samples.size() << " pairs, " << total_flows
            << " flows; moved " << moved_flows << " (" << frac_moved << "%)\n";

  const double total_saved = util::sum(savings);
  std::cout << "\n  top-moved-flows%   share-of-total-gain%\n";
  double share_at_20 = 0.0;
  for (double pct : {1.0, 5.0, 10.0, 20.0, 50.0, 100.0}) {
    const auto k = static_cast<std::size_t>(savings.size() * pct / 100.0);
    double acc = 0.0;
    // nexit-lint: allow(float-accumulate): prefix sum of the descending
    // sort — the top-k share is defined by exactly this order
    for (std::size_t i = 0; i < k && i < savings.size(); ++i) acc += savings[i];
    const double share = total_saved > 0 ? 100.0 * acc / total_saved : 0.0;
    std::printf("  %15.1f   %20.2f\n", pct, share);
    if (pct == 20.0) share_at_20 = share;
  }

  std::cout << "\n";
  paper_check(
      "a minority of flows moved off default suffices (paper ~20%)",
      std::to_string(frac_moved) + "% of all flows were re-routed",
      frac_moved < 50.0);
  paper_check(
      "the top 20% of improved flows carries most of the gain",
      std::to_string(share_at_20) + "% of the gain from the top 20% of flows",
      share_at_20 > 50.0);

  ctx.record.metric("flows", static_cast<std::int64_t>(total_flows));
  ctx.record.metric("flows_moved", static_cast<std::int64_t>(moved_flows));
  ctx.record.metric("total_gain_km", total_gain_km);
  ctx.record.metric("gain_share_top20pct", share_at_20);
  return 0;
}

// ------------------------------------------------------------------------
// abl_group_negotiation: k separate groups vs the whole set
// ------------------------------------------------------------------------

int run_abl_group_negotiation(ScenarioContext& ctx) {
  print_bench_header("Ablation: group negotiation",
                     "negotiating in k separate groups vs the whole set",
                     ctx.spec.universe_summary());

  // The group counts are a declared axis (tune installs the paper's
  // 1,2,4,...,64; --sweep.groups re-declares it), not a hard-coded array.
  double gain_at_1 = 0.0, gain_at_64 = 0.0;
  bool have_1 = false, have_64 = false;
  std::cout << "\n  groups   mean-total-gain%   median-total-gain%\n";
  for (const std::string& value : ctx.axis_values("groups")) {
    const ExperimentSpec point = ctx.spec_with("groups", value);
    const std::size_t k = point.groups;
    const auto samples = run_distance_experiment(point.to_distance_config());
    if (samples.empty()) return no_samples();
    ctx.mix(samples);
    util::Cdf neg;
    std::vector<double> gains;
    for (const auto& s : samples) {
      neg.add(s.total_gain_pct(s.negotiated_km));
      gains.push_back(s.total_gain_pct(s.negotiated_km));
    }
    const double mean = util::mean(gains);
    std::printf("  %6zu   %16.3f   %18.3f\n", k, mean, neg.value_at(0.5));
    if (k == 1) gain_at_1 = mean, have_1 = true;
    if (k == 64) gain_at_64 = mean, have_64 = true;
  }

  if (have_1 && have_64) {
    std::cout << "\n";
    paper_check(
        "negotiating over the entire flow set beats many separate groups",
        "mean gain whole-set " + std::to_string(gain_at_1) + "% vs 64 groups " +
            std::to_string(gain_at_64) + "%",
        gain_at_64 <= gain_at_1 + 1e-9);
    ctx.record.metric("mean_gain_pct.groups_1", gain_at_1);
    ctx.record.metric("mean_gain_pct.groups_64", gain_at_64);
  }
  return 0;
}

// ------------------------------------------------------------------------
// abl_ix_count: gain bucketed by interconnection count
// ------------------------------------------------------------------------

int run_abl_ix_count(ScenarioContext& ctx) {
  const DistanceExperimentConfig cfg = ctx.spec.to_distance_config();
  print_bench_header("Ablation: interconnection count",
                     "negotiated gain bucketed by number of interconnections",
                     ctx.spec.universe_summary());
  const auto samples = run_distance_experiment(cfg);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);

  std::map<std::size_t, std::vector<double>> buckets;  // capped bucket -> gains
  for (const auto& s : samples) {
    const std::size_t bucket = std::min<std::size_t>(s.interconnections, 6);
    buckets[bucket].push_back(s.total_gain_pct(s.negotiated_km));
  }

  std::cout << "\n  interconnections   pairs   mean-gain%   median-gain%\n";
  double low_bucket = -1.0, high_bucket = -1.0;
  for (const auto& [b, gains] : buckets) {
    const double mean = util::mean(gains);
    std::printf("  %10zu%s   %5zu   %10.3f   %12.3f\n", b, b == 6 ? "+" : " ",
                gains.size(), mean, util::median(gains));
    if (low_bucket < 0) low_bucket = mean;
    high_bucket = mean;
  }

  std::cout << "\n";
  paper_check(
      "pairs with more interconnections gain more from negotiation",
      "mean gain, fewest-ix bucket " + std::to_string(low_bucket) +
          "% vs most-ix bucket " + std::to_string(high_bucket) + "%",
      high_bucket >= low_bucket);

  ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
  ctx.record.metric("mean_gain_pct.fewest_ix", low_bucket);
  ctx.record.metric("mean_gain_pct.most_ix", high_bucket);
  return 0;
}

// ------------------------------------------------------------------------
// abl_models: workload / capacity / metric sensitivity of Fig. 7
// ------------------------------------------------------------------------

/// The §5.2 model variants behind the declared `model` axis: each value is
/// one deviation from the paper's gravity + median-capacity baseline. The
/// axis (which variants run, in what order) is spec data; the mapping from
/// variant name to config tweak is figure semantics and stays here.
struct ModelVariant {
  const char* name = nullptr;   // the sweep.model axis value
  const char* label = nullptr;  // the printed table row
  void (*tweak)(BandwidthExperimentConfig&) = nullptr;
};

constexpr ModelVariant kModelVariants[] = {
    {"paper", "gravity + median-capacity (paper)",
     [](BandwidthExperimentConfig&) {}},
    {"identical", "identical PoP weights",
     [](BandwidthExperimentConfig& c) {
       c.traffic.model = traffic::WorkloadModel::kIdentical;
     }},
    {"uniform", "uniform-random PoP weights",
     [](BandwidthExperimentConfig& c) {
       c.traffic.model = traffic::WorkloadModel::kUniformRandom;
     }},
    {"pow2", "power-of-two capacities",
     [](BandwidthExperimentConfig& c) {
       c.capacity.round_up_power_of_two = true;
     }},
    {"unused-max", "unused links get max load",
     [](BandwidthExperimentConfig& c) {
       c.capacity.unused_rule = capacity::UnusedLinkRule::kMax;
     }},
    {"piecewise", "piecewise-linear cost metric",
     [](BandwidthExperimentConfig& c) {
       c.objective[0] = {"piecewise", c.objective[0].cheat};
       c.objective[1] = {"piecewise", c.objective[1].cheat};
     }},
};

int run_abl_models(ScenarioContext& ctx) {
  const BandwidthExperimentConfig base = ctx.spec.to_bandwidth_config();
  print_bench_header("Ablation: alternate models (§5.2)",
                     "workload / capacity / metric sensitivity of Fig. 7",
                     ctx.spec.universe_summary());

  std::cout << "\n  variant                              samples   "
               "default-med   negotiated-med   neg<=def%\n";
  double paper_def = 0.0, paper_neg = 0.0;
  bool all_shapes_hold = true, have_paper = false;
  for (const std::string& value : ctx.axis_values("model")) {
    const ModelVariant* v = nullptr;
    for (const ModelVariant& candidate : kModelVariants)
      if (value == candidate.name) v = &candidate;
    if (v == nullptr) {
      std::cerr << "error: sweep.model: unknown variant \"" << value
                << "\"; valid values:";
      for (const ModelVariant& candidate : kModelVariants)
        std::cerr << " " << candidate.name;
      std::cerr << "\n";
      return 2;
    }
    BandwidthExperimentConfig cfg = base;
    v->tweak(cfg);
    const auto samples = run_bandwidth_experiment(cfg);
    if (samples.empty()) return no_samples();
    ctx.mix(samples);
    util::Cdf def_up, neg_up;
    std::size_t dominated = 0;
    for (const auto& s : samples) {
      def_up.add(s.ratio(s.mel_default, 0));
      neg_up.add(s.ratio(s.mel_negotiated, 0));
      if (s.ratio(s.mel_negotiated, 0) <= s.ratio(s.mel_default, 0) + 1e-9)
        ++dominated;
    }
    const double dm = def_up.value_at(0.5);
    const double nm = neg_up.value_at(0.5);
    const double dom_pct =
        samples.empty() ? 0.0
                        : 100.0 * static_cast<double>(dominated) /
                              static_cast<double>(samples.size());
    std::printf("  %-36s   %6zu   %11.3f   %14.3f   %8.1f\n", v->label,
                samples.size(), dm, nm, dom_pct);
    if (value == "paper") {
      paper_def = dm;
      paper_neg = nm;
      have_paper = true;
    }
    // Qualitative shape: negotiated at or below default at the median.
    all_shapes_hold &= nm <= dm + 1e-9;
  }

  // The paper-model medians only exist when the re-declarable axis kept
  // the "paper" variant; recording 0.0 for a variant that never ran would
  // fabricate data.
  if (have_paper) {
    std::cout << "\n";
    paper_check(
        "results are qualitatively similar across alternate models "
        "(negotiated <= default at the median everywhere)",
        "paper-model medians: default " + std::to_string(paper_def) +
            ", negotiated " + std::to_string(paper_neg),
        all_shapes_hold);
    ctx.record.metric("paper_model.default_median", paper_def);
    ctx.record.metric("paper_model.negotiated_median", paper_neg);
  }
  ctx.record.metric("all_shapes_hold",
                    static_cast<std::int64_t>(all_shapes_hold ? 1 : 0));
  return 0;
}

// ------------------------------------------------------------------------
// abl_policies: turn / termination / proposal policy comparison
// ------------------------------------------------------------------------

/// The §4 protocol variants behind the declared `policy` axis — like the
/// model axis, the names/order are spec data, the name -> policy-tuple
/// mapping is figure semantics.
struct PolicyVariant {
  const char* name = nullptr;   // the sweep.policy axis value
  const char* label = nullptr;  // the printed table row
  core::TurnPolicy turn = core::TurnPolicy::kAlternate;
  core::TerminationPolicy termination = core::TerminationPolicy::kEarly;
  core::ProposalPolicy proposal = core::ProposalPolicy::kMaxCombinedGain;
};

constexpr PolicyVariant kPolicyVariants[] = {
    {"paper", "alternate+early+max-combined (paper)",
     core::TurnPolicy::kAlternate, core::TerminationPolicy::kEarly,
     core::ProposalPolicy::kMaxCombinedGain},
    {"lower-gain", "lower-gain turns (max-min-fair)",
     core::TurnPolicy::kLowerGain, core::TerminationPolicy::kEarly,
     core::ProposalPolicy::kMaxCombinedGain},
    {"coin-toss", "coin-toss turns", core::TurnPolicy::kCoinToss,
     core::TerminationPolicy::kEarly, core::ProposalPolicy::kMaxCombinedGain},
    {"full", "full termination", core::TurnPolicy::kAlternate,
     core::TerminationPolicy::kFull, core::ProposalPolicy::kMaxCombinedGain},
    {"negotiate-all", "negotiate-all (social)", core::TurnPolicy::kAlternate,
     core::TerminationPolicy::kNegotiateAll,
     core::ProposalPolicy::kMaxCombinedGain},
    {"best-local", "best-local-min-impact proposals",
     core::TurnPolicy::kAlternate, core::TerminationPolicy::kEarly,
     core::ProposalPolicy::kBestLocalMinImpact},
};

int run_abl_policies(ScenarioContext& ctx) {
  const DistanceExperimentConfig base = ctx.spec.to_distance_config();
  print_bench_header("Ablation: protocol policies",
                     "turn / termination / proposal policy comparison",
                     ctx.spec.universe_summary());

  double fair_imbalance = -1.0, alt_imbalance = -1.0;
  std::cout << "\n  variant                                   mean-gain%   "
               "median-gain%   mean|gainA-gainB| (km)\n";
  for (const std::string& value : ctx.axis_values("policy")) {
    const PolicyVariant* v = nullptr;
    for (const PolicyVariant& candidate : kPolicyVariants)
      if (value == candidate.name) v = &candidate;
    if (v == nullptr) {
      std::cerr << "error: sweep.policy: unknown variant \"" << value
                << "\"; valid values:";
      for (const PolicyVariant& candidate : kPolicyVariants)
        std::cerr << " " << candidate.name;
      std::cerr << "\n";
      return 2;
    }
    DistanceExperimentConfig cfg = base;
    cfg.negotiation.turn = v->turn;
    cfg.negotiation.termination = v->termination;
    cfg.negotiation.proposal = v->proposal;
    const auto samples = run_distance_experiment(cfg);
    if (samples.empty()) return no_samples();
    ctx.mix(samples);
    util::Cdf gain;
    std::vector<double> gains, gaps;
    for (const auto& s : samples) {
      gain.add(s.total_gain_pct(s.negotiated_km));
      gains.push_back(s.total_gain_pct(s.negotiated_km));
      const double ga = s.default_side_km[0] - s.negotiated_side_km[0];
      const double gb = s.default_side_km[1] - s.negotiated_side_km[1];
      gaps.push_back(std::abs(ga - gb));
    }
    const double mean = util::mean(gains);
    const double imbalance = util::mean(gaps);
    std::printf("  %-40s   %9.3f   %11.3f   %18.1f\n", v->label, mean,
                gain.value_at(0.5), imbalance);
    if (value == "lower-gain") fair_imbalance = imbalance;
    if (value == "paper") alt_imbalance = imbalance;
  }

  if (fair_imbalance >= 0.0 && alt_imbalance >= 0.0) {
    std::cout << "\n";
    paper_check(
        "lower-cumulative-gain turns approximate max-min fairness "
        "(smaller gain imbalance than alternate turns)",
        "mean |gainA-gainB|: lower-gain " + std::to_string(fair_imbalance) +
            " km vs alternate " + std::to_string(alt_imbalance) + " km",
        fair_imbalance <= alt_imbalance * 1.25);
    ctx.record.metric("imbalance_km.lower_gain", fair_imbalance);
    ctx.record.metric("imbalance_km.alternate", alt_imbalance);
  }
  return 0;
}

// ------------------------------------------------------------------------
// abl_pref_range: negotiated gain as a function of P
// ------------------------------------------------------------------------

int run_abl_pref_range(ScenarioContext& ctx) {
  print_bench_header("Ablation: preference range P",
                     "negotiated gain as a function of the class range",
                     ctx.spec.universe_summary());

  // The P values are a declared axis (tune installs the paper's
  // 1,2,3,5,10,20,50; --sweep.pref-range re-declares it).
  double median_at_10 = 0.0, median_at_1 = 0.0, median_at_50 = 0.0;
  bool have_1 = false, have_10 = false, have_50 = false;
  std::cout << "\n   P   median-total-gain%   mean-total-gain%   optimal-median%\n";
  for (const std::string& value : ctx.axis_values("pref-range")) {
    const ExperimentSpec point = ctx.spec_with("pref-range", value);
    const int p = point.pref_range;
    const auto samples = run_distance_experiment(point.to_distance_config());
    if (samples.empty()) return no_samples();
    ctx.mix(samples);
    util::Cdf neg, opt;
    std::vector<double> gains;
    for (const auto& s : samples) {
      neg.add(s.total_gain_pct(s.negotiated_km));
      opt.add(s.total_gain_pct(s.optimal_km));
      gains.push_back(s.total_gain_pct(s.negotiated_km));
    }
    const double mean = util::mean(gains);
    std::printf("  %2d   %18.3f   %16.3f   %15.3f\n", p, neg.value_at(0.5),
                mean, opt.value_at(0.5));
    if (p == 10) median_at_10 = neg.value_at(0.5), have_10 = true;
    if (p == 1) median_at_1 = neg.value_at(0.5), have_1 = true;
    if (p == 50) median_at_50 = neg.value_at(0.5), have_50 = true;
  }

  if (have_10 && (have_1 || have_50)) std::cout << "\n";
  if (have_10 && have_50) {
    paper_check(
        "increasing the range beyond P=10 does not noticeably help",
        "median gain at P=10: " + std::to_string(median_at_10) + "%, at P=50: " +
            std::to_string(median_at_50) + "%",
        median_at_50 - median_at_10 < 1.0);
  }
  if (have_1 && have_10) {
    paper_check("a tiny range (P=1) leaves gain on the table",
                "median gain at P=1: " + std::to_string(median_at_1) +
                    "% vs P=10: " + std::to_string(median_at_10) + "%",
                median_at_1 <= median_at_10 + 1e-9);
  }

  if (have_1) ctx.record.metric("median_gain_pct.p1", median_at_1);
  if (have_10) ctx.record.metric("median_gain_pct.p10", median_at_10);
  if (have_50) ctx.record.metric("median_gain_pct.p50", median_at_50);
  return 0;
}

// ------------------------------------------------------------------------
// custom: generic runner for arbitrary composed specs
// ------------------------------------------------------------------------

int run_runtime(ScenarioContext& ctx);

int run_custom(ScenarioContext& ctx) {
  const ExperimentSpec& spec = ctx.spec;
  if (spec.experiment == ExperimentKind::kRuntime) return run_runtime(ctx);
  const std::string objectives = "A=" + spec.resolved_objective(0).to_string() +
                                 ", B=" + spec.resolved_objective(1).to_string();

  if (spec.experiment == ExperimentKind::kDistance) {
    const DistanceExperimentConfig cfg = spec.to_distance_config();
    print_bench_header("Custom scenario",
                       "distance experiment, " + objectives,
                       spec.universe_summary());
    const auto samples = run_distance_experiment(cfg);
    if (samples.empty()) return no_samples();
    ctx.mix(samples);

    util::Cdf total_neg, total_opt, indiv_neg;
    std::size_t flows = 0, moved = 0;
    for (const auto& s : samples) {
      total_neg.add(s.total_gain_pct(s.negotiated_km));
      total_opt.add(s.total_gain_pct(s.optimal_km));
      for (int side = 0; side < 2; ++side)
        indiv_neg.add(s.side_gain_pct(s.negotiated_side_km, side));
      flows += s.flow_count;
      moved += s.flows_moved;
    }
    std::cout << "samples: " << samples.size() << " ISP pairs, " << flows
              << " flows, " << moved << " moved off default\n";
    print_cdf_figure("custom", "total gain across both ISPs",
                     "% reduction in total flow km vs default routing",
                     {"negotiated", "optimal"}, {&total_neg, &total_opt});
    print_cdf_figure("custom", "individual ISP gain",
                     "% reduction in own-network flow km vs default",
                     {"negotiated"}, {&indiv_neg});

    ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
    ctx.record.metric("flows", static_cast<std::int64_t>(flows));
    ctx.record.metric("flows_moved", static_cast<std::int64_t>(moved));
    ctx.record.metric_cdf("total_gain_pct.negotiated", total_neg);
    ctx.record.metric_cdf("total_gain_pct.optimal", total_opt);
    ctx.record.metric_cdf("individual_gain_pct.negotiated", indiv_neg);
    return 0;
  }

  const BandwidthExperimentConfig cfg = spec.to_bandwidth_config();
  print_bench_header("Custom scenario",
                     "bandwidth (failure) experiment, " + objectives,
                     spec.universe_summary());
  const auto samples = run_bandwidth_experiment(cfg);
  if (samples.empty()) return no_samples();
  ctx.mix(samples);
  std::cout << "samples: " << samples.size() << " failed interconnections\n";

  util::Cdf def_up, neg_up, def_down, neg_down, down_gain;
  for (const auto& s : samples) {
    def_up.add(s.ratio(s.mel_default, 0));
    neg_up.add(s.ratio(s.mel_negotiated, 0));
    def_down.add(s.ratio(s.mel_default, 1));
    neg_down.add(s.ratio(s.mel_negotiated, 1));
    down_gain.add(s.downstream_distance_gain_pct);
  }
  print_cdf_figure("custom", "upstream ISP",
                   "MEL relative to MEL of optimal routing",
                   {"negotiated", "default"}, {&neg_up, &def_up});
  print_cdf_figure("custom", "downstream ISP",
                   "MEL relative to MEL of optimal routing",
                   {"negotiated", "default"}, {&neg_down, &def_down});
  if (spec.resolved_objective(1).name == "distance") {
    print_cdf_figure("custom", "downstream ISP reduces distance",
                     "% reduction of affected flows' km inside downstream "
                     "vs default",
                     {"negotiated"}, {&down_gain});
    ctx.record.metric_cdf("downstream_distance_gain_pct", down_gain);
  }

  ctx.record.metric("samples", static_cast<std::int64_t>(samples.size()));
  ctx.record.metric_cdf("mel_ratio.upstream.default", def_up);
  ctx.record.metric_cdf("mel_ratio.upstream.negotiated", neg_up);
  ctx.record.metric_cdf("mel_ratio.downstream.default", def_down);
  ctx.record.metric_cdf("mel_ratio.downstream.negotiated", neg_down);
  return 0;
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

  ctx.record.metric("sessions", static_cast<std::int64_t>(st.sessions));
  ctx.record.metric("sessions_done", static_cast<std::int64_t>(st.done));
  ctx.record.metric("sessions_failed", static_cast<std::int64_t>(st.failed));
  ctx.record.metric("sessions_cancelled",
                    static_cast<std::int64_t>(st.cancelled));
  ctx.record.metric("churn_renegotiations",
                    static_cast<std::int64_t>(churn_renegos));
  ctx.record.metric("failure_renegotiations",
                    static_cast<std::int64_t>(failure_renegos));
  ctx.record.metric("sessions_killed", static_cast<std::int64_t>(st.killed));
  // Scheduling geometry (rounds, peak_ready, final_tick) stays on stdout
  // only: it depends on where kill/resume events land on the virtual clock,
  // and the durability contract is that a crash-resumed run's RECORD is
  // byte-identical to an uninterrupted one (CI cmp-s the two files).
  ctx.record.metric("steps", static_cast<std::int64_t>(st.total_steps));
  ctx.record.metric("messages", static_cast<std::int64_t>(st.messages));
  return 0;
}

// ------------------------------------------------------------------------
// preset tunes + registry
// ------------------------------------------------------------------------

void tune_nothing(ExperimentSpec&) {}

void tune_bandwidth_base(ExperimentSpec& s) {
  s.experiment = ExperimentKind::kBandwidth;
  s.pairs = 60;
}

void tune_fig5(ExperimentSpec& s) { s.flow_baselines = true; }

void tune_fig7(ExperimentSpec& s) {
  tune_bandwidth_base(s);
  // Keep wall_ms an honest measurement in every build type; the ctest
  // suites own the debug cross-check.
  s.verify_incremental = -1;
}

void tune_fig8(ExperimentSpec& s) {
  tune_bandwidth_base(s);
  s.unilateral = true;
}

void tune_fig9(ExperimentSpec& s) {
  tune_bandwidth_base(s);
  s.objective[1] = {"distance", false};
}

void tune_table3(ExperimentSpec& s) {
  // Seed 0 means "auto-pick a seed that reaches the paper outcome".
  s.seed = 0;
}

void tune_abl_destination_based(ExperimentSpec& s) { s.pairs = 60; }
void tune_abl_flow_fraction(ExperimentSpec& s) { s.pairs = 80; }

void tune_abl_group_negotiation(ExperimentSpec& s) {
  s.pairs = 60;
  s.sweeps = {{"groups", {"1", "2", "4", "8", "16", "64"}}};
}

void tune_abl_ix_count(ExperimentSpec& s) { s.pairs = 150; }

void tune_abl_models(ExperimentSpec& s) {
  s.experiment = ExperimentKind::kBandwidth;
  s.pairs = 30;
  s.sweeps = {{"model",
               {"paper", "identical", "uniform", "pow2", "unused-max",
                "piecewise"}}};
}

void tune_abl_policies(ExperimentSpec& s) {
  s.pairs = 60;
  s.sweeps = {{"policy",
               {"paper", "lower-gain", "coin-toss", "full", "negotiate-all",
                "best-local"}}};
}

void tune_abl_pref_range(ExperimentSpec& s) {
  s.pairs = 60;
  s.sweeps = {{"pref-range", {"1", "2", "3", "5", "10", "20", "50"}}};
}

void tune_fig4_sweep(ExperimentSpec& s) {
  // Fig. 4's gain distributions as a function of universe size: the ISP
  // axis is declared data, so `--sweep.isps=...` re-scales the figure.
  s.sweeps = {{"isps", {"20", "35", "50", "65"}}};
}

void tune_fig7_sweep(ExperimentSpec& s) {
  // Fig. 7's MEL distributions as a function of how many failed pairs are
  // sampled (the paper's 247-instance axis, scaled down).
  tune_fig7(s);
  s.sweeps = {{"pairs", {"15", "30", "45", "60"}}};
}

void tune_runtime(ExperimentSpec& s) { s.experiment = ExperimentKind::kRuntime; }

void tune_runtime_churn(ExperimentSpec& s) {
  // The many_sessions example's population and timeline, as a preset: a
  // small universe negotiating concurrently with staggered starts, a
  // mid-session link failure, a peer restart, a traffic churn, and one
  // session stuck behind a black-hole transport.
  s.experiment = ExperimentKind::kRuntime;
  s.isps = 30;
  s.seed = 11;
  s.pairs = 12;
  s.traffic_model = traffic::WorkloadModel::kIdentical;
  s.runtime.min_links = 3;  // failures need surviving interconnections
  s.runtime.stagger = 2;
  s.runtime.burst = 8;
  s.runtime.handshake_deadline = 16;
  s.runtime.max_attempts = 2;
  s.runtime.drop = 1.0;
  s.runtime.fault_targets = {3};
  s.runtime.events = {
      {1, runtime::EventKind::kLinkFailure, 0, runtime::kBusiestIx},
      {3, runtime::EventKind::kPeerRestart, 1, 0},
      {5, runtime::EventKind::kFlowChurn, 2, 4242},
  };
}

const std::vector<ScenarioPreset> kScenarios = {
    {"fig4", "Fig. 4: distance gain of optimal vs negotiated routing",
     tune_nothing, run_fig4, "experiment"},
    {"fig4_sweep", "Fig. 4 swept over universe size (declared sweep.isps axis)",
     tune_fig4_sweep, run_fig4, "experiment"},
    {"fig5", "Fig. 5: flow-pair strawman strategies vs negotiation", tune_fig5,
     run_fig5, "experiment,flow-baselines"},
    {"fig6", "Fig. 6: per-flow gains of optimal and negotiated routing",
     tune_nothing, run_fig6, "experiment"},
    {"fig7", "Fig. 7: post-failure MEL, default and negotiated vs optimal",
     tune_fig7, run_fig7, "experiment"},
    {"fig7_sweep",
     "Fig. 7 swept over sampled pair count (declared sweep.pairs axis)",
     tune_fig7_sweep, run_fig7, "experiment"},
    {"fig8", "Fig. 8: unilateral upstream optimisation hurts the downstream",
     tune_fig8, run_fig8, "experiment,unilateral"},
    {"fig9",
     "Fig. 9: diverse criteria (upstream bandwidth, downstream distance)",
     tune_fig9, run_fig9, "experiment"},
    {"fig10", "Fig. 10: impact of cheating on the distance experiment",
     tune_nothing, run_fig10, "experiment"},
    {"fig11", "Fig. 11: impact of cheating on the bandwidth experiment",
     tune_bandwidth_base, run_fig11, "experiment"},
    {"table3", "Fig. 3 table: the worked preference-list example of Fig. 2",
     tune_table3, run_table3, "!seed"},
    {"abl_destination_based",
     "footnote 2: destination-based vs source-destination negotiation",
     tune_abl_destination_based, run_abl_destination_based,
     "experiment,flow-baselines,groups"},
    {"abl_flow_fraction",
     "§5.1: fraction of flows that must move to capture the gain",
     tune_abl_flow_fraction, run_abl_flow_fraction, "experiment"},
    {"abl_group_negotiation",
     "§5.1: negotiating in k separate groups vs the whole set",
     tune_abl_group_negotiation, run_abl_group_negotiation, "experiment,groups",
     "groups"},
    {"abl_ix_count", "§5.1: negotiated gain bucketed by interconnection count",
     tune_abl_ix_count, run_abl_ix_count, "experiment"},
    {"abl_models", "§5.2: workload / capacity / metric sensitivity of Fig. 7",
     tune_abl_models, run_abl_models,
     "experiment,traffic,capacity-pow2,capacity-unused,oracle-a,oracle-b",
     "model"},
    {"abl_policies", "§4: turn / termination / proposal policy comparison",
     tune_abl_policies, run_abl_policies,
     "experiment,turn,termination,proposal", "policy"},
    {"abl_pref_range",
     "§5: negotiated gain as a function of the class range P",
     tune_abl_pref_range, run_abl_pref_range, "experiment,pref-range",
     "pref-range"},
    {"runtime",
     "concurrent-runtime scenario: sessions + a declared runtime.* timeline",
     tune_runtime, run_runtime, "experiment"},
    {"runtime_churn",
     "runtime timeline demo: staggered starts, link failure, restart, churn",
     tune_runtime_churn, run_runtime, "experiment"},
    {"custom",
     "generic runner for an arbitrary spec (use --spec=<file> or flags)",
     tune_nothing, run_custom},
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

std::vector<std::string> split_csv(const std::string& csv) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    const std::size_t comma = csv.find(',', begin);
    out.push_back(csv.substr(
        begin, comma == std::string::npos ? comma : comma - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

/// Expands ScenarioPreset::ignored_keys against the full spec key list.
std::vector<std::string> expand_ignored_keys(const ScenarioPreset& preset,
                                             const ExperimentSpec& spec) {
  const std::string raw = preset.ignored_keys;
  if (raw.empty()) return {};
  if (raw[0] != '!') return split_csv(raw);
  const std::vector<std::string> consumed = split_csv(raw.substr(1));
  std::vector<std::string> ignored;
  for (const auto& [key, value] : spec.to_key_values()) {
    if (std::find(consumed.begin(), consumed.end(), key) == consumed.end())
      ignored.push_back(key);
  }
  return ignored;
}

/// Comma-list of ScenarioPreset::own_axes as a set.
std::set<std::string> own_axis_set(const ScenarioPreset& preset) {
  std::set<std::string> own;
  if (preset.own_axes[0] == '\0') return own;
  for (std::string& key : split_csv(preset.own_axes)) own.insert(std::move(key));
  return own;
}

/// The valid values of a sweep-only variant axis ({} for key axes) — the
/// names of the variant table the owning run function dispatches on, so
/// run_scenario can fail a bad trailing value before any engine runs.
std::vector<std::string> variant_axis_values(const std::string& axis) {
  std::vector<std::string> names;
  if (axis == "model") {
    for (const ModelVariant& v : kModelVariants) names.emplace_back(v.name);
  } else if (axis == "policy") {
    for (const PolicyVariant& v : kPolicyVariants) names.emplace_back(v.name);
  }
  return names;
}

std::string point_label(
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  std::string label;
  for (const auto& [key, value] : overrides)
    label += (label.empty() ? "" : " ") + key + "=" + value;
  return label;
}

/// One expanded sweep point: the base spec with the point's overrides
/// applied through the normal key parsers (exit 2 naming the axis on a
/// malformed value) and the expanded axes dropped from the copy.
ExperimentSpec spec_at_point(
    const ExperimentSpec& base, const std::set<std::string>& own,
    const std::vector<std::pair<std::string, std::string>>& overrides) {
  ExperimentSpec point = base;
  std::vector<SweepAxis> kept;
  for (const SweepAxis& axis : point.sweeps)
    if (own.count(axis.key) > 0) kept.push_back(axis);
  point.sweeps = std::move(kept);
  // A point is one unit of work: the sweep is what gets distributed, never
  // the point itself (and validate() would reject dist.* on a spec with no
  // axes left).
  point.dist = DistSpec{};
  for (const auto& [key, value] : overrides) {
    const util::FlagErrorContext context("sweep axis --sweep." + key);
    point.merge_from_flags(util::Flags({key + "=" + value}));
  }
  return point;
}

/// The deterministic registry snapshot as "obs" entries (routed to the
/// active point's sub-section during a sweep). Counters verbatim;
/// histograms as <name>.count/.sum plus one .b<k> entry per non-empty
/// magnitude bucket, so the key set stays compact and canonical.
/// The wall-clock phase profile as the digest-excluded "timing" section
/// (reported once per run, never per sweep point).
void record_timing_section(util::JsonReport& record) {
  for (const obs::PhaseSnapshot& p : obs::Registry::global().timing_snapshot()) {
    record.timing_entry(std::string("phase.") + p.name + ".calls",
                        static_cast<std::int64_t>(p.calls));
    record.timing_entry(std::string("phase.") + p.name + ".ms",
                        static_cast<double>(p.ns) / 1e6);
  }
}

/// Dispatches already-validated point specs to dist workers (spawn-local or
/// dist.connect daemons) and folds the results exactly as the in-process
/// loop would: metric entries spliced verbatim, obs sections re-emitted
/// from the shipped snapshots, per-point digests folded in odometer order.
/// `labels` is {""} for the single-shard (whole-run) case — no points
/// section, entries land at the top level, as in-process.
int run_distributed(const ScenarioPreset& preset, const ExperimentSpec& spec,
                    const std::vector<ExperimentSpec>& point_specs,
                    const std::vector<std::string>& labels,
                    util::JsonReport& record) {
  const bool sweep = !(labels.size() == 1 && labels[0].empty());

  dist::CoordinatorConfig cfg;
  cfg.workers = spec.dist.workers;
  cfg.connect = spec.dist.connect;
  cfg.log_dir = spec.dist.log_dir;
  cfg.timeout_ms = spec.dist.timeout_ms;
  cfg.retries = spec.dist.retries;

  std::vector<dist::Job> jobs;
  jobs.reserve(point_specs.size());
  for (std::size_t i = 0; i < point_specs.size(); ++i) {
    // Workers must never recursively distribute: the shard they receive is
    // the point spec with the dist.* namespace reset to defaults.
    ExperimentSpec shard = point_specs[i];
    shard.dist = DistSpec{};
    jobs.push_back(dist::Job{preset.name, labels[i], shard.to_text()});
  }

  std::vector<dist::JobResult> results;
  try {
    dist::Coordinator coordinator(cfg);
    const int rc = coordinator.run(jobs, &results);
    if (rc != 0) return rc;
  } catch (const std::exception& e) {
    std::cerr << "error: dist: " << e.what() << "\n";
    return 2;
  }

  std::uint64_t sweep_digest = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const dist::JobResult& result = results[i];
    if (result.rc != 0) {
      std::cerr << "error: dist job " << i
                << (labels[i].empty() ? "" : " (" + labels[i] + ")") << ": "
                << result.error << "\n";
      return result.rc;
    }
    if (sweep) record.begin_point(labels[i]);
    for (const auto& [name, value] : result.metrics)
      record.metric_serialized(name, value);
    record_obs_section(record, result.obs);
    if (sweep) {
      record.metric("digest", util::digest_hex(result.digest));
      std::printf("sweep point %zu/%zu: %s — digest %s\n", i + 1,
                  results.size(), labels[i].c_str(),
                  util::digest_hex(result.digest).c_str());
    }
    sweep_digest = util::fnv1a_mix(sweep_digest, result.digest);
  }
  if (sweep) record.end_points();

  const std::uint64_t digest = sweep ? sweep_digest : results[0].digest;
  std::printf("\noutcome digest: %s\n", util::digest_hex(digest).c_str());
  if (sweep)
    record.metric("sweep_points", static_cast<std::int64_t>(results.size()));
  record.metric("digest", util::digest_hex(digest));
  record.write();
  return 0;
}

}  // namespace

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

PointOutcome run_point(const ScenarioPreset& preset,
                       const ExperimentSpec& point, util::JsonReport& record,
                       obs::Trace* trace) {
  PointOutcome out;
  obs::Registry::global().reset_counters();
  ScenarioContext ctx{point, record};
  ctx.trace = trace;
  out.rc = preset.run(ctx);
  out.digest = ctx.digest;
  if (out.rc == 0) out.obs = obs::Registry::global().snapshot();
  return out;
}

int run_scenario(const ScenarioPreset& preset, const util::Flags& flags) {
  ExperimentSpec spec;
  preset.tune(spec);
  const ExperimentSpec tuned = spec;
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
  // Keys this preset's run function controls itself: an explicit override
  // away from the preset's own value would silently vanish, so it exits 2.
  // (Re-stating the preset's value is harmless, so serialized specs reload
  // cleanly.)
  const std::vector<std::string> ignored = expand_ignored_keys(preset, tuned);
  for (const std::string& key : ignored) {
    if (spec.overridden.count(key) > 0 &&
        spec.value_of(key) != tuned.value_of(key)) {
      std::cerr << "error: --" << key << " is ignored by scenario '"
                << preset.name << "' (its run controls this itself)\n";
      return 2;
    }
  }

  // Axis checks. An axis the preset owns is iterated inside its run
  // function; any other axis must be an orthogonal, unlocked key — sweeping
  // a key the preset controls (or another preset's variant axis) would
  // silently decorate every point with a value that never takes effect.
  const std::set<std::string> own = own_axis_set(preset);
  std::vector<SweepAxis> outer;
  for (const SweepAxis& axis : spec.sweeps) {
    if (own.count(axis.key) > 0) continue;
    const SpecKeyInfo* info = find_spec_key(axis.key);
    if (info != nullptr && info->sweep_only) {
      std::cerr << "error: --sweep." << axis.key << " is an axis of scenario '"
                << info->owner_scenario << "', not of '" << preset.name
                << "'\n";
      return 2;
    }
    if (std::find(ignored.begin(), ignored.end(), axis.key) != ignored.end()) {
      std::cerr << "error: --sweep." << axis.key << " is locked by scenario '"
                << preset.name << "' (its run controls this key itself)\n";
      return 2;
    }
    outer.push_back(axis);
  }

  // Pre-validate every value of every owned axis before any engine runs: a
  // bad value at the end of an axis must fail the run up front, not after
  // minutes of compute. Key axes re-validate the spec per value; variant
  // axes check against the owning run function's variant table.
  for (const SweepAxis& axis : spec.sweeps) {
    const SpecKeyInfo* info = find_spec_key(axis.key);
    if (own.count(axis.key) == 0 || info == nullptr)
      continue;  // outer axes are validated per point below
    if (info->sweep_only) {
      const std::vector<std::string> valid = variant_axis_values(axis.key);
      for (const std::string& value : axis.values) {
        if (std::find(valid.begin(), valid.end(), value) == valid.end()) {
          std::cerr << "error: sweep." << axis.key << ": unknown variant \""
                    << value << "\"; valid values:";
          for (const std::string& name : valid) std::cerr << " " << name;
          std::cerr << "\n";
          return 2;
        }
      }
      continue;
    }
    for (const std::string& value : axis.values) {
      const ExperimentSpec point = spec_at_point(spec, own, {{axis.key, value}});
      if (!point.validate(&error)) {
        std::cerr << "error: sweep." << axis.key << "=" << value << ": "
                  << error << "\n";
        return 2;
      }
    }
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

  if (outer.empty()) {
    // A whole runtime timeline can be offloaded as a single shard —
    // validate() guarantees dist.* never reaches a non-sweep
    // distance/bandwidth run.
    if (spec.dist.enabled())
      return run_distributed(preset, spec, {spec}, {""}, record);

    const PointOutcome out = run_point(preset, spec, record, trace.get());
    if (out.rc != 0) return out.rc;

    record_obs_section(record, out.obs);
    if (spec.obs.timing) {
      record_timing_section(record);
      obs::Registry::global().set_timing_enabled(false);
    }
    if (trace != nullptr) trace->write(spec.obs.trace);
    std::printf("\noutcome digest: %s\n", util::digest_hex(out.digest).c_str());
    record.metric("digest", util::digest_hex(out.digest));
    record.write();
    return 0;
  }

  // Generic sweep: expand the cross product of the non-owned axes in
  // canonical order and run the preset's full pipeline per point. Each
  // point gets its own JSON section and digest; the printed outcome digest
  // folds the per-point digests in expansion order, so it is bit-identical
  // across --threads like every single-point run. The per-axis value cap
  // composes multiplicatively, so bound the *total* before materializing
  // anything — two 10000-value axes must not allocate 10^8 points.
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
  const auto points = expand_sweep(outer);
  std::vector<ExperimentSpec> point_specs;
  point_specs.reserve(points.size());
  for (const auto& overrides : points) {
    ExperimentSpec point = spec_at_point(spec, own, overrides);
    if (!point.validate(&error)) {
      std::cerr << "error: sweep point (" << point_label(overrides)
                << "): " << error << "\n";
      return 2;
    }
    point_specs.push_back(std::move(point));
  }

  std::printf("declared sweep: %zu points over", points.size());
  for (const SweepAxis& axis : outer)
    std::printf(" %s[%zu]", axis.key.c_str(), axis.values.size());
  std::printf("\n");

  std::vector<std::string> labels;
  labels.reserve(points.size());
  for (const auto& overrides : points) labels.push_back(point_label(overrides));

  if (spec.dist.enabled())
    return run_distributed(preset, spec, point_specs, labels, record);

  std::uint64_t sweep_digest = util::kFnvOffsetBasis;
  for (std::size_t i = 0; i < points.size(); ++i) {
    std::printf("\n===== sweep point %zu/%zu: %s =====\n\n", i + 1,
                points.size(), labels[i].c_str());
    record.begin_point(labels[i]);
    const PointOutcome out = run_point(preset, point_specs[i], record,
                                       trace.get());
    if (out.rc != 0) return out.rc;
    record_obs_section(record, out.obs);
    record.metric("digest", util::digest_hex(out.digest));
    std::printf("\npoint digest: %s\n", util::digest_hex(out.digest).c_str());
    sweep_digest = util::fnv1a_mix(sweep_digest, out.digest);
  }
  record.end_points();

  if (spec.obs.timing) {
    record_timing_section(record);
    obs::Registry::global().set_timing_enabled(false);
  }
  if (trace != nullptr) trace->write(spec.obs.trace);
  std::printf("\noutcome digest: %s\n", util::digest_hex(sweep_digest).c_str());
  record.metric("sweep_points", static_cast<std::int64_t>(points.size()));
  record.metric("digest", util::digest_hex(sweep_digest));
  record.write();
  return 0;
}

}  // namespace nexit::sim
