#pragma once

#include <string>
#include <vector>

#include "sim/pair_universe.hpp"

namespace nexit::sim {

/// One pair of the §5.1 experiment; the engine totals sum over its group
/// negotiations.
struct DistanceSample : EngineTotals {
  std::string pair_label;
  std::size_t interconnections = 0;
  std::size_t flow_count = 0;

  // Total km across both ISPs, all flows.
  double default_km = 0.0;
  double optimal_km = 0.0;
  double negotiated_km = 0.0;
  double pareto_km = 0.0;       // Fig. 5 flow-Pareto (if enabled)
  double bothbetter_km = 0.0;   // Fig. 5 flow-both-better (if enabled)

  // Km inside each ISP (side 0 = A, 1 = B) for the individual view (Fig 4b).
  double default_side_km[2] = {0.0, 0.0};
  double optimal_side_km[2] = {0.0, 0.0};
  double negotiated_side_km[2] = {0.0, 0.0};

  // Per-flow % gains versus default (Fig. 6), aggregated later.
  std::vector<double> flow_gain_pct_optimal;
  std::vector<double> flow_gain_pct_negotiated;
  // Per-flow absolute km saved by negotiation (concentration analyses).
  std::vector<double> flow_saving_km_negotiated;

  [[nodiscard]] double total_gain_pct(double method_km) const {
    return default_km > 0.0 ? (default_km - method_km) / default_km * 100.0 : 0.0;
  }
  [[nodiscard]] double side_gain_pct(const double method[2], int side) const {
    return default_side_km[side] > 0.0
               ? (default_side_km[side] - method[side]) / default_side_km[side] *
                     100.0
               : 0.0;
  }
};

/// §5.1 experiment (spec experiment=distance): steady-state distance/cost,
/// unit flows in both directions, early-exit default, per-flow optimal, and
/// Nexit negotiation with the spec's objectives (one cheating side is §5.4 /
/// Fig. 10). `flow-baselines` adds the Fig. 5 flow-pair strategies, and
/// `groups` > 1 negotiates in random partitions (the §5.1 group ablation).
/// Throws std::invalid_argument with validate()'s message for an invalid
/// spec.
std::vector<DistanceSample> run_distance_experiment(const ExperimentSpec& spec);

/// One pair of the footnote-2 ablation: total gain of source-destination
/// and of destination-based negotiation, each versus its own default, and
/// each ISP's gain under destination-based negotiation; the engine totals
/// of each mode's negotiation (its rounds feed the --trace tracks).
struct DestinationSample {
  std::string pair_label;
  EngineTotals source_dest;
  EngineTotals destination_based;
  double sd_gain = 0.0;
  double db_gain = 0.0;
  double db_side_gain[2] = {0.0, 0.0};
};

/// Footnote 2 on the §5.1 workload: every pair negotiated once per flow
/// model (source-destination, then destination-based). Throws like
/// run_distance_experiment.
std::vector<DestinationSample> run_destination_experiment(
    const ExperimentSpec& spec);

}  // namespace nexit::sim
