#pragma once

#include <string>
#include <vector>

#include "sim/pair_universe.hpp"

namespace nexit::sim {

/// One failure of the §5.2 experiment; the engine totals are its
/// negotiation's (flows_moved counts flows negotiated away from the
/// post-failure default).
struct BandwidthSample : EngineTotals {
  std::string pair_label;
  std::size_t failed_ix = 0;
  std::size_t affected_flows = 0;
  double affected_volume_fraction = 0.0;

  // Per-side MELs (0 = upstream ISP A, 1 = downstream ISP B) after failure.
  double mel_default[2] = {0.0, 0.0};
  double mel_negotiated[2] = {0.0, 0.0};
  double mel_optimal[2] = {0.0, 0.0};
  double mel_unilateral[2] = {0.0, 0.0};

  /// Fig. 9 right: % reduction of the affected flows' distance inside the
  /// downstream ISP versus the default (only filled in diverse mode).
  double downstream_distance_gain_pct = 0.0;

  [[nodiscard]] double ratio(const double mel[2], int side) const {
    return mel_optimal[side] > 0.0 ? mel[side] / mel_optimal[side] : 1.0;
  }
};

/// §5.2/§5.3/§5.4 experiment (spec experiment=bandwidth): an
/// interconnection fails, and the affected flows are re-routed by default
/// (early-exit), globally optimal (fractional LP), negotiated (Nexit with
/// the spec's objectives: a cheating upstream is §5.4 / Fig. 11, a distance
/// downstream §5.3 / Fig. 9), and with `unilateral` by upstream-only
/// optimisation (Fig. 8). One direction of traffic at a time. Throws
/// std::invalid_argument with validate()'s message for an invalid spec.
std::vector<BandwidthSample> run_bandwidth_experiment(
    const ExperimentSpec& spec);

}  // namespace nexit::sim
