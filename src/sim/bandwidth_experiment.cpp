#include "sim/bandwidth_experiment.hpp"

#include <cassert>
#include <stdexcept>

#include "capacity/capacity.hpp"
#include "metrics/metrics.hpp"
#include "opt/min_max_load.hpp"
#include "routing/loads.hpp"
#include "sim/spec.hpp"
#include "traffic/traffic.hpp"
#include "util/log.hpp"

namespace nexit::sim {

namespace {

// Indices into each pair's streams: the traffic matrix, and the source of
// the per-failure engine seeds.
constexpr std::size_t kTrafficStream = 0;
constexpr std::size_t kEngineSeedStream = 1;

}  // namespace

std::vector<BandwidthSample> run_bandwidth_experiment(
    const ExperimentSpec& spec) {
  assert(spec.experiment == ExperimentKind::kBandwidth);
  std::string error;
  if (!spec.validate(&error)) throw std::invalid_argument(error);

  traffic::TrafficConfig traffic_config;
  traffic_config.model = spec.traffic_model;
  capacity::CapacityConfig capacity_config;
  capacity_config.round_up_power_of_two = spec.capacity_pow2;
  capacity_config.unused_rule = spec.capacity_unused;
  // Fig. 9's right-hand series is only meaningful when the downstream's
  // objective is distance (possibly behind the cheating decorator).
  const bool downstream_distance =
      spec.resolved_objective(1).name == "distance";

  // Each pair yields one sample per usable failure.
  const auto run_pair = [&](const topology::IspPair& pair,
                            std::vector<util::Rng>& streams,
                            std::vector<BandwidthSample>& pair_samples) {
    const routing::PairRouting routing(pair);

    // One direction of traffic at a time (paper §5.2); A is the upstream.
    util::Rng traffic_rng = streams[kTrafficStream];
    const traffic::TrafficMatrix tm = traffic::TrafficMatrix::build(
        pair, traffic::Direction::kAtoB, traffic_config, traffic_rng);

    std::vector<std::size_t> all_ix(pair.interconnection_count());
    for (std::size_t i = 0; i < all_ix.size(); ++i) all_ix[i] = i;

    // Pre-failure: early-exit everywhere; capacities derive from its loads.
    const routing::Assignment pre_failure =
        routing::assign_early_exit(routing, tm.flows(), all_ix);
    const routing::LoadMap baseline =
        routing::compute_loads(routing, tm.flows(), pre_failure);
    const routing::LoadMap caps =
        capacity::assign_capacities(baseline, capacity_config);

    const std::size_t failures =
        std::min(spec.max_failures, pair.interconnection_count());
    for (std::size_t failed = 0; failed < failures; ++failed) {
      core::NegotiationProblem problem;
      try {
        problem = core::make_failure_problem(routing, tm.flows(), failed);
      } catch (const std::invalid_argument&) {
        continue;  // fewer than 2 survivors
      }
      if (problem.negotiable.empty()) continue;  // nothing used this link

      BandwidthSample s;
      s.pair_label = pair.label();
      s.failed_ix = failed;
      s.affected_flows = problem.negotiable.size();
      s.affected_volume_fraction =
          problem.negotiable_volume() / tm.total_volume();

      std::vector<char> negotiable_mask(tm.size(), 0);
      for (std::size_t idx : problem.negotiable) negotiable_mask[idx] = 1;

      // Default: early-exit over the survivors (already in the problem).
      const routing::LoadMap default_loads =
          routing::compute_loads(routing, tm.flows(), problem.default_assignment);
      s.mel_default[0] = metrics::side_mel(default_loads, caps, 0);
      s.mel_default[1] = metrics::side_mel(default_loads, caps, 1);

      // Globally optimal: fractional min-max LP over both ISPs' links.
      const opt::MinMaxLoadResult lp = opt::solve_min_max_load(
          routing, tm.flows(), negotiable_mask, pre_failure, problem.candidates,
          caps);
      if (lp.status != lp::SolveStatus::kOptimal) {
        NEXIT_WARN << "LP failed (" << lp::to_string(lp.status) << ") for "
                   << pair.label() << " failure " << failed;
        continue;
      }
      const routing::LoadMap optimal_loads =
          routing::compute_loads_fractional(routing, tm.flows(), lp.assignment);
      s.mel_optimal[0] = metrics::side_mel(optimal_loads, caps, 0);
      s.mel_optimal[1] = metrics::side_mel(optimal_loads, caps, 1);

      // Negotiated: Nexit with the spec's per-side objectives.
      const core::NegotiationOutcome outcome = negotiate(
          spec, problem, &caps, streams[kEngineSeedStream].next_u64(), s);
      const routing::LoadMap negotiated_loads =
          routing::compute_loads(routing, tm.flows(), outcome.assignment);
      s.mel_negotiated[0] = metrics::side_mel(negotiated_loads, caps, 0);
      s.mel_negotiated[1] = metrics::side_mel(negotiated_loads, caps, 1);

      // Fig. 9 right-hand series.
      if (downstream_distance) {
        double def_km = 0.0, neg_km = 0.0;
        for (std::size_t idx : problem.negotiable) {
          const traffic::Flow& f = tm.flows()[idx];
          // nexit-lint: allow(float-accumulate): negotiable-flow order, the
          // canonical km-summation order (matches metrics::side_flow_km)
          def_km += f.size * routing.km_in_side(
                                 f, problem.default_assignment.ix_of_flow[idx], 1);
          // nexit-lint: allow(float-accumulate): same canonical order
          neg_km += f.size *
                    routing.km_in_side(f, outcome.assignment.ix_of_flow[idx], 1);
        }
        s.downstream_distance_gain_pct =
            def_km > 0.0 ? (def_km - neg_km) / def_km * 100.0 : 0.0;
      }

      // Fig. 8: upstream optimises its own network unilaterally (fractional
      // LP over upstream links only, then implemented integrally).
      if (spec.unilateral) {
        opt::MinMaxConfig up_only;
        up_only.constrain_side_a = true;
        up_only.constrain_side_b = false;
        const opt::MinMaxLoadResult up_lp = opt::solve_min_max_load(
            routing, tm.flows(), negotiable_mask, pre_failure,
            problem.candidates, caps, up_only);
        if (up_lp.status == lp::SolveStatus::kOptimal) {
          const routing::Assignment unilateral =
              opt::round_to_integral(up_lp.assignment);
          const routing::LoadMap uni_loads =
              routing::compute_loads(routing, tm.flows(), unilateral);
          s.mel_unilateral[0] = metrics::side_mel(uni_loads, caps, 0);
          s.mel_unilateral[1] = metrics::side_mel(uni_loads, caps, 1);
        }
      }

      pair_samples.push_back(std::move(s));
    }
  };

  // Failure experiments need >= 3 interconnections (>= 2 survivors).
  return run_per_pair<BandwidthSample>(spec.universe(), 3, 0xba5eba11ull, 2,
                                       spec.threads, run_pair);
}

}  // namespace nexit::sim
