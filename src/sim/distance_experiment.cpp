#include "sim/distance_experiment.hpp"

#include <cassert>
#include <stdexcept>

#include "core/baselines.hpp"
#include "metrics/metrics.hpp"
#include "sim/spec.hpp"
#include "traffic/traffic.hpp"

namespace nexit::sim {

namespace {

// Indices into each pair's streams: traffic, negotiation, and — only with
// the flow baselines — baseline.
constexpr std::size_t kTrafficStream = 0;
constexpr std::size_t kNegotiationStream = 1;
constexpr std::size_t kBaselineStream = 2;

void require_valid(const ExperimentSpec& spec) {
  assert(spec.experiment == ExperimentKind::kDistance);
  std::string error;
  if (!spec.validate(&error)) throw std::invalid_argument(error);
}

/// One pair's §5.1 workload: unit-size flows in both directions (the
/// paper's distance metric counts every PoP-pair flow equally), drawn from
/// the pair's traffic stream, with every interconnection a candidate.
struct Workload {
  routing::PairRouting routing;
  traffic::TrafficMatrix tm;
  std::vector<std::size_t> candidates;
};

Workload distance_workload(const topology::IspPair& pair,
                           util::Rng traffic_rng) {
  traffic::TrafficConfig tcfg;
  tcfg.model = traffic::WorkloadModel::kIdentical;
  std::vector<std::size_t> candidates(pair.interconnection_count());
  for (std::size_t i = 0; i < candidates.size(); ++i) candidates[i] = i;
  return {routing::PairRouting(pair),
          traffic::TrafficMatrix::build_bidirectional(pair, tcfg, traffic_rng),
          std::move(candidates)};
}

/// Runs negotiation over `spec.groups` random partitions of the flows (1 =
/// the whole set, the paper's default) and returns the combined assignment.
routing::Assignment negotiate_in_groups(const core::NegotiationProblem& whole,
                                        const ExperimentSpec& spec,
                                        util::Rng& rng,
                                        DistanceSample& sample) {
  routing::Assignment result = whole.default_assignment;

  std::vector<std::size_t> order = whole.negotiable;
  if (spec.groups > 1) rng.shuffle(order);
  const std::size_t group_size = (order.size() + spec.groups - 1) / spec.groups;

  for (std::size_t g = 0; g < spec.groups; ++g) {
    const std::size_t begin = g * group_size;
    if (begin >= order.size()) break;
    const std::size_t end = std::min(order.size(), begin + group_size);

    core::NegotiationProblem problem = whole;
    problem.negotiable.assign(order.begin() + static_cast<std::ptrdiff_t>(begin),
                              order.begin() + static_cast<std::ptrdiff_t>(end));
    const core::NegotiationOutcome outcome =
        negotiate(spec, problem, nullptr, rng.next_u64(), sample);
    for (std::size_t idx : problem.negotiable)
      result.ix_of_flow[idx] = outcome.assignment.ix_of_flow[idx];
  }
  return result;
}

}  // namespace

std::vector<DistanceSample> run_distance_experiment(
    const ExperimentSpec& spec) {
  require_valid(spec);

  const auto run_pair = [&spec](const topology::IspPair& pair,
                                std::vector<util::Rng>& streams,
                                std::vector<DistanceSample>& out) {
    const Workload w = distance_workload(pair, streams[kTrafficStream]);
    const routing::PairRouting& routing = w.routing;
    const std::vector<traffic::Flow>& flows = w.tm.flows();

    const core::NegotiationProblem problem =
        core::make_distance_problem(routing, flows, w.candidates);
    const routing::Assignment optimal =
        routing::assign_min_total_km(routing, flows, w.candidates);

    DistanceSample s;
    s.pair_label = pair.label();
    s.interconnections = pair.interconnection_count();
    s.flow_count = w.tm.size();

    util::Rng pair_rng = streams[kNegotiationStream];
    const routing::Assignment negotiated =
        negotiate_in_groups(problem, spec, pair_rng, s);

    s.default_km =
        metrics::total_flow_km(routing, flows, problem.default_assignment);
    s.optimal_km = metrics::total_flow_km(routing, flows, optimal);
    s.negotiated_km = metrics::total_flow_km(routing, flows, negotiated);
    for (int side = 0; side < 2; ++side) {
      s.default_side_km[side] = metrics::side_flow_km(
          routing, flows, problem.default_assignment, side);
      s.optimal_side_km[side] =
          metrics::side_flow_km(routing, flows, optimal, side);
      s.negotiated_side_km[side] =
          metrics::side_flow_km(routing, flows, negotiated, side);
    }

    if (spec.flow_baselines) {
      util::Rng baseline_rng = streams[kBaselineStream];
      const routing::Assignment pareto = core::flow_pair_strategy(
          routing, flows, w.candidates, problem.default_assignment,
          core::FlowPairStrategy::kFlowPareto, baseline_rng);
      const routing::Assignment both = core::flow_pair_strategy(
          routing, flows, w.candidates, problem.default_assignment,
          core::FlowPairStrategy::kFlowBothBetter, baseline_rng);
      s.pareto_km = metrics::total_flow_km(routing, flows, pareto);
      s.bothbetter_km = metrics::total_flow_km(routing, flows, both);
    }

    // Flow-level view (Fig. 6).
    s.flow_gain_pct_optimal.reserve(flows.size());
    s.flow_gain_pct_negotiated.reserve(flows.size());
    for (std::size_t i = 0; i < flows.size(); ++i) {
      const traffic::Flow& f = flows[i];
      const double def =
          routing.total_km(f, problem.default_assignment.ix_of_flow[i]);
      const double opt = routing.total_km(f, optimal.ix_of_flow[i]);
      const double neg = routing.total_km(f, negotiated.ix_of_flow[i]);
      const double denom = def > 0.0 ? def : 1.0;
      s.flow_gain_pct_optimal.push_back((def - opt) / denom * 100.0);
      s.flow_gain_pct_negotiated.push_back((def - neg) / denom * 100.0);
      s.flow_saving_km_negotiated.push_back((def - neg) * f.size);
    }
    out.push_back(std::move(s));
  };
  // The paper's distance experiment needs pairs with >= 2 interconnections.
  return run_per_pair<DistanceSample>(spec.universe(), 2, 0x5eedf00dull,
                                      spec.flow_baselines ? 3 : 2,
                                      spec.threads, run_pair);
}

std::vector<DestinationSample> run_destination_experiment(
    const ExperimentSpec& spec) {
  require_valid(spec);

  // Streams: traffic, then one engine-seed source for both modes.
  const auto run_pair = [&spec](const topology::IspPair& pair,
                                std::vector<util::Rng>& streams,
                                std::vector<DestinationSample>& out) {
    const Workload w = distance_workload(pair, streams[0]);
    const std::vector<traffic::Flow>& flows = w.tm.flows();
    const auto gain = [](double def, double neg) {
      return def > 0 ? (def - neg) / def * 100.0 : 0.0;
    };
    const auto run_mode = [&](const core::NegotiationProblem& problem,
                              EngineTotals& totals, double& total_out,
                              double* side_out) {
      const core::NegotiationOutcome outcome =
          negotiate(spec, problem, nullptr, streams[1].next_u64(), totals);
      total_out = gain(
          metrics::total_flow_km(w.routing, flows, problem.default_assignment),
          metrics::total_flow_km(w.routing, flows, outcome.assignment));
      if (side_out == nullptr) return;
      for (int side = 0; side < 2; ++side) {
        side_out[side] =
            gain(metrics::side_flow_km(w.routing, flows,
                                       problem.default_assignment, side),
                 metrics::side_flow_km(w.routing, flows, outcome.assignment,
                                       side));
      }
    };

    DestinationSample s;
    s.pair_label = pair.label();
    run_mode(core::make_distance_problem(w.routing, flows, w.candidates),
             s.source_dest, s.sd_gain, nullptr);
    run_mode(core::make_destination_problem(w.routing, flows, w.candidates),
             s.destination_based, s.db_gain, s.db_side_gain);
    out.push_back(std::move(s));
  };
  return run_per_pair<DestinationSample>(spec.universe(), 2, 0xddddull, 2,
                                         spec.threads, run_pair);
}

}  // namespace nexit::sim
