#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "capacity/capacity.hpp"
#include "metrics/metrics.hpp"
#include "opt/min_max_load.hpp"
#include "test_topologies.hpp"
#include "topology/generator.hpp"
#include "traffic/traffic.hpp"

namespace nexit::opt {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

const std::vector<std::size_t> kAll{0, 1, 2};

TEST(MinMaxLoad, BalancesTwoFlowsAcrossDisjointPaths) {
  // Two unit flows a0->b2 and a2->b0 with all links capacity 1. Any shared
  // link doubles the ratio; the LP should spread load so no link exceeds ~1
  // times its fair share.
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 1.0),
                                   make_flow(1, Direction::kAtoB, 2, 0, 1.0)};
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  std::vector<char> neg{1, 1};
  routing::Assignment base{{0, 2}};

  auto res = solve_min_max_load(r, flows, neg, base, kAll, caps);
  ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);

  // Routing flow0 via ix2 and flow1 via ix0 puts each flow entirely inside
  // its upstream; every link then carries at most 1.0.
  auto loads = routing::compute_loads_fractional(r, flows, res.assignment);
  const double mel_total =
      std::max(metrics::side_mel(loads, caps, 0), metrics::side_mel(loads, caps, 1));
  EXPECT_NEAR(res.objective, mel_total, 1e-6);
  EXPECT_LE(res.objective, 1.0 + 1e-6);
}

TEST(MinMaxLoad, RespectsNonNegotiableBackground) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 1.0),
                                   make_flow(1, Direction::kAtoB, 0, 2, 1.0)};
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  // Flow 1 is pinned via ix0, loading both B links with 1.0.
  std::vector<char> neg{1, 0};
  routing::Assignment base{{0, 0}};
  auto res = solve_min_max_load(r, flows, neg, base, kAll, caps);
  ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
  // Negotiable flow 0 should avoid B entirely (go via ix2 through A),
  // keeping the max ratio at 1.0 (from the pinned background flow).
  auto loads = routing::compute_loads_fractional(r, flows, res.assignment);
  EXPECT_NEAR(metrics::side_mel(loads, caps, 1), 1.0, 1e-6);
  EXPECT_LE(metrics::side_mel(loads, caps, 0), 1.0 + 1e-6);
}

TEST(MinMaxLoad, FractionalSplitWhenNoIntegralBalance) {
  // One flow of size 2, caps 1 everywhere: splitting halves the ratio
  // compared to any integral routing.
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 1, 1, 2.0)};
  // src a1, dst b1: via ix1 zero internal distance; force links by using
  // endpoints 0 and 2 instead.
  flows[0] = make_flow(0, Direction::kAtoB, 0, 2, 2.0);
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  std::vector<char> neg{1};
  routing::Assignment base{{0}};
  auto res = solve_min_max_load(r, flows, neg, base, kAll, caps);
  ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
  // Integral best: 2.0 on some link. Fractional: split between ix0 (B path)
  // and ix2 (A path) gives 1.0 per link.
  EXPECT_NEAR(res.objective, 1.0, 1e-6);
  ASSERT_GE(res.assignment.shares_of_flow[0].size(), 2u);
}

TEST(MinMaxLoad, UpstreamOnlyScopeIgnoresDownstream) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 1.0)};
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {0.001, 0.001};  // downstream would scream if counted
  std::vector<char> neg{1};
  routing::Assignment base{{2}};
  MinMaxConfig cfg;
  cfg.constrain_side_a = true;
  cfg.constrain_side_b = false;
  auto res = solve_min_max_load(r, flows, neg, base, kAll, caps, cfg);
  ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
  // Upstream-optimal: send via ix0 (zero A distance), objective 0 on A links.
  EXPECT_NEAR(res.objective, 0.0, 1e-6);
}

TEST(MinMaxLoad, InputValidation) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2)};
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  EXPECT_THROW(solve_min_max_load(r, flows, {1, 1}, routing::Assignment{{0}},
                                  kAll, caps),
               std::invalid_argument);
  EXPECT_THROW(
      solve_min_max_load(r, flows, {1}, routing::Assignment{{0}}, {}, caps),
      std::invalid_argument);
}

TEST(MinMaxLoad, NanCapacityThrows) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2)};
  routing::LoadMap caps;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  caps.per_side[0] = {kNan, kNan};
  caps.per_side[1] = {kNan, kNan};
  // Rejected by the capacity check itself, before any NaN reaches the LP.
  try {
    (void)solve_min_max_load(r, flows, {1}, routing::Assignment{{0}}, kAll, caps);
    FAIL() << "a NaN capacity was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("capacity"), std::string::npos)
        << e.what();
  }
}

TEST(RoundToIntegral, PicksLargestShare) {
  routing::FractionalAssignment fa;
  fa.shares_of_flow = {{{0, 0.2}, {1, 0.8}}, {{2, 1.0}}, {{0, 0.5}, {1, 0.5}}};
  auto a = round_to_integral(fa);
  EXPECT_EQ(a.ix_of_flow, (std::vector<std::size_t>{1, 2, 0}));
  routing::FractionalAssignment bad;
  bad.shares_of_flow = {{}};
  EXPECT_THROW(round_to_integral(bad), std::invalid_argument);
}

TEST(MinMaxLoad, LpLowerBoundsIntegralOnRandomScenario) {
  // Property: the fractional LP objective never exceeds the MEL of the
  // early-exit integral routing restricted to the same candidate set.
  topology::TopologyGenerator gen(geo::CityDb::builtin(),
                                  topology::GeneratorConfig{});
  util::Rng rng(4242);
  auto isps = gen.generate_universe(12, rng);
  int tested = 0;
  for (std::size_t i = 0; i < isps.size() && tested < 3; ++i) {
    for (std::size_t j = i + 1; j < isps.size() && tested < 3; ++j) {
      auto pair = topology::make_pair_if_peers(isps[i], isps[j], 3);
      if (!pair) continue;
      ++tested;
      routing::PairRouting r(*pair);
      traffic::TrafficConfig tcfg;
      auto tm = traffic::TrafficMatrix::build(*pair, Direction::kAtoB, tcfg, rng);
      std::vector<std::size_t> all_ix;
      for (std::size_t k = 0; k < pair->interconnection_count(); ++k)
        all_ix.push_back(k);
      auto base = routing::assign_early_exit(r, tm.flows(), all_ix);
      auto baseline = routing::compute_loads(r, tm.flows(), base);
      auto caps = capacity::assign_capacities(baseline, capacity::CapacityConfig{});

      // Fail interconnection 0; re-route its flows over the rest.
      std::vector<std::size_t> up_ix(all_ix.begin() + 1, all_ix.end());
      std::vector<char> neg(tm.size(), 0);
      routing::Assignment after = base;
      for (std::size_t f = 0; f < tm.size(); ++f) {
        if (base.ix_of_flow[f] == 0) {
          neg[f] = 1;
          after.ix_of_flow[f] = r.early_exit(tm.flows()[f], up_ix);
        }
      }
      auto res = solve_min_max_load(r, tm.flows(), neg, base, up_ix, caps);
      ASSERT_EQ(res.status, lp::SolveStatus::kOptimal);
      auto default_loads = routing::compute_loads(r, tm.flows(), after);
      const double default_mel =
          std::max(metrics::side_mel(default_loads, caps, 0),
                   metrics::side_mel(default_loads, caps, 1));
      EXPECT_LE(res.objective, default_mel + 1e-6);
    }
  }
  EXPECT_EQ(tested, 3);
}

}  // namespace
}  // namespace nexit::opt
