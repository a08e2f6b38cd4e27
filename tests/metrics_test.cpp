#include <gtest/gtest.h>

#include "metrics/metrics.hpp"
#include "test_topologies.hpp"

namespace nexit::metrics {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

TEST(Distance, TotalAndPerSide) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2),
                                   make_flow(1, Direction::kBtoA, 0, 1)};
  // Flow 0 via ix1: 100 in A + 300 in B = 400.
  // Flow 1 (b0 -> a1) via ix0: 0 in B + 100 in A.
  routing::Assignment a{{1, 0}};
  EXPECT_DOUBLE_EQ(total_flow_km(r, flows, a), 500.0);
  EXPECT_DOUBLE_EQ(side_flow_km(r, flows, a, 0), 200.0);  // inside A
  EXPECT_DOUBLE_EQ(side_flow_km(r, flows, a, 1), 300.0);  // inside B
}

TEST(Distance, SizeWeighted) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 2.0)};
  routing::Assignment a{{2}};
  EXPECT_DOUBLE_EQ(total_flow_km(r, flows, a), 2.0 * 200.0);
}

TEST(Mel, MaxRatio) {
  EXPECT_DOUBLE_EQ(mel({10, 20}, {10, 10}), 2.0);
  EXPECT_DOUBLE_EQ(mel({0, 0}, {1, 1}), 0.0);
  EXPECT_THROW(mel({1}, {0}), std::invalid_argument);
  EXPECT_THROW(mel({1, 2}, {1}), std::invalid_argument);
}

TEST(Mel, PerSide) {
  routing::LoadMap loads, caps;
  loads.per_side[0] = {5, 10};
  loads.per_side[1] = {30};
  caps.per_side[0] = {10, 10};
  caps.per_side[1] = {10};
  EXPECT_DOUBLE_EQ(side_mel(loads, caps, 0), 1.0);
  EXPECT_DOUBLE_EQ(side_mel(loads, caps, 1), 3.0);
  EXPECT_THROW(side_mel(loads, caps, 2), std::invalid_argument);
}

TEST(PathMel, MaxAlongPathWithFlowAdded) {
  // Path over edges 0 and 2; loads without the flow 4 and 9; caps 10.
  std::vector<double> loads{4, 100, 9};
  std::vector<double> caps{10, 10, 10};
  EXPECT_DOUBLE_EQ(path_mel({0, 2}, loads, caps, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(path_mel({0}, loads, caps, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(path_mel({}, loads, caps, 1.0), 0.0);
}

TEST(Piecewise, MatchesFortzThorupBreakpoints) {
  // phi is continuous and convex; check segment values.
  std::vector<double> caps{1};
  EXPECT_NEAR(piecewise_linear_cost({0.0}, caps), 0.0, 1e-12);
  EXPECT_NEAR(piecewise_linear_cost({1.0 / 3.0}, caps), 1.0 / 3.0, 1e-9);
  EXPECT_NEAR(piecewise_linear_cost({2.0 / 3.0}, caps), 4.0 / 3.0, 1e-9);
  EXPECT_NEAR(piecewise_linear_cost({0.9}, caps), 10.0 * 0.9 - 16.0 / 3.0, 1e-9);
  EXPECT_NEAR(piecewise_linear_cost({1.0}, caps), 70.0 - 178.0 / 3.0, 1e-9);
  EXPECT_NEAR(piecewise_linear_cost({1.1}, caps), 500.0 * 1.1 - 1468.0 / 3.0, 1e-9);
  EXPECT_NEAR(piecewise_linear_cost({1.2}, caps), 5000.0 * 1.2 - 16318.0 / 3.0, 1e-9);
}

TEST(Piecewise, ContinuousAtBreakpoints) {
  std::vector<double> caps{1};
  for (double b : {1.0 / 3.0, 2.0 / 3.0, 0.9, 1.0, 1.1}) {
    const double before = piecewise_linear_cost({b - 1e-9}, caps);
    const double after = piecewise_linear_cost({b + 1e-9}, caps);
    EXPECT_NEAR(before, after, 1e-5) << "discontinuity at " << b;
  }
}

TEST(Piecewise, PenalisesOverloadSharply) {
  std::vector<double> caps{1, 1};
  const double balanced = piecewise_linear_cost({0.6, 0.6}, caps);
  const double skewed = piecewise_linear_cost({1.15, 0.05}, caps);
  EXPECT_GT(skewed, 10 * balanced);
}

}  // namespace
}  // namespace nexit::metrics
