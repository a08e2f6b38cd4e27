#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/oracles.hpp"
#include "metrics/metrics.hpp"
#include "test_topologies.hpp"

namespace nexit::core {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

TEST(DistanceProblem, AllFlowsNegotiableWithEarlyExitDefaults) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2),
                                   make_flow(1, Direction::kBtoA, 1, 1)};
  auto p = make_distance_problem(r, flows, {0, 1, 2});
  EXPECT_EQ(p.negotiable.size(), 2u);
  EXPECT_TRUE(p.group_members.empty());
  EXPECT_EQ(p.default_assignment.ix_of_flow[0], 0u);  // early exit from a0
  ASSERT_EQ(p.members_of(0).size(), 1u);
  EXPECT_EQ(p.members_of(0)[0], 0u);
}

TEST(FailureProblem, OnlyAffectedFlowsNegotiable) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{
      make_flow(0, Direction::kAtoB, 0, 2),   // early exit ix0 -> affected
      make_flow(1, Direction::kAtoB, 1, 1),   // early exit ix1 -> untouched
      make_flow(2, Direction::kAtoB, 0, 0)};  // early exit ix0 -> affected
  auto p = make_failure_problem(r, flows, 0);
  EXPECT_EQ(p.negotiable, (std::vector<std::size_t>{0, 2}));
  EXPECT_EQ(p.candidates, (std::vector<std::size_t>{1, 2}));
  // Affected flows' new defaults avoid the failed interconnection.
  EXPECT_NE(p.default_assignment.ix_of_flow[0], 0u);
  EXPECT_NE(p.default_assignment.ix_of_flow[2], 0u);
  // Unaffected flow keeps its pre-failure route.
  EXPECT_EQ(p.default_assignment.ix_of_flow[1], 1u);
  EXPECT_THROW(make_failure_problem(r, flows, 9), std::invalid_argument);
}

TEST(DestinationProblem, GroupsByDirectionAndDestination) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  // Three A->B flows to b2 (different sources), one to b0, one B->A flow.
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 1.0),
                                   make_flow(1, Direction::kAtoB, 1, 2, 5.0),
                                   make_flow(2, Direction::kAtoB, 2, 2, 2.0),
                                   make_flow(3, Direction::kAtoB, 0, 0, 1.0),
                                   make_flow(4, Direction::kBtoA, 2, 2, 1.0)};
  auto p = make_destination_problem(r, flows, {0, 1, 2});
  EXPECT_EQ(p.negotiable.size(), 3u);  // (A->B,b2), (A->B,b0), (B->A,a2)
  // The b2 group has three members sharing one default: the largest member
  // (flow 1, size 5, src a1) anchors it at its early exit, ix1.
  bool found_group = false;
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos) {
    const auto members = p.members_of(pos);
    if (members.size() == 3) {
      found_group = true;
      for (std::size_t m : members)
        EXPECT_EQ(p.default_assignment.ix_of_flow[m], 1u);
    }
  }
  EXPECT_TRUE(found_group);
  // Volume counts every member, not just representatives.
  EXPECT_NEAR(p.negotiable_volume(), 10.0, 1e-12);
}

TEST(DestinationProblem, GroupsMoveTogetherInNegotiation) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 1.0),
                                   make_flow(1, Direction::kAtoB, 1, 2, 1.0),
                                   make_flow(2, Direction::kAtoB, 2, 2, 1.0)};
  auto p = make_destination_problem(r, flows, {0, 1, 2});
  DistanceOracle a(0, PreferenceConfig{}), b(1, PreferenceConfig{});
  NegotiationEngine engine(p, a, b, NegotiationConfig{});
  auto out = engine.run();
  // One destination: all flows must end on the same interconnection.
  EXPECT_EQ(out.assignment.ix_of_flow[0], out.assignment.ix_of_flow[1]);
  EXPECT_EQ(out.assignment.ix_of_flow[1], out.assignment.ix_of_flow[2]);
  // Moving everything to ix2 (entry at the destination b2) saves B 400+300
  // km at A's cost of 200+100; win-win requires B's huge gain and A's... the
  // gains must be non-negative either way.
  EXPECT_GE(out.true_gain_a, -1e-6);
  EXPECT_GE(out.true_gain_b, -1e-6);
}

TEST(DestinationProblem, MismatchedGroupSizeRejected) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2)};
  auto p = make_destination_problem(r, flows, {0, 1, 2});
  p.group_members.push_back({0});  // now longer than negotiable
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace nexit::core
