#include <gtest/gtest.h>

#include "capacity/capacity.hpp"
#include "core/oracles.hpp"
#include "test_topologies.hpp"

namespace nexit::core {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

struct Fixture {
  topology::IspPair pair = figure1_pair();
  routing::PairRouting routing{pair};
  std::vector<traffic::Flow> flows;
  NegotiationProblem problem;
  routing::Assignment tentative;
  std::vector<char> remaining;

  explicit Fixture(std::vector<traffic::Flow> fl) : flows(std::move(fl)) {
    problem = make_distance_problem(routing, flows, {0, 1, 2});
    tentative = problem.default_assignment;
    remaining.assign(problem.negotiable.size(), 1);
  }
  [[nodiscard]] OracleContext ctx() const {
    return OracleContext{&problem, &tentative, &remaining};
  }
};

TEST(DistanceOracle, DefaultAlternativeIsClassZero) {
  Fixture fx({make_flow(0, Direction::kAtoB, 0, 2)});
  DistanceOracle a(0, PreferenceConfig{});
  auto list = a.evaluate(fx.ctx()).classes;
  ASSERT_EQ(list.rows(), 1u);
  const std::size_t def = fx.problem.default_candidate(0);
  EXPECT_EQ(list[0][def], 0);
}

TEST(DistanceOracle, SignsFollowOwnDistance) {
  // Flow a0 -> b2, default early-exit = ix0 (0 km in A, 400 km in B).
  Fixture fx({make_flow(0, Direction::kAtoB, 0, 2)});
  DistanceOracle a(0, PreferenceConfig{});
  DistanceOracle b(1, PreferenceConfig{});
  auto la = a.evaluate(fx.ctx()).classes;
  auto lb = b.evaluate(fx.ctx()).classes;
  // For A (upstream): ix0 is closest (0km), others cost more -> negative.
  EXPECT_EQ(la[0][0], 0);
  EXPECT_LT(la[0][1], 0);
  EXPECT_LT(la[0][2],
            la[0][1]);
  // For B (downstream): ix2 enters at the destination -> strongly positive.
  EXPECT_EQ(lb[0][0], 0);
  EXPECT_GT(lb[0][2], 0);
  EXPECT_GT(lb[0][2], lb[0][1]);
}

TEST(DistanceOracle, LargestSwingMapsToExtremeClass) {
  Fixture fx({make_flow(0, Direction::kAtoB, 0, 2)});
  PreferenceConfig pc;
  pc.range = 10;
  DistanceOracle b(1, pc);
  auto lb = b.evaluate(fx.ctx()).classes;
  // B's largest saving is 400km (ix2): must map to +10.
  EXPECT_EQ(lb[0][2], 10);
}

TEST(DistanceOracle, OrdinalModeCompresses) {
  Fixture fx({make_flow(0, Direction::kAtoB, 0, 2)});
  PreferenceConfig pc;
  pc.ordinal = true;
  DistanceOracle b(1, pc);
  auto lb = b.evaluate(fx.ctx()).classes;
  for (PrefClass p : lb[0]) {
    EXPECT_GE(p, -1);
    EXPECT_LE(p, 1);
  }
  EXPECT_EQ(lb[0][2], 1);
}

TEST(DistanceOracle, BadSideThrows) {
  EXPECT_THROW(DistanceOracle(2, PreferenceConfig{}), std::invalid_argument);
}

TEST(BandwidthOracle, OpenFlowsContributeNoLoad) {
  // Two identical flows; both open: each is judged against an empty network,
  // so all alternatives that avoid sharing look the same as default ->
  // everything class 0 when paths have equal capacity headroom.
  Fixture fx({make_flow(0, Direction::kAtoB, 0, 2, 1.0),
              make_flow(1, Direction::kAtoB, 0, 2, 1.0)});
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  BandwidthOracle b(1, PreferenceConfig{}, caps, OpenFlowModel::kExcluded);
  auto list = b.evaluate(fx.ctx()).classes;
  // Default ix0: B path ratio (0+1)/1 = 1 for both B links; via ix1: 1;
  // via ix2: empty path -> 0. So ix2 is +P, ix0/ix1 equal 0... ix1 touches
  // only edge b1-b2: same ratio 1 -> delta 0.
  EXPECT_EQ(list[0][0], 0);
  EXPECT_EQ(list[0][1], 0);
  EXPECT_GT(list[0][2], 0);
}

TEST(BandwidthOracle, SettledFlowBecomesBackground) {
  Fixture fx({make_flow(0, Direction::kAtoB, 0, 2, 1.0),
              make_flow(1, Direction::kAtoB, 0, 2, 1.0)});
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  BandwidthOracle b(1, PreferenceConfig{}, caps, OpenFlowModel::kExcluded);

  // Settle flow 0 on ix0 (loads both B edges with 1.0).
  fx.remaining[0] = 0;
  fx.tentative.ix_of_flow[0] = 0;
  auto list = b.evaluate(fx.ctx()).classes;
  // Flow 1 via default ix0 now rides on loaded links: ratio (1+1)/1 = 2.
  // Via ix2: 0. Delta(ix2) = +2 -> maps to +P; delta(ix0) = 0 by definition.
  EXPECT_EQ(list[1][0], 0);
  EXPECT_EQ(list[1][2], PreferenceConfig{}.range);
  // And settled flow 0 is judged with itself removed: same shape as before.
  EXPECT_EQ(list[0][0], 0);
}

TEST(BandwidthOracle, UpstreamSideSeesItsOwnLinks) {
  Fixture fx({make_flow(0, Direction::kAtoB, 2, 0, 1.0)});
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  BandwidthOracle a(0, PreferenceConfig{}, caps);
  auto list = a.evaluate(fx.ctx()).classes;
  // src a2, dst b0; default early exit = ix2 (0 km in A). Alternatives force
  // A-internal travel -> negative for A.
  const std::size_t def = fx.problem.default_candidate(0);
  EXPECT_EQ(def, 2u);
  EXPECT_EQ(list[0][2], 0);
  EXPECT_LT(list[0][0], 0);
}

TEST(BandwidthOracle, AtTentativeSeesOpenPileUp) {
  // Expected-state model: two open flows piling on the same default path
  // make each other visible, so moving away is positive immediately.
  Fixture fx({make_flow(0, Direction::kAtoB, 0, 2, 1.0),
              make_flow(1, Direction::kAtoB, 0, 2, 1.0)});
  routing::LoadMap caps;
  caps.per_side[0] = {1.0, 1.0};
  caps.per_side[1] = {1.0, 1.0};
  BandwidthOracle b(1, PreferenceConfig{}, caps, OpenFlowModel::kAtTentative);
  auto list = b.evaluate(fx.ctx()).classes;
  // Default ix0 for flow 0: the other open flow already loads both B links
  // (ratio (1+1)/1 = 2); via ix2 the B path is empty (0). Delta(ix2) = +2.
  EXPECT_EQ(list[0][0], 0);
  EXPECT_GT(list[0][2], 0);
  // And under kExcluded the same situation shows a smaller swing (1 -> 0).
  BandwidthOracle b_excl(1, PreferenceConfig{}, caps, OpenFlowModel::kExcluded);
  auto excl = b_excl.evaluate(fx.ctx()).classes;
  EXPECT_GT(list[0][2], 0);
  EXPECT_GT(excl[0][2], 0);
}

TEST(BandwidthOracle, NullContextThrows) {
  routing::LoadMap caps;
  BandwidthOracle b(1, PreferenceConfig{}, caps);
  OracleContext empty;
  EXPECT_THROW(b.evaluate(empty), std::invalid_argument);
}

}  // namespace
}  // namespace nexit::core
