#include <gtest/gtest.h>

#include "routing/loads.hpp"
#include "routing/pair_routing.hpp"
#include "test_topologies.hpp"

namespace nexit::routing {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

const std::vector<std::size_t> kAll{0, 1, 2};

TEST(PairRouting, DistancesInsideEachIsp) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  // Flow a0 -> b2.
  auto f = make_flow(0, Direction::kAtoB, 0, 2);
  EXPECT_DOUBLE_EQ(r.upstream_km(f, 0), 0.0);
  EXPECT_DOUBLE_EQ(r.upstream_km(f, 1), 100.0);
  EXPECT_DOUBLE_EQ(r.upstream_km(f, 2), 200.0);
  EXPECT_DOUBLE_EQ(r.downstream_km(f, 0), 400.0);  // b0->b2 via the detour
  EXPECT_DOUBLE_EQ(r.downstream_km(f, 1), 300.0);
  EXPECT_DOUBLE_EQ(r.downstream_km(f, 2), 0.0);
  EXPECT_DOUBLE_EQ(r.total_km(f, 0), 400.0);
  EXPECT_DOUBLE_EQ(r.total_km(f, 2), 200.0);
}

TEST(PairRouting, KmInSideMatchesUpDown) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  auto f = make_flow(0, Direction::kBtoA, 2, 0);  // b2 -> a0
  EXPECT_DOUBLE_EQ(r.km_in_side(f, 0, 1), r.upstream_km(f, 0));
  EXPECT_DOUBLE_EQ(r.km_in_side(f, 0, 0), r.downstream_km(f, 0));
  EXPECT_THROW((void)r.km_in_side(f, 0, 2), std::invalid_argument);
}

TEST(PairRouting, EarlyExitPicksNearestToSource) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  EXPECT_EQ(r.early_exit(make_flow(0, Direction::kAtoB, 0, 2), kAll), 0u);
  EXPECT_EQ(r.early_exit(make_flow(0, Direction::kAtoB, 1, 2), kAll), 1u);
  EXPECT_EQ(r.early_exit(make_flow(0, Direction::kAtoB, 2, 0), kAll), 2u);
  // Restricted candidates: nearest up interconnection.
  EXPECT_EQ(r.early_exit(make_flow(0, Direction::kAtoB, 0, 2), {1, 2}), 1u);
}

TEST(PairRouting, MinTotalKmExit) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  // a0 -> b2: totals are 400 (ix0), 400 (ix1), 200 (ix2).
  EXPECT_EQ(r.min_total_km_exit(make_flow(0, Direction::kAtoB, 0, 2), kAll), 2u);
  // a0 -> b0: totals are 0, 200, 600.
  EXPECT_EQ(r.min_total_km_exit(make_flow(0, Direction::kAtoB, 0, 0), kAll), 0u);
}

TEST(PairRouting, EmptyCandidatesThrow) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  EXPECT_THROW((void)r.early_exit(make_flow(0, Direction::kAtoB, 0, 0), {}),
               std::invalid_argument);
}

TEST(PairRouting, ReverseDirectionUsesBSideAsUpstream) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  auto f = make_flow(0, Direction::kBtoA, 2, 0);  // src b2, dst a0
  EXPECT_DOUBLE_EQ(r.upstream_km(f, 2), 0.0);
  EXPECT_DOUBLE_EQ(r.upstream_km(f, 0), 400.0);
  EXPECT_DOUBLE_EQ(r.downstream_km(f, 2), 200.0);
  EXPECT_EQ(r.early_exit(f, kAll), 2u);
}

TEST(PairRouting, PathEdgesMatchDistances) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  auto f = make_flow(0, Direction::kAtoB, 0, 2);
  // Upstream path to ix2 crosses both A edges.
  auto up = r.upstream_path_edges(f, 2);
  EXPECT_EQ(up.size(), 2u);
  // Downstream path from ix0 to b2 crosses both B edges.
  auto down = r.downstream_path_edges(f, 0);
  EXPECT_EQ(down.size(), 2u);
  // Via ix2 the downstream path is empty (dst == entry PoP).
  EXPECT_TRUE(r.downstream_path_edges(f, 2).empty());
}

TEST(Assignments, PolicyAssignmentsPerFlow) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2),
                                   make_flow(1, Direction::kAtoB, 2, 0)};
  auto early = assign_early_exit(r, flows, kAll);
  EXPECT_EQ(early.ix_of_flow, (std::vector<std::size_t>{0, 2}));
  auto opt = assign_min_total_km(r, flows, kAll);
  EXPECT_EQ(opt.ix_of_flow, (std::vector<std::size_t>{2, 0}));
}

TEST(Loads, SingleFlowLoad) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 5.0)};
  Assignment a{{0}};  // via ix0: no A edges, both B edges
  LoadMap loads = compute_loads(r, flows, a);
  EXPECT_DOUBLE_EQ(loads.per_side[0][0], 0.0);
  EXPECT_DOUBLE_EQ(loads.per_side[0][1], 0.0);
  EXPECT_DOUBLE_EQ(loads.per_side[1][0], 5.0);
  EXPECT_DOUBLE_EQ(loads.per_side[1][1], 5.0);
}

TEST(Loads, AddAndRemoveFlowIsZeroSum) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  auto f = make_flow(0, Direction::kAtoB, 0, 2, 3.0);
  LoadMap loads = LoadMap::zeros(pair);
  add_flow_load(loads, r, f, 1, 1.0);
  add_flow_load(loads, r, f, 1, -1.0);
  for (int s = 0; s < 2; ++s)
    for (double v : loads.per_side[s]) EXPECT_NEAR(v, 0.0, 1e-12);
}

TEST(Loads, FractionalSplitsAcrossInterconnections) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2, 10.0)};
  FractionalAssignment fa;
  fa.shares_of_flow = {{{0, 0.5}, {2, 0.5}}};
  LoadMap loads = compute_loads_fractional(r, flows, fa);
  // Half via ix0 (B edges), half via ix2 (A edges).
  EXPECT_DOUBLE_EQ(loads.per_side[0][0], 5.0);
  EXPECT_DOUBLE_EQ(loads.per_side[0][1], 5.0);
  EXPECT_DOUBLE_EQ(loads.per_side[1][0], 5.0);
  EXPECT_DOUBLE_EQ(loads.per_side[1][1], 5.0);
}

TEST(Loads, MismatchedSizesThrow) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2)};
  EXPECT_THROW(compute_loads(r, flows, Assignment{{0, 1}}), std::invalid_argument);
}

TEST(Loads, AddFlowLoadRejectsMismatchedShape) {
  // The hot loop indexes unchecked after a single up-front shape check, so
  // a wrong-shaped LoadMap must be rejected before any accumulation.
  auto pair = figure1_pair();
  PairRouting r(pair);
  const auto f = make_flow(0, Direction::kAtoB, 0, 2);
  LoadMap short_side = LoadMap::zeros(pair);
  short_side.per_side[1].pop_back();
  EXPECT_THROW(add_flow_load(short_side, r, f, 0, 1.0), std::invalid_argument);
  LoadMap empty;
  EXPECT_THROW(add_flow_load(empty, r, f, 0, 1.0), std::invalid_argument);
  // A correctly shaped map still accumulates (behaviour pin).
  LoadMap ok = LoadMap::zeros(pair);
  add_flow_load(ok, r, f, 0, 1.0);
  EXPECT_DOUBLE_EQ(ok.per_side[1][0], 1.0);
}

TEST(PairRouting, PathEdgesAreCachedReferences) {
  auto pair = figure1_pair();
  PairRouting r(pair);
  const auto f = make_flow(0, Direction::kAtoB, 0, 2);
  // Repeated queries return the same cached vector, not fresh copies.
  const auto& first = r.upstream_path_edges(f, 2);
  const auto& second = r.upstream_path_edges(f, 2);
  EXPECT_EQ(&first, &second);
  // Out-of-range interconnections still throw (pre-cache behaviour).
  EXPECT_THROW((void)r.upstream_path_edges(f, 99), std::out_of_range);
}

}  // namespace
}  // namespace nexit::routing
