#include <gtest/gtest.h>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace nexit::graph {
namespace {

Graph line_graph() {
  // 0 -1- 1 -2- 2 -3- 3, weights 1,2,3; lengths 10,20,30.
  Graph g(4);
  g.add_edge(0, 1, 1.0, 10.0);
  g.add_edge(1, 2, 2.0, 20.0);
  g.add_edge(2, 3, 3.0, 30.0);
  return g;
}

TEST(Graph, AddEdgeAndAdjacency) {
  Graph g = line_graph();
  EXPECT_EQ(g.node_count(), 4u);
  EXPECT_EQ(g.edge_count(), 3u);
  EXPECT_EQ(g.neighbors(1).size(), 2u);
  EXPECT_EQ(g.other_end(0, 0), 1);
  EXPECT_EQ(g.other_end(0, 1), 0);
}

TEST(Graph, BadEndpointsThrow) {
  Graph g(2);
  EXPECT_THROW(g.add_edge(0, 5, 1.0, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 1, 1.0, 1.0), std::out_of_range);
  EXPECT_THROW(g.add_edge(0, 1, -1.0, 1.0), std::invalid_argument);
}

TEST(Graph, OtherEndWrongNodeThrows) {
  Graph g = line_graph();
  EXPECT_THROW((void)g.other_end(0, 3), std::invalid_argument);
}

TEST(Graph, Connectivity) {
  EXPECT_TRUE(line_graph().connected());
  Graph g(3);
  g.add_edge(0, 1, 1, 1);
  EXPECT_FALSE(g.connected());
  Graph empty(0);
  EXPECT_FALSE(empty.connected());
}

TEST(ShortestPath, LineDistances) {
  Graph g = line_graph();
  ShortestPathTree t(g, 0);
  EXPECT_DOUBLE_EQ(t.distance(0), 0.0);
  EXPECT_DOUBLE_EQ(t.distance(1), 1.0);
  EXPECT_DOUBLE_EQ(t.distance(2), 3.0);
  EXPECT_DOUBLE_EQ(t.distance(3), 6.0);
  EXPECT_DOUBLE_EQ(t.path_length_km(3), 60.0);
}

TEST(ShortestPath, PathEdgesAndNodes) {
  Graph g = line_graph();
  ShortestPathTree t(g, 0);
  EXPECT_EQ(t.path_edges(3), (std::vector<EdgeIndex>{0, 1, 2}));
  EXPECT_TRUE(t.path_edges(0).empty());
}

TEST(ShortestPath, PrefersLighterRoute) {
  // Triangle: 0-1 w=10; 0-2 w=1; 2-1 w=1. Shortest 0->1 goes via 2.
  Graph g(3);
  g.add_edge(0, 1, 10.0, 100.0);
  g.add_edge(0, 2, 1.0, 5.0);
  g.add_edge(2, 1, 1.0, 5.0);
  ShortestPathTree t(g, 0);
  EXPECT_DOUBLE_EQ(t.distance(1), 2.0);
  EXPECT_DOUBLE_EQ(t.path_length_km(1), 10.0);
  EXPECT_EQ(t.path_edges(1), (std::vector<EdgeIndex>{1, 2}));
}

TEST(ShortestPath, UnreachableReportsInfinity) {
  Graph g(3);
  g.add_edge(0, 1, 1, 1);
  ShortestPathTree t(g, 0);
  EXPECT_FALSE(t.reachable(2));
  EXPECT_THROW(t.path_edges(2), std::runtime_error);
}

TEST(ShortestPath, DeterministicTieBreak) {
  // Two equal-weight parallel routes 0->3: via 1 and via 2. The tree must
  // pick the same one every time (lower edge index wins).
  for (int trial = 0; trial < 5; ++trial) {
    Graph g(4);
    g.add_edge(0, 1, 1.0, 1.0);  // e0
    g.add_edge(1, 3, 1.0, 1.0);  // e1
    g.add_edge(0, 2, 1.0, 1.0);  // e2
    g.add_edge(2, 3, 1.0, 1.0);  // e3
    ShortestPathTree t(g, 0);
    EXPECT_EQ(t.path_edges(3), (std::vector<EdgeIndex>{0, 1}));
  }
}

TEST(ShortestPath, SelfLoopIgnoredSafely) {
  Graph g(2);
  g.add_edge(0, 0, 1.0, 1.0);
  g.add_edge(0, 1, 2.0, 2.0);
  ShortestPathTree t(g, 0);
  EXPECT_DOUBLE_EQ(t.distance(1), 2.0);
}

TEST(AllPairs, MatchesSingleSource) {
  Graph g = line_graph();
  AllPairsShortestPaths ap(g);
  for (NodeIndex s = 0; s < 4; ++s) {
    ShortestPathTree t(g, s);
    for (NodeIndex d = 0; d < 4; ++d) {
      EXPECT_DOUBLE_EQ(ap.distance(s, d), t.distance(d));
    }
  }
}

TEST(AllPairs, SymmetricOnUndirectedGraph) {
  util::Rng rng(99);
  Graph g(12);
  // Random connected graph: spanning chain + extras.
  for (int i = 1; i < 12; ++i)
    g.add_edge(i - 1, i, rng.next_double(1, 10), rng.next_double(1, 10));
  for (int k = 0; k < 10; ++k) {
    const auto u = static_cast<NodeIndex>(rng.next_below(12));
    const auto v = static_cast<NodeIndex>(rng.next_below(12));
    if (u != v) g.add_edge(u, v, rng.next_double(1, 10), rng.next_double(1, 10));
  }
  AllPairsShortestPaths ap(g);
  for (NodeIndex a = 0; a < 12; ++a)
    for (NodeIndex b = 0; b < 12; ++b)
      EXPECT_NEAR(ap.distance(a, b), ap.distance(b, a), 1e-9);
}

TEST(ShortestPath, SourceOutOfRangeThrows) {
  Graph g(2);
  g.add_edge(0, 1, 1, 1);
  EXPECT_THROW(ShortestPathTree(g, 5), std::out_of_range);
}

}  // namespace
}  // namespace nexit::graph
