#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace nexit::graph {

using NodeIndex = std::int32_t;
using EdgeIndex = std::int32_t;

inline constexpr EdgeIndex kNoEdge = -1;
inline constexpr double kInfDistance = std::numeric_limits<double>::infinity();

/// One undirected edge. `weight` is the routing metric (the ISP's IGP link
/// weight); `length_km` is the geographic length used by the paper's distance
/// metric. They are distinct because ISPs route on weights but the evaluation
/// measures kilometres.
struct Edge {
  NodeIndex u = 0;
  NodeIndex v = 0;
  double weight = 1.0;
  double length_km = 0.0;
};

/// Undirected weighted multigraph with stable edge indices.
class Graph {
 public:
  explicit Graph(std::size_t node_count = 0);

  /// Adds an undirected edge and returns its index.
  EdgeIndex add_edge(NodeIndex u, NodeIndex v, double weight, double length_km);

  [[nodiscard]] std::size_t node_count() const { return adjacency_.size(); }
  [[nodiscard]] std::size_t edge_count() const { return edges_.size(); }
  [[nodiscard]] const Edge& edge(EdgeIndex e) const { return edges_.at(static_cast<std::size_t>(e)); }
  [[nodiscard]] const std::vector<Edge>& edges() const { return edges_; }

  struct Arc {
    EdgeIndex edge;
    NodeIndex to;
  };
  [[nodiscard]] const std::vector<Arc>& neighbors(NodeIndex n) const {
    return adjacency_.at(static_cast<std::size_t>(n));
  }

  /// Endpoint of `e` opposite to `from`.
  [[nodiscard]] NodeIndex other_end(EdgeIndex e, NodeIndex from) const;

  /// True if every node is reachable from node 0 (false for empty graphs).
  [[nodiscard]] bool connected() const;

 private:
  std::vector<Edge> edges_;
  std::vector<std::vector<Arc>> adjacency_;
};

/// Single-source shortest-path tree on edge weights (Dijkstra). Ties are
/// broken deterministically by node index so results are reproducible.
class ShortestPathTree {
 public:
  ShortestPathTree(const Graph& g, NodeIndex source);

  [[nodiscard]] NodeIndex source() const { return source_; }
  [[nodiscard]] double distance(NodeIndex dst) const {
    return dist_.at(static_cast<std::size_t>(dst));
  }
  [[nodiscard]] bool reachable(NodeIndex dst) const {
    return dist_.at(static_cast<std::size_t>(dst)) < kInfDistance;
  }

  /// Geographic length (sum of edge length_km) along the min-weight path.
  [[nodiscard]] double path_length_km(NodeIndex dst) const {
    return length_km_.at(static_cast<std::size_t>(dst));
  }

  /// Edge indices along the path source -> dst (empty when dst == source).
  /// Throws if dst is unreachable.
  [[nodiscard]] std::vector<EdgeIndex> path_edges(NodeIndex dst) const;

 private:
  const Graph* graph_;
  NodeIndex source_;
  std::vector<double> dist_;
  std::vector<double> length_km_;
  std::vector<EdgeIndex> parent_edge_;
};

/// All-pairs shortest paths: one tree per source. For PoP-level ISP maps
/// (tens of nodes) this is small and fast.
class AllPairsShortestPaths {
 public:
  explicit AllPairsShortestPaths(const Graph& g);

  [[nodiscard]] const ShortestPathTree& from(NodeIndex source) const {
    return trees_.at(static_cast<std::size_t>(source));
  }
  [[nodiscard]] double distance(NodeIndex a, NodeIndex b) const {
    return from(a).distance(b);
  }

 private:
  std::vector<ShortestPathTree> trees_;
};

}  // namespace nexit::graph
