#include "graph/graph.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace nexit::graph {

Graph::Graph(std::size_t node_count) : adjacency_(node_count) {}

EdgeIndex Graph::add_edge(NodeIndex u, NodeIndex v, double weight,
                          double length_km) {
  if (u < 0 || v < 0 || static_cast<std::size_t>(u) >= adjacency_.size() ||
      static_cast<std::size_t>(v) >= adjacency_.size()) {
    throw std::out_of_range("Graph::add_edge: node index out of range");
  }
  if (weight < 0.0) throw std::invalid_argument("Graph::add_edge: negative weight");
  const auto idx = static_cast<EdgeIndex>(edges_.size());
  edges_.push_back(Edge{u, v, weight, length_km});
  adjacency_[static_cast<std::size_t>(u)].push_back(Arc{idx, v});
  adjacency_[static_cast<std::size_t>(v)].push_back(Arc{idx, u});
  return idx;
}

NodeIndex Graph::other_end(EdgeIndex e, NodeIndex from) const {
  const Edge& ed = edge(e);
  if (ed.u == from) return ed.v;
  if (ed.v == from) return ed.u;
  throw std::invalid_argument("Graph::other_end: node not an endpoint");
}

bool Graph::connected() const {
  if (adjacency_.empty()) return false;
  std::vector<char> seen(adjacency_.size(), 0);
  std::vector<NodeIndex> stack{0};
  seen[0] = 1;
  std::size_t visited = 1;
  while (!stack.empty()) {
    const NodeIndex n = stack.back();
    stack.pop_back();
    for (const Arc& arc : neighbors(n)) {
      if (!seen[static_cast<std::size_t>(arc.to)]) {
        seen[static_cast<std::size_t>(arc.to)] = 1;
        ++visited;
        stack.push_back(arc.to);
      }
    }
  }
  return visited == adjacency_.size();
}

ShortestPathTree::ShortestPathTree(const Graph& g, NodeIndex source)
    : graph_(&g),
      source_(source),
      dist_(g.node_count(), kInfDistance),
      length_km_(g.node_count(), kInfDistance),
      parent_edge_(g.node_count(), kNoEdge) {
  if (source < 0 || static_cast<std::size_t>(source) >= g.node_count())
    throw std::out_of_range("ShortestPathTree: source out of range");

  using Item = std::pair<double, NodeIndex>;  // (distance, node)
  std::priority_queue<Item, std::vector<Item>, std::greater<>> pq;
  dist_[static_cast<std::size_t>(source)] = 0.0;
  length_km_[static_cast<std::size_t>(source)] = 0.0;
  pq.emplace(0.0, source);

  while (!pq.empty()) {
    const auto [d, n] = pq.top();
    pq.pop();
    if (d > dist_[static_cast<std::size_t>(n)]) continue;  // stale entry
    for (const Graph::Arc& arc : g.neighbors(n)) {
      const Edge& e = g.edge(arc.edge);
      const double nd = d + e.weight;
      auto& best = dist_[static_cast<std::size_t>(arc.to)];
      // Strict improvement, or equal weight with a lower-index parent edge:
      // the second clause makes tie-breaking deterministic regardless of
      // priority-queue pop order.
      const bool improves = nd < best - 1e-12;
      const bool tie_better =
          std::abs(nd - best) <= 1e-12 &&
          parent_edge_[static_cast<std::size_t>(arc.to)] != kNoEdge &&
          arc.edge < parent_edge_[static_cast<std::size_t>(arc.to)];
      if (improves || tie_better) {
        best = nd;
        length_km_[static_cast<std::size_t>(arc.to)] =
            length_km_[static_cast<std::size_t>(n)] + e.length_km;
        parent_edge_[static_cast<std::size_t>(arc.to)] = arc.edge;
        pq.emplace(nd, arc.to);
      }
    }
  }
}

std::vector<EdgeIndex> ShortestPathTree::path_edges(NodeIndex dst) const {
  if (!reachable(dst))
    throw std::runtime_error("ShortestPathTree::path_edges: unreachable node");
  std::vector<EdgeIndex> path;
  NodeIndex cur = dst;
  while (cur != source_) {
    const EdgeIndex pe = parent_edge_[static_cast<std::size_t>(cur)];
    path.push_back(pe);
    cur = graph_->other_end(pe, cur);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

AllPairsShortestPaths::AllPairsShortestPaths(const Graph& g) {
  trees_.reserve(g.node_count());
  for (std::size_t s = 0; s < g.node_count(); ++s) {
    trees_.emplace_back(g, static_cast<NodeIndex>(s));
  }
}

}  // namespace nexit::graph
