#include "routing/loads.hpp"

#include <stdexcept>

namespace nexit::routing {

LoadMap LoadMap::zeros(const topology::IspPair& pair) {
  LoadMap m;
  m.per_side[0].assign(pair.a().backbone().edge_count(), 0.0);
  m.per_side[1].assign(pair.b().backbone().edge_count(), 0.0);
  return m;
}

void add_flow_load(LoadMap& loads, const PairRouting& routing,
                   const traffic::Flow& f, std::size_t ix, double scale) {
  // Validate the map's shape once; the cached path edges index their side's
  // backbone by construction, so the accumulation loops stay unchecked.
  const topology::IspPair& pair = routing.pair();
  if (loads.per_side[0].size() != pair.a().backbone().edge_count() ||
      loads.per_side[1].size() != pair.b().backbone().edge_count())
    throw std::invalid_argument("add_flow_load: LoadMap shape mismatch");
  std::vector<double>& up = loads.per_side[traffic::upstream_side(f.direction)];
  std::vector<double>& down =
      loads.per_side[traffic::downstream_side(f.direction)];
  const double amount = scale * f.size;
  for (graph::EdgeIndex e : routing.upstream_path_edges(f, ix))
    up[static_cast<std::size_t>(e)] += amount;
  for (graph::EdgeIndex e : routing.downstream_path_edges(f, ix))
    down[static_cast<std::size_t>(e)] += amount;
}

LoadMap compute_loads(const PairRouting& routing,
                      const std::vector<traffic::Flow>& flows,
                      const Assignment& assignment) {
  if (assignment.ix_of_flow.size() != flows.size())
    throw std::invalid_argument("compute_loads: assignment size mismatch");
  LoadMap loads = LoadMap::zeros(routing.pair());
  for (std::size_t i = 0; i < flows.size(); ++i)
    add_flow_load(loads, routing, flows[i], assignment.ix_of_flow[i], 1.0);
  return loads;
}

LoadMap compute_loads_fractional(const PairRouting& routing,
                                 const std::vector<traffic::Flow>& flows,
                                 const FractionalAssignment& assignment) {
  if (assignment.shares_of_flow.size() != flows.size())
    throw std::invalid_argument("compute_loads_fractional: size mismatch");
  LoadMap loads = LoadMap::zeros(routing.pair());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    for (const auto& share : assignment.shares_of_flow[i]) {
      add_flow_load(loads, routing, flows[i], share.ix, share.fraction);
    }
  }
  return loads;
}

}  // namespace nexit::routing
