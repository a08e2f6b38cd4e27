#include "metrics/metrics.hpp"

#include <algorithm>
#include <stdexcept>

namespace nexit::metrics {

double total_flow_km(const routing::PairRouting& routing,
                     const std::vector<traffic::Flow>& flows,
                     const routing::Assignment& assignment) {
  if (assignment.ix_of_flow.size() != flows.size())
    throw std::invalid_argument("total_flow_km: assignment size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i)
    total += flows[i].size * routing.total_km(flows[i], assignment.ix_of_flow[i]);
  return total;
}

double side_flow_km(const routing::PairRouting& routing,
                    const std::vector<traffic::Flow>& flows,
                    const routing::Assignment& assignment, int side) {
  if (assignment.ix_of_flow.size() != flows.size())
    throw std::invalid_argument("side_flow_km: assignment size mismatch");
  double total = 0.0;
  for (std::size_t i = 0; i < flows.size(); ++i)
    total += flows[i].size *
             routing.km_in_side(flows[i], assignment.ix_of_flow[i], side);
  return total;
}

double mel(const std::vector<double>& loads,
           const std::vector<double>& capacities) {
  if (loads.size() != capacities.size())
    throw std::invalid_argument("mel: shape mismatch");
  double worst = 0.0;
  for (std::size_t e = 0; e < loads.size(); ++e) {
    if (capacities[e] <= 0.0) throw std::invalid_argument("mel: zero capacity");
    worst = std::max(worst, loads[e] / capacities[e]);
  }
  return worst;
}

double side_mel(const routing::LoadMap& loads, const routing::LoadMap& capacities,
                int side) {
  if (side != 0 && side != 1) throw std::invalid_argument("side_mel: bad side");
  return mel(loads.per_side[static_cast<std::size_t>(side)],
             capacities.per_side[static_cast<std::size_t>(side)]);
}

double path_mel(const std::vector<graph::EdgeIndex>& path_edges,
                const std::vector<double>& loads_without_flow,
                const std::vector<double>& capacities, double flow_size) {
  double worst = 0.0;
  for (graph::EdgeIndex e : path_edges) {
    const auto idx = static_cast<std::size_t>(e);
    if (capacities.at(idx) <= 0.0)
      throw std::invalid_argument("path_mel: zero capacity");
    worst = std::max(worst,
                     (loads_without_flow.at(idx) + flow_size) / capacities[idx]);
  }
  return worst;
}

namespace {

/// Fortz–Thorup phi: piecewise-linear, convex, increasing; utilisation u.
double phi(double u) {
  // Slopes and breakpoints from "Internet traffic engineering by optimizing
  // OSPF weights" (INFOCOM 2000).
  if (u < 1.0 / 3.0) return u;
  if (u < 2.0 / 3.0) return 3.0 * u - 2.0 / 3.0;
  if (u < 9.0 / 10.0) return 10.0 * u - 16.0 / 3.0;
  if (u < 1.0) return 70.0 * u - 178.0 / 3.0;
  if (u < 11.0 / 10.0) return 500.0 * u - 1468.0 / 3.0;
  return 5000.0 * u - 16318.0 / 3.0;
}

}  // namespace

double piecewise_linear_cost(const std::vector<double>& loads,
                             const std::vector<double>& capacities) {
  if (loads.size() != capacities.size())
    throw std::invalid_argument("piecewise_linear_cost: shape mismatch");
  double total = 0.0;
  for (std::size_t e = 0; e < loads.size(); ++e)
    total += piecewise_phi(loads[e], capacities[e]);
  return total;
}

double piecewise_phi(double load, double capacity) {
  if (capacity <= 0.0)
    throw std::invalid_argument("piecewise_linear_cost: zero capacity");
  return phi(load / capacity);
}

}  // namespace nexit::metrics
