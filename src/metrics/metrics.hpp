#pragma once

#include <cstddef>
#include <vector>

#include "routing/loads.hpp"
#include "routing/pair_routing.hpp"

namespace nexit::metrics {

/// §5.1 distance metric: total resource consumption as the size-weighted sum
/// of path lengths of all flows (km), across both ISPs. The paper's distance
/// experiments use unit-size flows, for which this is exactly the sum of
/// path lengths.
double total_flow_km(const routing::PairRouting& routing,
                     const std::vector<traffic::Flow>& flows,
                     const routing::Assignment& assignment);

/// Distance carried inside one ISP (side 0 = A, 1 = B); used for the
/// individual-gain view of Fig. 4b.
double side_flow_km(const routing::PairRouting& routing,
                    const std::vector<traffic::Flow>& flows,
                    const routing::Assignment& assignment, int side);

/// §5.2 congestion metric, MEL ("maximum excess load"): the maximum over
/// links of load-after-failure divided by link capacity, where capacity is
/// the (adjusted) pre-failure load. Higher is worse.
double mel(const std::vector<double>& loads, const std::vector<double>& capacities);

/// MEL restricted to one ISP's links.
double side_mel(const routing::LoadMap& loads, const routing::LoadMap& capacities,
                int side);

/// The worst "excess load" increase a single flow would cause along a given
/// path: max over the path's links of (load_without_flow + flow_size)/cap.
/// This is the quantity the bandwidth preference oracle maps to preference
/// classes ("maximum increase in link load along the path", §5.2).
double path_mel(const std::vector<graph::EdgeIndex>& path_edges,
                const std::vector<double>& loads_without_flow,
                const std::vector<double>& capacities, double flow_size);

/// Fortz–Thorup piecewise-linear link cost (the paper's alternate metric,
/// [10]): phi(u) with slopes 1,3,10,70,500,5000 at utilisation breakpoints
/// 0, 1/3, 2/3, 9/10, 1, 11/10. Returns the sum over links of phi(load/cap).
double piecewise_linear_cost(const std::vector<double>& loads,
                             const std::vector<double>& capacities);

/// One link's term of piecewise_linear_cost: phi(load / capacity). Throws
/// std::invalid_argument on a capacity <= 0.
double piecewise_phi(double load, double capacity);

}  // namespace nexit::metrics
