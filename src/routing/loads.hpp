#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "routing/pair_routing.hpp"

namespace nexit::routing {

/// Per-backbone-edge traffic loads for both ISPs of a pair.
/// per_side[0][e] is the load on edge e of ISP A's backbone, per_side[1]
/// likewise for ISP B. Also reused to hold link *capacities*, which have the
/// same shape (see capacity/).
struct LoadMap {
  std::array<std::vector<double>, 2> per_side;

  [[nodiscard]] static LoadMap zeros(const topology::IspPair& pair);
};

/// Adds (scale > 0) or removes (scale < 0) `scale * f.size` units of load
/// along the flow's path through both ISPs when routed via `ix`.
void add_flow_load(LoadMap& loads, const PairRouting& routing,
                   const traffic::Flow& f, std::size_t ix, double scale);

/// Loads produced by an integral assignment over the given flows.
LoadMap compute_loads(const PairRouting& routing,
                      const std::vector<traffic::Flow>& flows,
                      const Assignment& assignment);

/// Fractional assignment: for each flow, a weight per interconnection index
/// (sparse; missing entries are zero). Produced by the LP-based optimal
/// routing, which may split a flow across interconnections.
struct FractionalAssignment {
  struct Share {
    std::size_t ix = 0;
    double fraction = 0.0;  // in [0, 1], fractions of a flow sum to 1
  };
  std::vector<std::vector<Share>> shares_of_flow;
};

/// Loads produced by a fractional assignment.
LoadMap compute_loads_fractional(const PairRouting& routing,
                                 const std::vector<traffic::Flow>& flows,
                                 const FractionalAssignment& assignment);

}  // namespace nexit::routing
