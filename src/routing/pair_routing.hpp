#pragma once

#include <array>
#include <cstddef>
#include <mutex>
#include <vector>

#include "graph/graph.hpp"
#include "topology/isp_topology.hpp"
#include "traffic/traffic.hpp"

namespace nexit::routing {

/// Routing view over one ISP pair: all-pairs shortest paths inside both ISPs
/// plus per-flow interconnection alternatives. A flow's path is
///   src --(upstream IGP path)--> ix.pop_up --(peering link)--> ix.pop_down
///   --(downstream IGP path)--> dst
/// and the choice being negotiated is the interconnection index.
///
/// The referenced IspPair must outlive this object. Interconnection failures
/// are expressed by passing an explicit candidate list to the exit policies,
/// so one PairRouting (whose all-pairs computation is the expensive part)
/// serves all failure scenarios of its pair.
class PairRouting {
 public:
  explicit PairRouting(const topology::IspPair& pair);

  [[nodiscard]] const topology::IspPair& pair() const { return *pair_; }

  /// IGP weight distance from `pop` to interconnection `ix`'s PoP inside the
  /// given side (0 = ISP A, 1 = ISP B).
  [[nodiscard]] double igp_to_ix(int side, topology::PopId pop, std::size_t ix) const;

  /// Geographic km along the IGP shortest path from `pop` to `ix`'s PoP
  /// (a load from the table the constructor fills).
  [[nodiscard]] double km_to_ix(int side, topology::PopId pop,
                                std::size_t ix) const {
    return km_[static_cast<std::size_t>(side)]
              [static_cast<std::size_t>(pop.value()) * n_ix_ + ix];
  }

  /// Distance the flow travels inside its upstream / downstream ISP when
  /// routed via interconnection `ix` (km along IGP shortest paths).
  [[nodiscard]] double upstream_km(const traffic::Flow& f, std::size_t ix) const {
    return km_to_ix(traffic::upstream_side(f.direction), f.src, ix);
  }
  [[nodiscard]] double downstream_km(const traffic::Flow& f,
                                     std::size_t ix) const {
    return km_to_ix(traffic::downstream_side(f.direction), f.dst, ix);
  }
  [[nodiscard]] double total_km(const traffic::Flow& f, std::size_t ix) const {
    return upstream_km(f, ix) + downstream_km(f, ix);
  }

  /// Distance inside a specific side (side must be the flow's upstream or
  /// downstream ISP; throws std::invalid_argument otherwise).
  [[nodiscard]] double km_in_side(const traffic::Flow& f, std::size_t ix,
                                  int side) const {
    if (side == traffic::upstream_side(f.direction)) return upstream_km(f, ix);
    if (side == traffic::downstream_side(f.direction))
      return downstream_km(f, ix);
    throw_bad_side();
  }

  /// IGP weight inside the upstream network.
  [[nodiscard]] double upstream_igp(const traffic::Flow& f, std::size_t ix) const;

  /// Backbone edges the flow traverses inside its upstream ISP when routed
  /// via `ix` (edge indices of that ISP's graph). Empty when src is the
  /// interconnection PoP. Returns a reference into a per-side cache built
  /// on first use (thread-safely; the runtime shares a PairRouting across
  /// concurrently pumped sessions) — one path per (PoP, interconnection),
  /// never per call — valid for the lifetime of this PairRouting. Distance
  /// workloads that never ask for path edges pay nothing.
  [[nodiscard]] const std::vector<graph::EdgeIndex>& upstream_path_edges(
      const traffic::Flow& f, std::size_t ix) const;
  [[nodiscard]] const std::vector<graph::EdgeIndex>& downstream_path_edges(
      const traffic::Flow& f, std::size_t ix) const;

  // --- Exit policies (paper §2) -------------------------------------------
  // All take the candidate interconnection indices (the ones currently up);
  // ties break toward the lowest interconnection index, deterministically.

  /// Early-exit / hot-potato: minimise upstream IGP distance. This is the
  /// paper's default routing.
  [[nodiscard]] std::size_t early_exit(const traffic::Flow& f,
                                       const std::vector<std::size_t>& candidates) const;

  /// Per-flow globally optimal for the distance metric: minimise total km.
  [[nodiscard]] std::size_t min_total_km_exit(
      const traffic::Flow& f, const std::vector<std::size_t>& candidates) const;

 private:
  [[nodiscard]] const graph::ShortestPathTree& tree(int side,
                                                    topology::PopId source) const;
  [[nodiscard]] topology::PopId ix_pop(int side, std::size_t ix) const;
  [[nodiscard]] const std::vector<graph::EdgeIndex>& cached_path(
      int side, topology::PopId pop, std::size_t ix) const;
  void build_path_cache(int side) const;
  [[noreturn]] static void throw_bad_side();

  const topology::IspPair* pair_;
  graph::AllPairsShortestPaths paths_a_;
  graph::AllPairsShortestPaths paths_b_;
  std::size_t n_ix_ = 0;
  /// km_[side][pop * n_ix_ + ix]: km_to_ix(side, pop, ix), read off the
  /// shortest-path trees once at construction.
  std::array<std::vector<double>, 2> km_;
  /// path_cache_[side][pop * ix_count + ix]: edges of the IGP shortest path
  /// from `pop` to interconnection `ix`'s PoP inside `side`'s backbone.
  /// Built lazily per side under path_cache_once_, immutable afterwards.
  mutable std::array<std::once_flag, 2> path_cache_once_;
  mutable std::array<std::vector<std::vector<graph::EdgeIndex>>, 2> path_cache_;
};

/// Integral assignment: interconnection index per flow, aligned with the
/// traffic matrix's flow order.
struct Assignment {
  std::vector<std::size_t> ix_of_flow;
};

/// Builds the assignment produced by a given exit policy applied to every
/// flow independently (the "no negotiation" baselines).
Assignment assign_early_exit(const PairRouting& routing,
                             const std::vector<traffic::Flow>& flows,
                             const std::vector<std::size_t>& candidates);
Assignment assign_min_total_km(const PairRouting& routing,
                               const std::vector<traffic::Flow>& flows,
                               const std::vector<std::size_t>& candidates);

}  // namespace nexit::routing
