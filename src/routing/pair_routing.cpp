#include "routing/pair_routing.hpp"

#include <cstdint>
#include <stdexcept>

namespace nexit::routing {

PairRouting::PairRouting(const topology::IspPair& pair)
    : pair_(&pair),
      paths_a_(pair.a().backbone()),
      paths_b_(pair.b().backbone()) {}

/// Precomputes every (PoP, interconnection) path of one side. Oracles walk
/// these paths per flow per candidate on every evaluation, so handing out
/// cached references instead of materializing vectors is what keeps the
/// per-row cost of (incremental) re-evaluation flat. Backbones are
/// connected by IspTopology's invariant, so every path exists.
void PairRouting::build_path_cache(int side) const {
  const std::size_t n_ix = pair_->interconnection_count();
  const graph::Graph& g =
      side == 0 ? pair_->a().backbone() : pair_->b().backbone();
  auto& cache = path_cache_[static_cast<std::size_t>(side)];
  cache.resize(g.node_count() * n_ix);
  for (std::size_t pop = 0; pop < g.node_count(); ++pop) {
    const graph::ShortestPathTree& t =
        tree(side, topology::PopId{static_cast<std::int32_t>(pop)});
    for (std::size_t ix = 0; ix < n_ix; ++ix)
      cache[pop * n_ix + ix] = t.path_edges(
          static_cast<graph::NodeIndex>(ix_pop(side, ix).value()));
  }
}

const std::vector<graph::EdgeIndex>& PairRouting::cached_path(
    int side, topology::PopId pop, std::size_t ix) const {
  const std::size_t n_ix = pair_->interconnection_count();
  if (ix >= n_ix)
    throw std::out_of_range("PairRouting: interconnection index out of range");
  std::call_once(path_cache_once_[static_cast<std::size_t>(side)],
                 [&] { build_path_cache(side); });
  return path_cache_[static_cast<std::size_t>(side)].at(
      static_cast<std::size_t>(pop.value()) * n_ix + ix);
}

const graph::ShortestPathTree& PairRouting::tree(int side,
                                                 topology::PopId source) const {
  const auto& ap = (side == 0) ? paths_a_ : paths_b_;
  return ap.from(static_cast<graph::NodeIndex>(source.value()));
}

topology::PopId PairRouting::ix_pop(int side, std::size_t ix) const {
  const topology::Interconnection& link = pair_->interconnections().at(ix);
  return (side == 0) ? link.pop_a : link.pop_b;
}

double PairRouting::igp_to_ix(int side, topology::PopId pop, std::size_t ix) const {
  return tree(side, pop).distance(
      static_cast<graph::NodeIndex>(ix_pop(side, ix).value()));
}

double PairRouting::km_to_ix(int side, topology::PopId pop, std::size_t ix) const {
  return tree(side, pop).path_length_km(
      static_cast<graph::NodeIndex>(ix_pop(side, ix).value()));
}

double PairRouting::upstream_km(const traffic::Flow& f, std::size_t ix) const {
  return km_to_ix(traffic::upstream_side(f.direction), f.src, ix);
}

double PairRouting::downstream_km(const traffic::Flow& f, std::size_t ix) const {
  return km_to_ix(traffic::downstream_side(f.direction), f.dst, ix);
}

double PairRouting::total_km(const traffic::Flow& f, std::size_t ix) const {
  return upstream_km(f, ix) + downstream_km(f, ix);
}

double PairRouting::km_in_side(const traffic::Flow& f, std::size_t ix,
                               int side) const {
  if (side == traffic::upstream_side(f.direction)) return upstream_km(f, ix);
  if (side == traffic::downstream_side(f.direction)) return downstream_km(f, ix);
  throw std::invalid_argument("PairRouting::km_in_side: bad side");
}

double PairRouting::upstream_igp(const traffic::Flow& f, std::size_t ix) const {
  return igp_to_ix(traffic::upstream_side(f.direction), f.src, ix);
}

const std::vector<graph::EdgeIndex>& PairRouting::upstream_path_edges(
    const traffic::Flow& f, std::size_t ix) const {
  return cached_path(traffic::upstream_side(f.direction), f.src, ix);
}

const std::vector<graph::EdgeIndex>& PairRouting::downstream_path_edges(
    const traffic::Flow& f, std::size_t ix) const {
  // Undirected graph: path ix->dst equals dst->ix reversed; edge set is what
  // load accounting needs.
  return cached_path(traffic::downstream_side(f.direction), f.dst, ix);
}

namespace {

template <typename Cost>
std::size_t argmin_candidate(const std::vector<std::size_t>& candidates,
                             Cost cost) {
  if (candidates.empty())
    throw std::invalid_argument("exit policy: empty candidate set");
  std::size_t best = candidates.front();
  double best_cost = cost(best);
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    const double c = cost(candidates[i]);
    if (c < best_cost - 1e-12 ||
        (c < best_cost + 1e-12 && candidates[i] < best)) {
      best = candidates[i];
      best_cost = c;
    }
  }
  return best;
}

}  // namespace

std::size_t PairRouting::early_exit(const traffic::Flow& f,
                                    const std::vector<std::size_t>& candidates) const {
  return argmin_candidate(candidates,
                          [&](std::size_t ix) { return upstream_igp(f, ix); });
}

std::size_t PairRouting::min_total_km_exit(
    const traffic::Flow& f, const std::vector<std::size_t>& candidates) const {
  return argmin_candidate(candidates,
                          [&](std::size_t ix) { return total_km(f, ix); });
}

namespace {

template <typename Policy>
Assignment assign_all(const std::vector<traffic::Flow>& flows, Policy policy) {
  Assignment a;
  a.ix_of_flow.reserve(flows.size());
  for (const auto& f : flows) a.ix_of_flow.push_back(policy(f));
  return a;
}

}  // namespace

Assignment assign_early_exit(const PairRouting& routing,
                             const std::vector<traffic::Flow>& flows,
                             const std::vector<std::size_t>& candidates) {
  return assign_all(flows, [&](const traffic::Flow& f) {
    return routing.early_exit(f, candidates);
  });
}

Assignment assign_min_total_km(const PairRouting& routing,
                               const std::vector<traffic::Flow>& flows,
                               const std::vector<std::size_t>& candidates) {
  return assign_all(flows, [&](const traffic::Flow& f) {
    return routing.min_total_km_exit(f, candidates);
  });
}

}  // namespace nexit::routing
