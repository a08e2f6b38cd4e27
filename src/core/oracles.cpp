#include "core/oracles.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "metrics/metrics.hpp"

namespace nexit::core {

namespace {

void check_ctx(const OracleContext& ctx) {
  if (ctx.problem == nullptr || ctx.tentative == nullptr)
    throw std::invalid_argument("oracle: null context");
}

/// Path of `f` inside ISP `side` when routed via interconnection `ix`
/// (upstream or downstream path depending on the flow's direction).
const std::vector<graph::EdgeIndex>& own_path(
    const routing::PairRouting& routing, const traffic::Flow& f,
    std::size_t ix, int side) {
  if (side == traffic::upstream_side(f.direction))
    return routing.upstream_path_edges(f, ix);
  return routing.downstream_path_edges(f, ix);
}

/// Reverse index: for every link of `side`'s backbone, the negotiable
/// positions whose candidate paths cross it. A position's preference row
/// depends on loads only through these links (the tentative interconnection
/// is always within the candidate set), so a row can be reused verbatim
/// whenever none of its footprint links changed.
std::vector<std::vector<std::uint32_t>> build_footprints(
    const NegotiationProblem& p, int side) {
  const topology::IspPair& pair = p.routing->pair();
  const std::size_t edges = side == 0 ? pair.a().backbone().edge_count()
                                      : pair.b().backbone().edge_count();
  std::vector<std::vector<std::uint32_t>> index(edges);
  std::vector<std::uint32_t> last(edges,
                                  std::numeric_limits<std::uint32_t>::max());
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos) {
    for (std::size_t m : p.members_of(pos)) {
      const traffic::Flow& f = (*p.flows)[m];
      for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
        for (graph::EdgeIndex e :
             own_path(*p.routing, f, p.candidates[ci], side)) {
          const auto idx = static_cast<std::size_t>(e);
          if (last[idx] != pos) {
            last[idx] = static_cast<std::uint32_t>(pos);
            index[idx].push_back(static_cast<std::uint32_t>(pos));
          }
        }
      }
    }
  }
  return index;
}

/// Positions whose rows must be re-scored: anything a touched link feeds,
/// plus the positions that settled since the last evaluation (their open
/// status entered/left the row formula). Over-inclusion is always safe —
/// recomputing an unaffected row reproduces the same bits.
std::vector<char> affected_positions(
    const detail::IncrementalOracleState& state,
    const std::vector<graph::EdgeIndex>& touched,
    const std::vector<std::size_t>& settled, std::size_t position_count) {
  std::vector<char> affected(position_count, 0);
  for (graph::EdgeIndex e : touched)
    for (std::uint32_t pos : state.positions_of_link[static_cast<std::size_t>(e)])
      affected[pos] = 1;
  for (std::size_t pos : settled) affected.at(pos) = 1;
  return affected;
}

/// (Re)builds a load-dependent oracle's incremental state for `ctx`: loads
/// from scratch (every full evaluate is a reset point), the footprint index
/// only when its inputs changed. Shared by BandwidthOracle and
/// PiecewiseCostOracle so their invalidation rules cannot drift apart.
void rebuild_incremental_state(detail::IncrementalOracleState& inc,
                               const OracleContext& ctx, int side,
                               const std::vector<char>* counted) {
  const NegotiationProblem& p = *ctx.problem;
  if (inc.loads == nullptr || inc.problem != &p || inc.routing != p.routing ||
      inc.flows != p.flows)
    inc.loads = std::make_unique<routing::IncrementalLoads>(*p.routing,
                                                            *p.flows, side);
  inc.loads->rebuild(*ctx.tentative, counted);
  inc.without = inc.loads->loads().per_side[static_cast<std::size_t>(side)];
  if (!inc.footprint_matches(p)) {
    inc.positions_of_link = build_footprints(p, side);
    inc.routing = p.routing;
    inc.flows = p.flows;
    inc.negotiable = p.negotiable;
    inc.candidates = p.candidates;
    inc.group_count = p.group_members.size();
  }
  inc.problem = &p;
}

/// True when `inc` holds state usable for an incremental continuation on
/// `p` — the guard both load-dependent oracles' evaluate_incremental()
/// applies before trusting cached loads/footprints/rows.
bool state_matches(const detail::IncrementalOracleState& inc,
                   const NegotiationProblem& p) {
  return inc.problem == &p && inc.loads != nullptr &&
         inc.deltas.rows() == p.negotiable.size() && inc.footprint_matches(p);
}

/// Undoes a row computation's edits of `inc.without`: every entry on a
/// member's tentative path is copied back from the maintained loads. A copy,
/// not adding the sizes back, so the scratch stays bit-equal to the loads.
void restore_loads(detail::IncrementalOracleState& inc,
                   const OracleContext& ctx,
                   std::span<const std::size_t> members, int side) {
  const NegotiationProblem& p = *ctx.problem;
  const auto& my_loads =
      inc.loads->loads().per_side[static_cast<std::size_t>(side)];
  for (std::size_t m : members) {
    for (graph::EdgeIndex e : own_path(*p.routing, (*p.flows)[m],
                                       ctx.tentative->ix_of_flow[m], side)) {
      const auto idx = static_cast<std::size_t>(e);
      inc.without[idx] = my_loads[idx];
    }
  }
}

/// Assembles an Evaluation from the state's (partially reused) delta matrix:
/// quantisation scale and classes are always recomputed over the full
/// matrix, which is what keeps incremental results bit-identical.
Evaluation assemble_evaluation(Matrix<double> deltas,
                               const PreferenceConfig& config,
                               std::size_t rows_recomputed) {
  Evaluation eval;
  eval.rows_recomputed = rows_recomputed;
  eval.classes =
      quantize_deltas(deltas, config, quantization_scale(deltas, config));
  eval.true_value = std::move(deltas);
  return eval;
}

/// Shared skeleton of evaluate_incremental() for the load-dependent
/// oracles: fold the accepted moves into the maintained loads, run the
/// oracle-specific `settle` hook (kExcluded's count_flow), recompute the
/// affected rows with `row`, and assemble. One body, so the two oracles'
/// incremental semantics cannot drift apart.
template <typename SettleFn, typename RowFn>
Evaluation reevaluate_incremental(detail::IncrementalOracleState& inc,
                                  const OracleContext& ctx, int side,
                                  const PreferenceConfig& config,
                                  const EvaluationDelta& delta,
                                  SettleFn settle, RowFn row) {
  const NegotiationProblem& p = *ctx.problem;
  // Moves first: a settling flow's position is updated before the settle
  // hook inserts it on its new path.
  for (const EvaluationDelta::Move& mv : delta.moves)
    inc.loads->move_flow(mv.flow, mv.to_ix);
  settle();

  inc.without = inc.loads->loads().per_side[static_cast<std::size_t>(side)];
  const auto touched = inc.loads->take_touched();
  const std::vector<char> affected = affected_positions(
      inc, touched[static_cast<std::size_t>(side)], delta.settled_positions,
      p.negotiable.size());
  std::size_t rows = 0;
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos) {
    if (!affected[pos]) continue;
    row(pos, inc.deltas[pos]);
    ++rows;
  }
  return assemble_evaluation(inc.deltas, config, rows);
}

}  // namespace

DistanceOracle::DistanceOracle(int side, PreferenceConfig config)
    : side_(side), config_(config) {
  if (side != 0 && side != 1)
    throw std::invalid_argument("DistanceOracle: side must be 0 or 1");
}

Evaluation DistanceOracle::evaluate(const OracleContext& ctx) {
  check_ctx(ctx);
  const NegotiationProblem& p = *ctx.problem;

  // Delta = traffic-km saved inside my network versus the default
  // alternative (size-weighted: carrying a bigger flow one km costs more).
  // Destination-based groups move together, so their members' deltas sum.
  Matrix<double> deltas(p.negotiable.size(), p.candidates.size());
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos) {
    const std::span<double> row = deltas[pos];
    for (std::size_t m : p.members_of(pos)) {
      const traffic::Flow& f = (*p.flows)[m];
      const double default_km =
          p.routing->km_in_side(f, p.default_ix(pos), side_);
      for (std::size_t ci = 0; ci < p.candidates.size(); ++ci)
        row[ci] += f.size * (default_km - p.routing->km_in_side(
                                              f, p.candidates[ci], side_));
    }
  }

  Evaluation eval =
      assemble_evaluation(std::move(deltas), config_, p.negotiable.size());
  cached_ = eval;
  cached_problem_ = &p;
  cached_routing_ = p.routing;
  cached_flows_ = p.flows;
  cached_negotiable_ = p.negotiable;
  cached_candidates_ = p.candidates;
  cached_defaults_.clear();
  cached_defaults_.reserve(p.negotiable.size());
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos)
    cached_defaults_.push_back(p.default_ix(pos));
  cached_group_count_ = p.group_members.size();
  return eval;
}

bool DistanceOracle::cache_matches(const NegotiationProblem& p) const {
  if (cached_problem_ != &p || cached_routing_ != p.routing ||
      cached_flows_ != p.flows || cached_negotiable_ != p.negotiable ||
      cached_candidates_ != p.candidates ||
      cached_group_count_ != p.group_members.size())
    return false;
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos)
    if (cached_defaults_[pos] != p.default_ix(pos)) return false;
  return true;
}

Evaluation DistanceOracle::evaluate_incremental(const OracleContext& ctx,
                                                const EvaluationDelta& delta) {
  (void)delta;
  check_ctx(ctx);
  // Distance deltas depend only on the (immutable) problem geometry, never
  // on the tentative assignment, so a prior evaluation is simply reusable.
  if (!cache_matches(*ctx.problem)) return evaluate(ctx);
  Evaluation eval = cached_;
  eval.rows_recomputed = 0;
  return eval;
}

BandwidthOracle::BandwidthOracle(int side, PreferenceConfig config,
                                 const routing::LoadMap& capacities,
                                 OpenFlowModel open_model)
    : side_(side), config_(config), capacities_(&capacities),
      open_model_(open_model) {
  if (side != 0 && side != 1)
    throw std::invalid_argument("BandwidthOracle: side must be 0 or 1");
}

std::vector<char> BandwidthOracle::open_mask(const OracleContext& ctx) const {
  const NegotiationProblem& p = *ctx.problem;
  // Only the representative flow carries the open bit (historical contract;
  // destination-based group members ride along as background).
  std::vector<char> open(p.flows->size(), 0);
  if (ctx.remaining != nullptr) {
    for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos)
      if ((*ctx.remaining)[pos]) open[p.negotiable[pos]] = 1;
  }
  return open;
}

/// One preference row: the member flows' MEL deltas versus the default,
/// judged against a background that excludes the whole group (when
/// counted). Shared verbatim by the full and incremental paths, which is
/// what makes their results bit-identical by construction.
void BandwidthOracle::compute_row(const OracleContext& ctx,
                                  const std::vector<char>& open,
                                  std::size_t pos, std::span<double> row) {
  const NegotiationProblem& p = *ctx.problem;
  const routing::PairRouting& routing = *p.routing;
  const auto& caps = capacities_->per_side[static_cast<std::size_t>(side_)];
  std::vector<double>& without = inc_.without;

  std::fill(row.begin(), row.end(), 0.0);
  const std::span<const std::size_t> members = p.members_of(pos);
  for (std::size_t m : members) {
    if (!open[m] || open_model_ == OpenFlowModel::kAtTentative) {
      const traffic::Flow& f = (*p.flows)[m];
      for (graph::EdgeIndex e :
           own_path(routing, f, ctx.tentative->ix_of_flow[m], side_))
        without[static_cast<std::size_t>(e)] -= f.size;
    }
  }
  for (std::size_t m : members) {
    const traffic::Flow& f = (*p.flows)[m];
    const double default_mel = metrics::path_mel(
        own_path(routing, f, p.default_ix(pos), side_), without, caps, f.size);
    for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
      const double alt_mel = metrics::path_mel(
          own_path(routing, f, p.candidates[ci], side_), without, caps, f.size);
      row[ci] += default_mel - alt_mel;
    }
  }
  restore_loads(inc_, ctx, members, side_);
}

Evaluation BandwidthOracle::evaluate(const OracleContext& ctx) {
  check_ctx(ctx);
  const NegotiationProblem& p = *ctx.problem;
  const std::vector<char> open = open_mask(ctx);
  if (open_model_ == OpenFlowModel::kAtTentative) {
    // Expected state: every flow counts at its tentative position.
    rebuild_incremental_state(inc_, ctx, side_, nullptr);
  } else {
    // Fig. 3 independence: open flows contribute nothing.
    std::vector<char> counted(open.size(), 0);
    for (std::size_t i = 0; i < open.size(); ++i) counted[i] = !open[i];
    rebuild_incremental_state(inc_, ctx, side_, &counted);
  }
  inc_.deltas = Matrix<double>(p.negotiable.size(), p.candidates.size());
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos)
    compute_row(ctx, open, pos, inc_.deltas[pos]);
  return assemble_evaluation(inc_.deltas, config_, p.negotiable.size());
}

Evaluation BandwidthOracle::evaluate_incremental(const OracleContext& ctx,
                                                 const EvaluationDelta& delta) {
  check_ctx(ctx);
  const NegotiationProblem& p = *ctx.problem;
  if (!state_matches(inc_, p)) return evaluate(ctx);
  const std::vector<char> open = open_mask(ctx);
  return reevaluate_incremental(
      inc_, ctx, side_, config_, delta,
      [&] {
        if (open_model_ == OpenFlowModel::kExcluded) {
          for (std::size_t pos : delta.settled_positions)
            for (std::size_t m : p.members_of(pos)) inc_.loads->count_flow(m);
        }
      },
      [&](std::size_t pos, std::span<double> row) {
        compute_row(ctx, open, pos, row);
      });
}

PiecewiseCostOracle::PiecewiseCostOracle(int side, PreferenceConfig config,
                                         const routing::LoadMap& capacities)
    : side_(side), config_(config), capacities_(&capacities) {
  if (side != 0 && side != 1)
    throw std::invalid_argument("PiecewiseCostOracle: side must be 0 or 1");
}

/// One preference row of the piecewise-linear metric. Placing flow f on a
/// path against a background without f only changes the touched links' phi
/// values, so the cost difference is evaluated link-by-link — the same
/// per-link bookkeeping the incremental path uses to decide which rows a
/// load change can affect.
void PiecewiseCostOracle::compute_row(const OracleContext& ctx,
                                      std::size_t pos, std::span<double> row) {
  const NegotiationProblem& p = *ctx.problem;
  const routing::PairRouting& routing = *p.routing;
  const auto& caps = capacities_->per_side[static_cast<std::size_t>(side_)];
  std::vector<double>& without = inc_.without;

  const auto placement_cost = [&](const std::vector<graph::EdgeIndex>& path,
                                  const std::vector<double>& without,
                                  double size) {
    double cost = 0.0;
    for (graph::EdgeIndex e : path) {
      const auto idx = static_cast<std::size_t>(e);
      // nexit-lint: allow(float-accumulate): summed in path-edge order, the
      // same order both full and incremental evaluation walk
      cost += metrics::piecewise_phi(without[idx] + size, caps[idx]) -
              metrics::piecewise_phi(without[idx], caps[idx]);
    }
    return cost;
  };

  std::fill(row.begin(), row.end(), 0.0);
  const std::span<const std::size_t> members = p.members_of(pos);
  for (std::size_t m : members) {
    const traffic::Flow& f = (*p.flows)[m];
    for (graph::EdgeIndex e :
         own_path(routing, f, ctx.tentative->ix_of_flow[m], side_))
      without[static_cast<std::size_t>(e)] -= f.size;
  }
  for (std::size_t m : members) {
    const traffic::Flow& f = (*p.flows)[m];
    const double default_cost = placement_cost(
        own_path(routing, f, p.default_ix(pos), side_), without, f.size);
    for (std::size_t ci = 0; ci < p.candidates.size(); ++ci) {
      const double alt_cost = placement_cost(
          own_path(routing, f, p.candidates[ci], side_), without, f.size);
      row[ci] += default_cost - alt_cost;
    }
  }
  restore_loads(inc_, ctx, members, side_);
}

Evaluation PiecewiseCostOracle::evaluate(const OracleContext& ctx) {
  check_ctx(ctx);
  const NegotiationProblem& p = *ctx.problem;
  // Expected-state loads (every flow at its tentative position).
  rebuild_incremental_state(inc_, ctx, side_, nullptr);
  inc_.deltas = Matrix<double>(p.negotiable.size(), p.candidates.size());
  for (std::size_t pos = 0; pos < p.negotiable.size(); ++pos)
    compute_row(ctx, pos, inc_.deltas[pos]);
  return assemble_evaluation(inc_.deltas, config_, p.negotiable.size());
}

Evaluation PiecewiseCostOracle::evaluate_incremental(
    const OracleContext& ctx, const EvaluationDelta& delta) {
  check_ctx(ctx);
  const NegotiationProblem& p = *ctx.problem;
  if (!state_matches(inc_, p)) return evaluate(ctx);
  return reevaluate_incremental(
      inc_, ctx, side_, config_, delta, [] {},
      [&](std::size_t pos, std::span<double> row) {
        compute_row(ctx, pos, row);
      });
}

}  // namespace nexit::core
