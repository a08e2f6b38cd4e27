#include "opt/min_max_load.hpp"

#include <map>
#include <stdexcept>
#include <utility>

namespace nexit::opt {

MinMaxLoadResult solve_min_max_load(const routing::PairRouting& routing,
                                    const std::vector<traffic::Flow>& flows,
                                    const std::vector<char>& negotiable,
                                    const routing::Assignment& base_assignment,
                                    const std::vector<std::size_t>& candidates,
                                    const routing::LoadMap& capacities,
                                    const MinMaxConfig& config) {
  if (negotiable.size() != flows.size() ||
      base_assignment.ix_of_flow.size() != flows.size())
    throw std::invalid_argument("solve_min_max_load: size mismatch");
  if (candidates.empty())
    throw std::invalid_argument("solve_min_max_load: no candidates");

  const bool side_constrained[2] = {config.constrain_side_a,
                                    config.constrain_side_b};

  // Background load from the flows that are not being re-routed.
  routing::LoadMap background = routing::LoadMap::zeros(routing.pair());
  std::vector<std::size_t> neg;  // indices of negotiable flows
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (negotiable[i]) {
      neg.push_back(i);
    } else {
      routing::add_flow_load(background, routing, flows[i],
                             base_assignment.ix_of_flow[i], 1.0);
    }
  }

  // Variable layout: x[f][c] for f in neg, c in candidates (row-major),
  // then t as the last variable.
  const std::size_t nf = neg.size();
  const std::size_t nc = candidates.size();
  const int t_var = static_cast<int>(nf * nc);
  lp::LpProblem problem(t_var + 1);
  problem.set_objective_coeff(t_var, 1.0);

  auto var_of = [&](std::size_t fi, std::size_t ci) {
    return static_cast<int>(fi * nc + ci);
  };

  // One convex-combination constraint per negotiable flow.
  for (std::size_t fi = 0; fi < nf; ++fi) {
    std::vector<std::pair<int, double>> terms;
    terms.reserve(nc);
    for (std::size_t ci = 0; ci < nc; ++ci) terms.emplace_back(var_of(fi, ci), 1.0);
    problem.add_constraint(std::move(terms), lp::Relation::kEq, 1.0);
  }

  // Per-link terms: (side, edge) -> list of (var, size). Only links on some
  // candidate path of some negotiable flow need a constraint; all other
  // links carry constant load.
  std::map<std::pair<int, graph::EdgeIndex>, std::vector<std::pair<int, double>>>
      link_terms;
  for (std::size_t fi = 0; fi < nf; ++fi) {
    const traffic::Flow& f = flows[neg[fi]];
    const int up = traffic::upstream_side(f.direction);
    const int down = traffic::downstream_side(f.direction);
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const std::size_t ix = candidates[ci];
      if (side_constrained[up]) {
        for (graph::EdgeIndex e : routing.upstream_path_edges(f, ix))
          link_terms[{up, e}].emplace_back(var_of(fi, ci), f.size);
      }
      if (side_constrained[down]) {
        for (graph::EdgeIndex e : routing.downstream_path_edges(f, ix))
          link_terms[{down, e}].emplace_back(var_of(fi, ci), f.size);
      }
    }
  }

  // For each touched link: background + sum(size * x) <= t * capacity.
  for (auto& [key, terms] : link_terms) {
    const auto [side, edge] = key;
    const double cap =
        capacities.per_side[static_cast<std::size_t>(side)].at(
            static_cast<std::size_t>(edge));
    if (!(cap > 0.0))  // also rejects NaN
      throw std::invalid_argument(
          "solve_min_max_load: non-positive or NaN capacity");
    const double bg = background.per_side[static_cast<std::size_t>(side)].at(
        static_cast<std::size_t>(edge));
    terms.emplace_back(t_var, -cap);
    problem.add_constraint(std::move(terms), lp::Relation::kLe, -bg);
  }

  const lp::Solution sol = lp::SimplexSolver{}.solve(problem);

  MinMaxLoadResult result;
  result.status = sol.status;
  if (sol.status != lp::SolveStatus::kOptimal) return result;
  result.objective = sol.objective;

  result.assignment.shares_of_flow.resize(flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    if (!negotiable[i]) {
      result.assignment.shares_of_flow[i] = {
          {base_assignment.ix_of_flow[i], 1.0}};
    }
  }
  for (std::size_t fi = 0; fi < nf; ++fi) {
    auto& shares = result.assignment.shares_of_flow[neg[fi]];
    double total = 0.0;
    for (std::size_t ci = 0; ci < nc; ++ci) {
      const double v = sol.x[static_cast<std::size_t>(var_of(fi, ci))];
      if (v > 1e-9) {
        shares.push_back({candidates[ci], v});
        // nexit-lint: allow(float-accumulate): summed in candidate order to
        // normalise the solver's own shares; order fixed by the LP columns
        total += v;
      }
    }
    // Normalise tiny numerical drift so fractions sum to exactly 1.
    if (total > 0.0) {
      for (auto& s : shares) s.fraction /= total;
    } else {
      shares.push_back({candidates[0], 1.0});
    }
  }
  return result;
}

routing::Assignment round_to_integral(const routing::FractionalAssignment& fa) {
  routing::Assignment a;
  a.ix_of_flow.reserve(fa.shares_of_flow.size());
  for (const auto& shares : fa.shares_of_flow) {
    if (shares.empty())
      throw std::invalid_argument("round_to_integral: flow with no shares");
    std::size_t best_ix = shares[0].ix;
    double best_frac = shares[0].fraction;
    for (const auto& s : shares) {
      if (s.fraction > best_frac + 1e-12 ||
          (s.fraction > best_frac - 1e-12 && s.ix < best_ix)) {
        best_ix = s.ix;
        best_frac = s.fraction;
      }
    }
    a.ix_of_flow.push_back(best_ix);
  }
  return a;
}

}  // namespace nexit::opt
