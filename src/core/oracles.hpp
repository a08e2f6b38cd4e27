#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/oracle.hpp"
#include "routing/incremental_loads.hpp"
#include "routing/loads.hpp"

namespace nexit::core {

namespace detail {

/// Bookkeeping behind the load-dependent oracles' incremental path:
///  - exact delta-maintained link loads of this side
///    (routing::IncrementalLoads),
///  - the link -> negotiable-positions reverse index ("which preference rows
///    does this link feed"), built over every member's path to every
///    candidate — the tentative interconnection is always a candidate, so a
///    position's row can only change when one of its footprint links does,
///  - the previously computed delta matrix, reused for unaffected rows,
///  - one scratch copy of this side's link loads that a row computation
///    edits in place (its members' tentative paths taken out) and then
///    restores entry by entry from the maintained loads, so no row copies
///    the whole load vector.
/// The state belongs to the one problem the oracle is bound to: the loads
/// and the footprint index are built once, at binding, and every full
/// evaluate() only resets the loads.
struct IncrementalOracleState {
  const NegotiationProblem* problem = nullptr;  // null until bound
  std::optional<routing::IncrementalLoads> loads;
  std::vector<std::vector<std::uint32_t>> positions_of_link;
  Matrix<double> deltas;
  std::vector<double> without;
};

}  // namespace detail

// Every oracle below serves one negotiation and side: it binds to the first
// problem it evaluates and throws std::logic_error when asked to evaluate
// any other (build one oracle per negotiation, as sim::negotiate and the
// runtime's sessions do). The same holds behind the cheat: decorator, which
// forwards evaluation to its inner oracle.

/// §5.1 oracle: the ISP's metric is the geographic distance each flow
/// travels inside its own network. Preferences for different flows are
/// independent, so no reassignment is needed. Class 0 is the default
/// alternative; the largest distance swing in the list maps to ±P.
class DistanceOracle : public PreferenceOracle {
 public:
  /// `side`: 0 if this oracle is ISP A, 1 if ISP B.
  DistanceOracle(int side, PreferenceConfig config);

  Evaluation evaluate(const OracleContext& ctx) override;
  /// Distance preferences ignore the tentative assignment entirely, so the
  /// incremental path returns the cached evaluation (zero rows recomputed).
  Evaluation evaluate_incremental(const OracleContext& ctx,
                                  const EvaluationDelta& delta) override;
  [[nodiscard]] bool wants_reassignment() const override { return false; }

 private:
  int side_;
  PreferenceConfig config_;
  const NegotiationProblem* problem_ = nullptr;  // null until bound
  Evaluation cached_;
};

/// How a load-dependent oracle accounts for flows that are still open
/// (un-negotiated). The paper is ambiguous: the Fig. 3 worked example
/// assigns preferences "independently of each other" (open flows invisible,
/// which is why ISP-B starts indifferent), while the §5.2 results require
/// the post-failure pile-up of affected flows to be visible up front.
enum class OpenFlowModel {
  /// Expected state: open flows counted at their tentative (default until
  /// negotiated) interconnection, the flow being valued excluded. Default;
  /// used for the §5.2/§5.3 experiments.
  kAtTentative,
  /// Fig. 3 independence: open flows contribute nothing; only settled flows
  /// and the non-negotiable background count.
  kExcluded,
};

/// §5.2 oracle: the ISP's metric is the maximum increase in link load along
/// the flow's path inside its own network — max over the path's links of
/// (load_without_flow + flow_size) / capacity. Load-dependent, so the
/// engine re-invokes it after each reassignment quantum of traffic; the
/// incremental path re-scores only the rows whose footprint links moved.
class BandwidthOracle : public PreferenceOracle {
 public:
  /// `capacities` must outlive the oracle (same shape as the pair's links).
  BandwidthOracle(int side, PreferenceConfig config,
                  const routing::LoadMap& capacities,
                  OpenFlowModel open_model = OpenFlowModel::kAtTentative);

  Evaluation evaluate(const OracleContext& ctx) override;
  Evaluation evaluate_incremental(const OracleContext& ctx,
                                  const EvaluationDelta& delta) override;
  [[nodiscard]] bool wants_reassignment() const override { return true; }

 private:
  [[nodiscard]] std::vector<char> open_mask(const OracleContext& ctx) const;
  /// Writes position `pos`'s deltas into `row`.
  void compute_row(const OracleContext& ctx, const std::vector<char>& open,
                   std::size_t pos, std::span<double> row);

  int side_;
  PreferenceConfig config_;
  const routing::LoadMap* capacities_;
  OpenFlowModel open_model_;
  detail::IncrementalOracleState inc_;
};

/// The paper's alternate load-dependent metric (§5.2 "alternate models"): a
/// piecewise-linear link cost in the style of the OSPF-weight-optimisation
/// LP [10 in the paper]. The ISP's value of an alternative is the reduction
/// in the sum of Fortz-Thorup phi(load/capacity) over its own links.
/// Penalises congestion progressively instead of only tracking the maximum.
/// Incremental evaluation keys off the same per-link phi bookkeeping: only
/// rows whose footprint links changed load are re-scored.
class PiecewiseCostOracle : public PreferenceOracle {
 public:
  PiecewiseCostOracle(int side, PreferenceConfig config,
                      const routing::LoadMap& capacities);

  Evaluation evaluate(const OracleContext& ctx) override;
  Evaluation evaluate_incremental(const OracleContext& ctx,
                                  const EvaluationDelta& delta) override;
  [[nodiscard]] bool wants_reassignment() const override { return true; }

 private:
  /// Writes position `pos`'s deltas into `row`.
  void compute_row(const OracleContext& ctx, std::size_t pos,
                   std::span<double> row);

  int side_;
  PreferenceConfig config_;
  const routing::LoadMap* capacities_;
  detail::IncrementalOracleState inc_;
};

}  // namespace nexit::core
