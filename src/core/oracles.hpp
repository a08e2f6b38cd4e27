#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/oracle.hpp"
#include "routing/incremental_loads.hpp"
#include "routing/loads.hpp"

namespace nexit::core {

namespace detail {

/// Bookkeeping behind the load-dependent oracles' incremental path:
///  - exact delta-maintained link loads (routing::IncrementalLoads),
///  - the link -> negotiable-positions reverse index ("which preference rows
///    does this link feed"), built over every member's path to every
///    candidate — the tentative interconnection is always a candidate, so a
///    position's row can only change when one of its footprint links does,
///  - the previously computed delta matrix, reused for unaffected rows,
///  - one scratch copy of this side's link loads that a row computation
///    edits in place (its members' tentative paths taken out) and then
///    restores entry by entry from the maintained loads, so no row copies
///    the whole load vector.
/// `problem` identifies the context the state was built for; a mismatch
/// forces a full rebuild (the engine's first refresh always takes the full
/// path, so reusing one oracle across negotiations is safe). The footprint
/// index is a pure function of the problem's geometry, so it is rebuilt
/// only when the fingerprint below stops matching — not on every full
/// evaluate() — keeping the --incremental=0 baseline an honest baseline.
struct IncrementalOracleState {
  std::unique_ptr<routing::IncrementalLoads> loads;
  std::vector<std::vector<std::uint32_t>> positions_of_link;
  Matrix<double> deltas;
  std::vector<double> without;
  const NegotiationProblem* problem = nullptr;
  /// Copies of the inputs the footprint index depends on, compared before
  /// reusing it: a fresh problem at a recycled address (same stack slot in
  /// an experiment loop) must not inherit a stale index.
  const void* routing = nullptr;
  const void* flows = nullptr;
  std::vector<std::size_t> negotiable;
  std::vector<std::size_t> candidates;
  std::size_t group_count = 0;

  [[nodiscard]] bool footprint_matches(const NegotiationProblem& p) const {
    return !positions_of_link.empty() && routing == p.routing &&
           flows == p.flows && negotiable == p.negotiable &&
           candidates == p.candidates &&
           group_count == p.group_members.size();
  }
};

}  // namespace detail

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
  /// True when the cached evaluation was computed for this exact problem —
  /// same fingerprint standard as IncrementalOracleState: a fresh problem
  /// at a recycled address must not inherit the stale cache.
  [[nodiscard]] bool cache_matches(const NegotiationProblem& p) const;

  int side_;
  PreferenceConfig config_;
  Evaluation cached_;
  const NegotiationProblem* cached_problem_ = nullptr;
  const void* cached_routing_ = nullptr;
  const void* cached_flows_ = nullptr;
  std::vector<std::size_t> cached_negotiable_;
  std::vector<std::size_t> cached_candidates_;
  std::vector<std::size_t> cached_defaults_;  // default_ix per position
  std::size_t cached_group_count_ = 0;
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
