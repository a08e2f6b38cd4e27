#pragma once

#include "core/preference.hpp"
#include "core/problem.hpp"

namespace nexit::core {

/// Snapshot the oracle sees when (re)computing preferences: the problem, the
/// current tentative assignment (already-negotiated flows sit on their agreed
/// interconnection, everything else on its default), and which negotiable
/// flows are still open. Load-dependent oracles must treat open flows as
/// absent — the paper's preference classes "are assigned independently of
/// each other" (Fig. 3: ISP-B is initially indifferent), and reassignment
/// then "takes into account the expected state of the network, assuming that
/// the first accepted choice was implemented".
struct OracleContext {
  const NegotiationProblem* problem = nullptr;
  const routing::Assignment* tentative = nullptr;
  /// Aligned with problem->negotiable; nonzero = still un-negotiated.
  const std::vector<char>* remaining = nullptr;
};

/// What changed in the negotiation since the previous oracle evaluation:
/// the accepted moves (every member flow whose tentative interconnection
/// changed) and the negotiable positions that settled, in acceptance order.
/// The engine accumulates one of these between reassignment quanta and hands
/// it to evaluate_incremental() so a load-dependent oracle can re-score only
/// the preference rows the touched links actually feed.
struct EvaluationDelta {
  struct Move {
    std::size_t flow = 0;     // index into problem->flows
    std::size_t from_ix = 0;  // tentative interconnection before the move
    std::size_t to_ix = 0;    // tentative interconnection after the move
  };
  std::vector<Move> moves;
  /// Indices into problem->negotiable whose remaining bit flipped to 0.
  std::vector<std::size_t> settled_positions;

  [[nodiscard]] bool empty() const {
    return moves.empty() && settled_positions.empty();
  }
  void clear() {
    moves.clear();
    settled_positions.clear();
  }
};

/// One ISP's internal evaluation: the exact metric deltas (its private,
/// full-precision view — e.g. km saved, or load-ratio reduction, versus the
/// default alternative) plus the opaque classes derived from them. Joint
/// decisions see only classes; the ISP's own decisions (stop voting, vetoes,
/// gain accounting) use the exact values — quantisation exists for
/// *disclosure*, an ISP never forgets its own metric.
struct Evaluation {
  /// true_value[pos][ci]: metric improvement versus the default alternative
  /// (positive = better for this ISP), full precision.
  Matrix<double> true_value;
  /// The corresponding opaque preference classes.
  PreferenceList classes;
  /// Telemetry, not semantics: how many preference rows the oracle actually
  /// recomputed to produce this result. A full evaluate() costs one row per
  /// negotiable position; incremental evaluations report only the affected
  /// rows. Excluded from bit-identity comparisons.
  std::size_t rows_recomputed = 0;
};

/// ISP-internal evaluation of routing choices (paper §4 step 1). Each ISP
/// maps flow alternatives to opaque preference classes based on its private
/// optimisation criterion; the engine never sees the underlying metric.
///
/// `evaluate` returns the ISP's *true* valuation. `disclose` produces what
/// the ISP actually advertises — identical to `evaluate().classes` for
/// honest ISPs (the default); a cheating ISP overrides it (see
/// cheating.hpp). The engine uses disclosed classes for joint decisions and
/// exact true values for each ISP's private decisions, which is exactly the
/// information structure of §5.4.
class PreferenceOracle {
 public:
  virtual ~PreferenceOracle() = default;

  /// True valuation for every negotiable flow, aligned with
  /// problem->negotiable (rows) and problem->candidates (columns).
  virtual Evaluation evaluate(const OracleContext& ctx) = 0;

  /// Re-evaluation after `delta` was applied to the tentative assignment
  /// since this oracle's previous evaluate()/evaluate_incremental() call on
  /// the same context. The contract is strict: the result (classes and
  /// true_value) must be *bit-identical* to what a fresh evaluate(ctx) would
  /// return — incrementality may only change how much work is done, never
  /// the answer (the engine cross-checks this in debug builds). The default
  /// is the trivially correct full recompute; stateful oracles override it.
  virtual Evaluation evaluate_incremental(const OracleContext& ctx,
                                          const EvaluationDelta& delta) {
    (void)delta;
    return evaluate(ctx);
  }

  /// What gets advertised to the other ISP. `own_truth` is this oracle's
  /// evaluate() result; `remote_truth` is the other ISP's true preference
  /// list — §5.4 assumes the cheater knows it perfectly (for a truthful
  /// remote it equals what the remote discloses). Honest oracles ignore it.
  virtual PreferenceList disclose(const OracleContext& ctx,
                                  const PreferenceList& own_truth,
                                  const PreferenceList& remote_truth) {
    (void)ctx;
    (void)remote_truth;
    return own_truth;
  }

  /// True if preferences depend on the tentative assignment and must be
  /// recomputed as flows are negotiated (bandwidth-style oracles).
  [[nodiscard]] virtual bool wants_reassignment() const { return false; }
};

}  // namespace nexit::core
