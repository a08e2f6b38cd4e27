#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/oracle.hpp"
#include "core/preference.hpp"
#include "core/problem.hpp"
#include "util/rng.hpp"

namespace nexit::core {

/// Who proposes in the current round (paper §4 step "Decide turn").
enum class TurnPolicy {
  kAlternate,   // the paper's experimental default
  kLowerGain,   // the ISP with lower cumulative gain proposes (max-min-fair)
  kCoinToss,    // seeded coin toss
};

/// How the proposer picks a (flow, alternative) (paper §4 step "Propose").
enum class ProposalPolicy {
  /// Maximise the sum of both ISPs' (disclosed) preferences; ties broken by
  /// the proposer's own preference, then deterministically. Paper default.
  kMaxCombinedGain,
  /// The paper's alternative: the proposer's best local alternative with
  /// minimal negative impact on the other ISP.
  kBestLocalMinImpact,
};

/// Whether the responder can reject (paper §4 step "Accept alternative?").
enum class AcceptancePolicy {
  /// Accept everything except proposals that would leave the responder
  /// unrecoverably below its default (cumulative gain + proposal + best
  /// projected future < 0). This is the §4 veto power used the way the paper
  /// argues ISPs use it — "an ISP can always protect itself by not
  /// negotiating losses" — and is what keeps negotiation no-loss (Fig. 4b).
  kProtective,
  kAlwaysAccept,  // accept unconditionally (trusting counterparty)
  kVetoOwnLoss,   // reject anything strictly worse than default for self
};

/// When negotiation stops (paper §4 step "Stop?").
enum class TerminationPolicy {
  /// "Early termination": an ISP stops when it perceives no additional gain
  /// in continuing — the projected greedy future can no longer raise its
  /// cumulative gain (peak <= 0) and would in fact lower it (end < 0).
  /// A future that is flat (all zeros) is harmless, so the ISP keeps
  /// negotiating, as ISP-A does in the paper's Fig. 3 example.
  kEarly,
  /// "Full termination": continue while both cumulative gains stay >= 0.
  kFull,
  /// Social-welfare mode: negotiate every flow on the table.
  kNegotiateAll,
};

/// How residual proposal ties (same combined sum, same secondary key) break.
enum class TieBreak {
  kRandom,         // uniform, seeded — the paper's worked example
  kDeterministic,  // lowest (flow, candidate) — required by the wire protocol
};

struct NegotiationConfig {
  PreferenceConfig preferences;
  TurnPolicy turn = TurnPolicy::kAlternate;
  ProposalPolicy proposal = ProposalPolicy::kMaxCombinedGain;
  AcceptancePolicy acceptance = AcceptancePolicy::kProtective;
  TerminationPolicy termination = TerminationPolicy::kEarly;
  TieBreak tie_break = TieBreak::kRandom;
  /// Re-invoke the oracles after this fraction of the negotiable traffic
  /// volume has been negotiated (0 disables; the paper uses 0.05 for the
  /// bandwidth experiments). Only honoured if an oracle wants reassignment.
  double reassign_traffic_fraction = 0.0;
  /// §6 settlement: after negotiation stops, an ISP that ended below its
  /// default "rolls back the compromises made in return" — its accepted
  /// losing concessions return to their defaults, worst first, until it is
  /// whole. Sides alternate starting with the one that stopped
  /// (NegotiationSide::settlement_opener); each rollback may trigger the
  /// other's. Guarantees the no-loss property of
  /// Fig. 4b even when a counterparty stops mid-trade.
  bool settlement_rollback = true;
  /// Use the oracles' evaluate_incremental() for every refresh after the
  /// first, handing them the accepted moves since the previous evaluation.
  /// Results are contractually bit-identical to full evaluate() — this knob
  /// exists for A/B benchmarking and as an escape hatch, not because the
  /// answers differ.
  bool incremental_evaluation = true;
  /// Cross-check cadence: every Nth incremental refresh, additionally run
  /// the full evaluate() and throw std::logic_error unless both results are
  /// bit-identical. 0 = automatic (every refresh in debug builds, never in
  /// release); N >= 1 forces the check in all build types; -1 disables it
  /// even in debug builds (for honest A/B timing of the two modes).
  int verify_incremental_every = 0;
  std::uint64_t seed = 1;
  bool record_trace = false;
};

enum class StopReason {
  kExhausted,        // every negotiable flow was negotiated
  kEarlyStopA,       // ISP A saw no additional gain (early termination)
  kEarlyStopB,
  kGainWouldGoNegative,  // full termination guard
  kNoProposal,       // every remaining alternative was vetoed
};

std::string to_string(StopReason r);

struct RoundTrace {
  std::size_t round = 0;
  int proposer = 0;                 // 0 = A, 1 = B
  traffic::FlowId flow;
  std::size_t interconnection = 0;  // proposed interconnection index
  PrefClass pref_a = 0;             // disclosed preferences of the proposal
  PrefClass pref_b = 0;
  bool accepted = false;
  bool reassigned_after = false;
};

struct NegotiationOutcome {
  /// Final interconnection per flow (all flows; non-negotiated ones on their
  /// default).
  routing::Assignment assignment;
  /// Cumulative *true* gains in each ISP's own exact metric units (km saved,
  /// load-ratio reduction, ... — whatever its oracle measures).
  double true_gain_a = 0.0;
  double true_gain_b = 0.0;
  /// Cumulative gains as visible through disclosed preferences.
  int disclosed_gain_a = 0;
  int disclosed_gain_b = 0;
  std::size_t rounds = 0;
  std::size_t flows_negotiated = 0;  // accepted proposals
  std::size_t flows_moved = 0;       // accepted with a non-default choice
  std::size_t flows_rolled_back = 0; // settlement rollbacks (§6)
  std::size_t reassignments = 0;
  /// Oracle-evaluation telemetry: how the preference work was actually done.
  /// A full call recomputes one row per negotiable position; incremental
  /// calls recompute only the rows the accepted moves' links feed, so
  /// evaluate_rows_computed / (calls x positions) is the fraction of the
  /// naive full-recompute work this negotiation performed.
  std::size_t evaluate_calls_full = 0;
  std::size_t evaluate_calls_incremental = 0;
  std::size_t evaluate_rows_computed = 0;
  /// What the same calls would have cost under full recomputation
  /// (calls x negotiable positions) — the denominator for the fraction of
  /// naive work performed.
  std::size_t evaluate_rows_full_equivalent = 0;
  StopReason stop_reason = StopReason::kExhausted;
  std::vector<RoundTrace> trace;     // filled when config.record_trace
};

/// A proposal: negotiable flow position and candidate index.
struct ProposalChoice {
  std::size_t pos = 0;
  std::size_t ci = 0;
};

/// The greedy projection of the remaining negotiation (see
/// NegotiationSide::project_future).
struct Projection {
  double peak = 0.0;  // best reachable cumulative own-gain increase
  double end = 0.0;   // own-gain increase if everything remaining is settled
};

/// One ISP's replica of a negotiation (paper §4, plus the §6 settlement):
/// the tentative assignment, which positions are still open or vetoed, its
/// own evaluation and both disclosed preference lists, its true gain and
/// both disclosed gains, the ledger of accepted moves, the delta pending for
/// the next incremental evaluation, and the reassignment quantum. Every
/// protocol step that changes or reads that state lives here, so the
/// in-process engine (two sides, one turn loop) and a wire agent (one side,
/// one channel) cannot drift apart: both replicas of a session apply the
/// same calls in the same order.
///
/// The position index. Every §4 round asks the same three questions of the
/// open (position, candidate) pairs — stop? propose what? accept? — so the
/// side keeps, per negotiable position, one summary of its unvetoed
/// candidates computed in a single pass: the best combined class (own +
/// remote disclosed), the owner's true value of the alternative each
/// proposer would pick (ties by its own disclosed class, then the default;
/// residual ties pessimistic for the owner), and the configured proposal
/// policy's key of the best candidate, with a bitmask of the candidates
/// that tie that key. Alongside it, the open positions in decreasing
/// combined class, ties in position order (a stable counting sort over the
/// observed class span). The index is a pure function of the three lists,
/// the vetoes and the open positions, and it is either stale or fresh:
///   - evaluate(), disclose() and set_remote_disclosed() mark it stale;
///   - the first reader of a stale index (stops_early, select_proposal,
///     accepts, project_future) rebuilds it, once, from whatever lists the
///     side holds then; reading before all three lists exist throws
///     std::logic_error;
///   - ban(pos, ci) and apply_accept() keep a fresh index fresh (ban
///     recomputes `pos` and moves it in the order, apply_accept closes its
///     selection key; the walk skips settled positions, as it does after
///     settlement rollbacks) and leave a stale one alone.
/// So a refresh costs one rebuild whatever order its three calls come in,
/// and the engine and a wire agent need not agree on that order. The
/// projection is then one walk over the order, which the stop test and
/// protective acceptance end as soon as the running peak decides them.
///
/// Selection keys are packed: (primary, secondary, is_default) in one int64
/// whose integer order is the lexicographic order of the triple. The
/// selection scans a contiguous array of each position's best packed key
/// (kClosedKey for closed or settled positions) and skips every position
/// below the running best, which can neither win nor tie. A position that
/// ties the running best draws once per candidate in its tie mask, in
/// candidate order; one that raises it replays the exact candidate loop, so
/// the intermediate draws are those of a scan of every pair, and the random
/// tie-break consumes the same draws. With more than 64 candidates the masks
/// cannot hold a row, and the exact loop runs for ties too.
///
/// All per-(position, candidate) tables — true values, both disclosed
/// lists, the veto table — are row-major Matrix blocks (core/preference.hpp).
class NegotiationSide {
 public:
  static constexpr std::size_t kNoPosition = static_cast<std::size_t>(-1);

  /// `side` is 0 for ISP A, 1 for ISP B; `oracle` must outlive the side.
  /// `problem` must be valid (NegotiationProblem::validate(); the builders
  /// and NegotiationEngine check it) and outlive the side.
  NegotiationSide(const NegotiationProblem& problem, PreferenceOracle& oracle,
                  int side, const NegotiationConfig& config);

  /// Turns reassignment quanta on when the configured fraction is positive
  /// and either ISP's oracle wants reassignment.
  void enable_reassignment(bool remote_wants);
  /// Re-evaluates the own oracle: full on the first call (or when
  /// incremental evaluation is off), otherwise incremental from the pending
  /// delta with the configured full-recompute audit. Throws
  /// std::logic_error on a failed audit or a malformed evaluation.
  void evaluate();
  /// Recomputes the own disclosed list. `remote_hint` is what this side
  /// believes the remote's true preferences are (only a cheating oracle
  /// reads it).
  void disclose(const PreferenceList& remote_hint);
  /// Takes the remote's disclosed list (throws std::logic_error on a shape
  /// mismatch or a class outside [-kMaxPrefRange, kMaxPrefRange]).
  void set_remote_disclosed(PreferenceList list);
  /// Forgets the pending delta at a quantum this side does not evaluate
  /// (its own oracle does not want reassignment).
  void discard_pending_delta() { pending_delta_.clear(); }

  /// Who proposes next under the deterministic turn rules: the lower
  /// disclosed gain under kLowerGain, else round parity (kCoinToss draws
  /// belong to the engine).
  [[nodiscard]] int turn_holder() const;
  /// Who opens §6 settlement: the side that stopped early, else the turn
  /// holder.
  [[nodiscard]] int settlement_opener(StopReason reason) const;
  /// Picks this side's proposal under the configured policy. Ranking: the
  /// policy's primary/secondary keys, then status-quo bias (the flow's
  /// default alternative wins residual ties — ISPs do not reroute without
  /// perceived benefit, which also keeps coarse class-0 ties from drifting
  /// traffic). With `rng == nullptr` any leftover tie breaks toward the
  /// lowest (pos, ci); with an rng it breaks uniformly at random (the
  /// paper's worked example), drawing `next_below(k)` for the k-th tied
  /// pair in (pos, ci) order. Returns false if nothing is proposable.
  bool select_proposal(util::Rng* rng, ProposalChoice& out) const;
  /// Greedy projection of the remaining negotiation as this side perceives
  /// it (TerminationPolicy::kEarly), leaving out position `excluded`: open
  /// flows settle in decreasing order of their best combined class,
  /// proposers alternate starting with this side, so tie resolution
  /// alternates between its own tie-break and the remote's (pessimistic on
  /// residual ties). That is what lets an ISP trust its own upcoming turns
  /// while staying realistic about the counterparty's (Fig. 4b no-loss,
  /// §5.4 premature termination against cheats).
  [[nodiscard]] Projection project_future(
      std::size_t excluded = kNoPosition) const;
  /// Early termination: the projected future can no longer raise this
  /// side's gain and would lower it.
  [[nodiscard]] bool stops_early() const;
  /// The configured acceptance policy, as the responder to (pos, ci).
  [[nodiscard]] bool accepts(std::size_t pos, std::size_t ci) const;
  /// Whether (pos, ci) may still be proposed: the position is open and the
  /// alternative was not vetoed.
  [[nodiscard]] bool proposable(std::size_t pos, std::size_t ci) const {
    return remaining_[pos] != 0 && banned_[pos][ci] == 0;
  }

  /// Ends the round with an accepted proposal. Returns true when the
  /// accepted volume completes a reassignment quantum (the counter restarts).
  bool apply_accept(std::size_t pos, std::size_t ci);
  /// Ends the round with a veto.
  void ban(std::size_t pos, std::size_t ci);
  /// This side's settlement turn: while below its default, it rolls back
  /// the standing concession that hurts it most (ties toward the earliest
  /// accepted). Returns the rolled-back positions in order.
  std::vector<std::size_t> rollback_turn();
  /// Applies a rollback the peer announced; false if `pos` never moved.
  bool apply_peer_rollback(std::size_t pos);

  /// The outcome as seen from this side. The peer's true gain is private,
  /// so its disclosed gain stands in for it.
  [[nodiscard]] NegotiationOutcome outcome(StopReason reason) const;

  [[nodiscard]] const Evaluation& truth() const { return truth_; }
  [[nodiscard]] const PreferenceList& disclosed() const { return disclosed_; }
  [[nodiscard]] const PreferenceList& remote_disclosed() const {
    return remote_disclosed_;
  }
  [[nodiscard]] const routing::Assignment& tentative() const {
    return tentative_;
  }
  [[nodiscard]] std::size_t round() const { return round_; }
  [[nodiscard]] std::size_t remaining_count() const { return remaining_count_; }
  [[nodiscard]] double true_gain() const { return true_gain_; }
  [[nodiscard]] int disclosed_gain(int side) const {
    return disclosed_gain_[side];
  }
  [[nodiscard]] const EvaluationDelta& pending_delta() const {
    return pending_delta_;
  }

 private:
  /// One accepted non-default move, remembered for settlement rollback.
  struct AcceptedMove {
    std::size_t pos = 0;
    double value = 0.0;  // this side's true value at acceptance
    bool rolled_back = false;
  };

  /// A proposal ranking key: (primary, secondary, is_default) packed so
  /// that integer order is lexicographic order — primary in the high 32
  /// bits, then secondary, then the default alternative winning the last
  /// bit. Exact for every class in [-kMaxPrefRange, kMaxPrefRange], which
  /// check_shape enforces.
  using Key = std::int64_t;
  static constexpr Key pack(int primary, int secondary, bool is_default) {
    return std::int64_t{primary} * (std::int64_t{1} << 32) +
           std::int64_t{secondary} * 2 + (is_default ? 1 : 0);
  }
  /// Tie masks hold one bit per candidate.
  static constexpr std::size_t kMaskBits = 64;

  /// What the index remembers of one position's unvetoed candidates.
  struct PositionSummary {
    bool open = false;  // some candidate is not vetoed
    int combined = 0;   // best own + remote disclosed class
    double own_if_mine = 0.0;    // own true value if this side proposes
    double own_if_remote = 0.0;  // ... if the remote proposes
    Key best = 0;                // best proposal key under the policy
    std::size_t best_ci = 0;     // first candidate (in ci order) holding it
    /// Bit ci set when candidate ci holds `best` (only for ci < kMaskBits).
    std::uint64_t tie_mask = 0;
  };

  void roll_back(AcceptedMove& m);
  [[nodiscard]] Key proposal_key(int own, int remote, bool is_default) const;
  [[nodiscard]] PositionSummary summarize(std::size_t pos) const;
  /// project_future(), cut short once `settled(peak)` holds: the peak only
  /// grows along the walk, so a decision waiting for it to clear a bar is
  /// final the moment it does (`end` is then a prefix).
  template <typename Settled>
  [[nodiscard]] Projection walk_projection(std::size_t excluded,
                                           Settled settled) const;
  /// Rebuilds a stale index from the current lists (see the class comment).
  void rebuild_index() const;

  const NegotiationProblem& problem_;
  PreferenceOracle* oracle_;
  int side_;
  NegotiationConfig config_;

  routing::Assignment tentative_;
  std::vector<char> remaining_;  // per negotiable position
  Matrix<char> banned_;          // vetoed (pos, ci) pairs
  std::vector<std::size_t> default_ci_;    // default candidate per position
  Evaluation truth_;
  PreferenceList disclosed_;
  PreferenceList remote_disclosed_;
  double true_gain_ = 0.0;
  int disclosed_gain_[2] = {0, 0};  // by side
  std::size_t remaining_count_ = 0;
  std::size_t round_ = 0;
  std::vector<AcceptedMove> accepted_moves_;
  /// Accepted moves + settles since the last evaluation; consumed by
  /// evaluate_incremental() at the next reassignment quantum.
  EvaluationDelta pending_delta_;
  bool reassign_enabled_ = false;
  double reassign_quantum_ = 0.0;
  double volume_since_reassign_ = 0.0;
  bool evaluated_once_ = false;
  std::size_t incremental_refreshes_ = 0;
  /// Counters carried into outcome(): flows negotiated/moved/rolled back,
  /// reassignments, and the evaluation telemetry.
  NegotiationOutcome tally_;
  /// The position index (see the class comment): a cache the const
  /// readers rebuild when it is stale, so a side is not safe to read from
  /// two threads at once (no driver shares one).
  mutable bool index_stale_ = true;
  mutable std::vector<PositionSummary> summary_;
  /// summary_[pos].best, or kClosedKey once the position is closed or
  /// settled: the selection's skip loop reads only this array. Real keys
  /// have primaries within +-2 * kMaxPrefRange, far above the sentinel.
  static constexpr Key kClosedKey = std::numeric_limits<Key>::min();
  mutable std::vector<Key> best_key_;
  /// Open positions with an unvetoed candidate at the last rebuild (minus
  /// those vetoed out since), by decreasing combined class, ties by
  /// position.
  mutable std::vector<std::size_t> order_;
};

}  // namespace nexit::core
