#include "core/side.hpp"

#include <cstring>
#include <stdexcept>

#include "obs/registry.hpp"

namespace nexit::core {

namespace {

/// Bit-level equality of two evaluations (telemetry fields excluded): the
/// contract evaluate_incremental() must honour versus a full recompute.
bool same_evaluation_bits(const Evaluation& a, const Evaluation& b) {
  if (a.true_value.size() != b.true_value.size()) return false;
  for (std::size_t i = 0; i < a.true_value.size(); ++i) {
    if (a.true_value[i].size() != b.true_value[i].size()) return false;
    if (!a.true_value[i].empty() &&
        std::memcmp(a.true_value[i].data(), b.true_value[i].data(),
                    a.true_value[i].size() * sizeof(double)) != 0)
      return false;
  }
  if (a.classes.flows.size() != b.classes.flows.size()) return false;
  for (std::size_t i = 0; i < a.classes.flows.size(); ++i) {
    if (a.classes.flows[i].flow != b.classes.flows[i].flow ||
        a.classes.flows[i].pref_of_candidate !=
            b.classes.flows[i].pref_of_candidate)
      return false;
  }
  return true;
}

#ifdef NDEBUG
constexpr bool kAuditByDefault = false;
#else
constexpr bool kAuditByDefault = true;  // debug builds audit every refresh
#endif

void check_shape(const PreferenceList& list, const NegotiationProblem& p) {
  if (list.flows.size() != p.negotiable.size())
    throw std::logic_error("oracle returned wrong number of flows");
  for (const auto& fp : list.flows)
    if (fp.pref_of_candidate.size() != p.candidates.size())
      throw std::logic_error("oracle returned wrong number of candidates");
}

}  // namespace

std::string to_string(StopReason r) {
  switch (r) {
    case StopReason::kExhausted: return "exhausted";
    case StopReason::kEarlyStopA: return "early-stop-a";
    case StopReason::kEarlyStopB: return "early-stop-b";
    case StopReason::kGainWouldGoNegative: return "gain-would-go-negative";
    case StopReason::kNoProposal: return "no-proposal";
  }
  return "?";
}

NegotiationSide::NegotiationSide(const NegotiationProblem& problem,
                                 PreferenceOracle& oracle, int side,
                                 const NegotiationConfig& config)
    : problem_(problem), oracle_(&oracle), side_(side), config_(config) {
  problem_.validate();
  tentative_ = problem_.default_assignment;
  remaining_.assign(problem_.negotiable.size(), 1);
  banned_.assign(problem_.negotiable.size(),
                 std::vector<char>(problem_.candidates.size(), 0));
  default_ci_.reserve(problem_.negotiable.size());
  for (std::size_t pos = 0; pos < problem_.negotiable.size(); ++pos)
    default_ci_.push_back(problem_.default_candidate(pos));
  remaining_count_ = problem_.negotiable.size();
  reassign_quantum_ =
      config_.reassign_traffic_fraction * problem_.negotiable_volume();
}

void NegotiationSide::enable_reassignment(bool remote_wants) {
  reassign_enabled_ = config_.reassign_traffic_fraction > 0.0 &&
                      (oracle_->wants_reassignment() || remote_wants);
}

void NegotiationSide::evaluate() {
  const OracleContext ctx{&problem_, &tentative_, &remaining_};
  const bool incremental = config_.incremental_evaluation && evaluated_once_;
  if (incremental) {
    const obs::PhaseTimer timer(obs::Phase::kEvaluateIncremental);
    truth_ = oracle_->evaluate_incremental(ctx, pending_delta_);
    ++tally_.evaluate_calls_incremental;
  } else {
    const obs::PhaseTimer timer(obs::Phase::kEvaluateFull);
    truth_ = oracle_->evaluate(ctx);
    ++tally_.evaluate_calls_full;
  }
  tally_.evaluate_rows_computed += truth_.rows_recomputed;
  tally_.evaluate_rows_full_equivalent += problem_.negotiable.size();
  if (incremental) {
    // The audit, every Nth incremental refresh (0 = every refresh in debug
    // builds, never in release; -1 = never): a full recompute must
    // reproduce the incremental result bit for bit. Running evaluate() also
    // rebuilds the oracle's internal state from the context, so later
    // incremental calls continue from a verified baseline.
    ++incremental_refreshes_;
    const int every = config_.verify_incremental_every;
    const bool audit =
        every > 0 ? incremental_refreshes_ % static_cast<std::size_t>(every) == 0
                  : every == 0 && kAuditByDefault;
    if (audit && !same_evaluation_bits(oracle_->evaluate(ctx), truth_))
      throw std::logic_error(
          "incremental evaluation diverged from full recompute (side " +
          std::to_string(side_) + ")");
  }
  pending_delta_.clear();
  evaluated_once_ = true;
  check_shape(truth_.classes, problem_);
  if (truth_.true_value.size() != problem_.negotiable.size())
    throw std::logic_error("oracle returned wrong true_value shape");
  for (const auto& row : truth_.true_value)
    if (row.size() != problem_.candidates.size())
      throw std::logic_error("oracle returned wrong true_value shape");
}

void NegotiationSide::disclose(const PreferenceList& remote_hint) {
  const OracleContext ctx{&problem_, &tentative_, &remaining_};
  disclosed_ = oracle_->disclose(ctx, truth_.classes, remote_hint);
  check_shape(disclosed_, problem_);
}

void NegotiationSide::set_remote_disclosed(PreferenceList list) {
  remote_disclosed_ = std::move(list);
}

StrategyView NegotiationSide::view() const {
  StrategyView v;
  v.remaining = &remaining_;
  v.banned = &banned_;
  v.default_ci = &default_ci_;
  v.my_disclosed = &disclosed_;
  v.remote_disclosed = &remote_disclosed_;
  v.my_true_value = &truth_.true_value;
  return v;
}

int NegotiationSide::turn_holder() const {
  if (config_.turn == TurnPolicy::kLowerGain &&
      disclosed_gain_[0] != disclosed_gain_[1])
    return disclosed_gain_[0] < disclosed_gain_[1] ? 0 : 1;
  return static_cast<int>(round_ % 2);
}

int NegotiationSide::settlement_opener(StopReason reason) const {
  if (reason == StopReason::kEarlyStopA) return 0;
  if (reason == StopReason::kEarlyStopB) return 1;
  return turn_holder();
}

bool NegotiationSide::stops_early() const {
  if (config_.termination != TerminationPolicy::kEarly) return false;
  const Projection f = project_future(view());
  return f.peak <= 0 && f.end < 0;
}

bool NegotiationSide::accepts(std::size_t pos, std::size_t ci) {
  const double value = truth_.true_value[pos][ci];
  switch (config_.acceptance) {
    case AcceptancePolicy::kAlwaysAccept:
      return true;
    case AcceptancePolicy::kVetoOwnLoss:
      return value >= 0;
    case AcceptancePolicy::kProtective: {
      if (true_gain_ + value >= 0) return true;
      // Would dip below default: accept only if the projected future
      // (without this flow) can recover the deficit even under pessimistic
      // tie resolution.
      remaining_[pos] = 0;
      const Projection rest = project_future(view());
      remaining_[pos] = 1;
      return true_gain_ + value + rest.peak >= 0;
    }
  }
  throw std::logic_error("accepts: bad policy");
}

bool NegotiationSide::apply_accept(std::size_t pos, std::size_t ci) {
  const std::size_t ix = problem_.candidates[ci];
  // Delta bookkeeping feeds evaluate_incremental(); skip it entirely when
  // full recomputes were requested (keeps --incremental=0 honest).
  const bool record_delta = config_.incremental_evaluation;
  for (std::size_t flow_index : problem_.members_of(pos)) {
    const std::size_t from = tentative_.ix_of_flow[flow_index];
    if (record_delta && from != ix)
      pending_delta_.moves.push_back(EvaluationDelta::Move{flow_index, from, ix});
    tentative_.ix_of_flow[flow_index] = ix;
    // nexit-lint: allow(float-accumulate): member order is the problem's,
    // identical on every replica of the negotiation
    volume_since_reassign_ += (*problem_.flows)[flow_index].size;
  }
  if (record_delta) pending_delta_.settled_positions.push_back(pos);
  const double value = truth_.true_value[pos][ci];
  if (ix != problem_.default_ix(pos)) {
    accepted_moves_.push_back(AcceptedMove{pos, value});
    ++tally_.flows_moved;
  }
  true_gain_ += value;
  disclosed_gain_[side_] += disclosed_.flows[pos].pref_of_candidate[ci];
  disclosed_gain_[1 - side_] +=
      remote_disclosed_.flows[pos].pref_of_candidate[ci];
  remaining_[pos] = 0;
  --remaining_count_;
  ++tally_.flows_negotiated;
  ++round_;
  if (!reassign_enabled_ || remaining_count_ == 0 ||
      volume_since_reassign_ < reassign_quantum_)
    return false;
  volume_since_reassign_ = 0.0;
  ++tally_.reassignments;
  return true;
}

void NegotiationSide::ban(std::size_t pos, std::size_t ci) {
  banned_[pos][ci] = 1;
  ++round_;
}

void NegotiationSide::roll_back(AcceptedMove& m) {
  for (std::size_t flow_index : problem_.members_of(m.pos))
    tentative_.ix_of_flow[flow_index] = problem_.default_ix(m.pos);
  true_gain_ -= m.value;
  m.rolled_back = true;
  ++tally_.flows_rolled_back;
}

std::vector<std::size_t> NegotiationSide::rollback_turn() {
  std::vector<std::size_t> rolled;
  while (true_gain_ < -1e-12) {
    AcceptedMove* worst = nullptr;
    for (AcceptedMove& m : accepted_moves_)
      if (!m.rolled_back && m.value < 0.0 &&
          (worst == nullptr || m.value < worst->value))
        worst = &m;
    if (worst == nullptr) break;  // nothing left to roll back
    roll_back(*worst);
    rolled.push_back(worst->pos);
  }
  return rolled;
}

bool NegotiationSide::apply_peer_rollback(std::size_t pos) {
  for (AcceptedMove& m : accepted_moves_) {
    if (m.pos == pos && !m.rolled_back) {
      roll_back(m);
      return true;
    }
  }
  return false;
}

NegotiationOutcome NegotiationSide::outcome(StopReason reason) const {
  NegotiationOutcome out = tally_;
  out.assignment = tentative_;
  (side_ == 0 ? out.true_gain_a : out.true_gain_b) = true_gain_;
  (side_ == 0 ? out.true_gain_b : out.true_gain_a) = disclosed_gain_[1 - side_];
  out.disclosed_gain_a = disclosed_gain_[0];
  out.disclosed_gain_b = disclosed_gain_[1];
  out.rounds = round_;
  out.stop_reason = reason;
  return out;
}

}  // namespace nexit::core
