#include "core/side.hpp"

#include <algorithm>
#include <cstdint>
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
    throw std::logic_error("preference list has wrong number of flows");
  for (const auto& fp : list.flows)
    if (fp.pref_of_candidate.size() != p.candidates.size())
      throw std::logic_error("preference list has wrong number of candidates");
}

/// Stable sort of `items` by `digit_of(item)` in [0, span): LSD radix sort
/// in 16-bit digits, so one counting pass for every class span below 65536
/// and bounded bucket memory for any other.
template <typename DigitOf>
void radix_sort(std::vector<std::size_t>& items, std::uint64_t span,
                DigitOf digit_of) {
  constexpr unsigned kBits = 16;
  constexpr std::uint64_t kMask = (std::uint64_t{1} << kBits) - 1;
  std::vector<std::size_t> scratch(items.size());
  std::vector<std::size_t> start;
  for (unsigned shift = 0; shift == 0 || (span - 1) >> shift != 0;
       shift += kBits) {
    const auto digit = [&](std::size_t item) {
      return (digit_of(item) >> shift) & kMask;
    };
    const std::uint64_t buckets = std::min((span - 1) >> shift, kMask) + 1;
    start.assign(buckets + 1, 0);
    for (std::size_t item : items) ++start[digit(item) + 1];
    for (std::uint64_t b = 0; b < buckets; ++b) start[b + 1] += start[b];
    for (std::size_t item : items) scratch[start[digit(item)]++] = item;
    items.swap(scratch);
  }
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
  rebuild_index();
}

void NegotiationSide::disclose(const PreferenceList& remote_hint) {
  const OracleContext ctx{&problem_, &tentative_, &remaining_};
  disclosed_ = oracle_->disclose(ctx, truth_.classes, remote_hint);
  check_shape(disclosed_, problem_);
  rebuild_index();
}

void NegotiationSide::set_remote_disclosed(PreferenceList list) {
  check_shape(list, problem_);
  remote_disclosed_ = std::move(list);
  rebuild_index();
}

NegotiationSide::RankKey NegotiationSide::proposal_key(int own, int remote,
                                                       bool is_default) const {
  switch (config_.proposal) {
    case ProposalPolicy::kMaxCombinedGain:
      return RankKey{own + remote, own, is_default};
    case ProposalPolicy::kBestLocalMinImpact:
      return RankKey{own, remote, is_default};
  }
  throw std::logic_error("proposal_key: bad policy");
}

NegotiationSide::PositionSummary NegotiationSide::summarize(
    std::size_t pos) const {
  const auto& mine = disclosed_.flows[pos].pref_of_candidate;
  const auto& theirs = remote_disclosed_.flows[pos].pref_of_candidate;
  const auto& truth = truth_.true_value[pos];
  const auto& banned = banned_[pos];
  // Each proposer maximises the combined class, breaks ties by its own
  // disclosed class, then prefers the default; on a residual tie the owner
  // assumes the worst of the tied alternatives.
  const auto track = [](RankKey& best, double& own, const RankKey& key,
                        double value) {
    if (best < key) {
      best = key;
      own = value;
    } else if (key == best) {
      own = std::min(own, value);
    }
  };
  PositionSummary s;
  RankKey as_mine, as_remote;
  for (std::size_t ci = 0; ci < mine.size(); ++ci) {
    if (banned[ci]) continue;
    const int combined = mine[ci] + theirs[ci];
    const bool is_default = ci == default_ci_[pos];
    const RankKey mine_key{combined, mine[ci], is_default};
    const RankKey remote_key{combined, theirs[ci], is_default};
    const RankKey key = proposal_key(mine[ci], theirs[ci], is_default);
    if (!s.open) {
      s.open = true;
      as_mine = mine_key;
      as_remote = remote_key;
      s.own_if_mine = s.own_if_remote = truth[ci];
      s.best = key;
      s.best_ci = ci;
      continue;
    }
    track(as_mine, s.own_if_mine, mine_key, truth[ci]);
    track(as_remote, s.own_if_remote, remote_key, truth[ci]);
    if (s.best < key) {
      s.best = key;
      s.best_ci = ci;
    }
  }
  s.combined = as_mine.primary;
  return s;
}

void NegotiationSide::rebuild_index() {
  const std::size_t n = problem_.negotiable.size();
  summary_.clear();
  best_primary_.clear();
  order_.clear();
  if (truth_.true_value.size() != n || disclosed_.flows.size() != n ||
      remote_disclosed_.flows.size() != n)
    return;  // not every list has arrived yet
  summary_.reserve(n);
  best_primary_.reserve(n);
  int lo = 0, hi = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    // Settled positions stay out of the index for good.
    summary_.push_back(remaining_[pos] ? summarize(pos) : PositionSummary{});
    const PositionSummary& s = summary_.back();
    best_primary_.push_back(s.open ? s.best.primary : kClosedKey);
    if (!s.open) continue;
    if (order_.empty() || s.combined < lo) lo = s.combined;
    if (order_.empty() || s.combined > hi) hi = s.combined;
    order_.push_back(pos);
  }
  if (order_.empty()) return;
  // Bucket by distance below the observed maximum: decreasing combined
  // class, and stable, so equal classes keep position order.
  const auto span = static_cast<std::uint64_t>(
      static_cast<std::int64_t>(hi) - static_cast<std::int64_t>(lo) + 1);
  radix_sort(order_, span, [&](std::size_t pos) {
    return static_cast<std::uint64_t>(static_cast<std::int64_t>(hi) -
                                      summary_[pos].combined);
  });
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

bool NegotiationSide::select_proposal(util::Rng* rng,
                                      ProposalChoice& out) const {
  const obs::PhaseTimer timer(obs::Phase::kSelectProposal);
  bool found = false;
  RankKey best;
  std::size_t num_tied = 0;
  // The running best's primary key; it starts just above the sentinel, so
  // closed and settled positions never pass.
  int bar = kClosedKey + 1;
  const int* primary = best_primary_.data();
  for (std::size_t pos = 0; pos < best_primary_.size(); ++pos) {
    // Below the running best, no candidate here can win or tie.
    if (primary[pos] < bar) continue;
    const PositionSummary& s = summary_[pos];
    if (found && s.best < best) continue;
    if (rng == nullptr) {
      // Ties keep the first pair in scan order: the position's own first
      // best candidate, unless an earlier position already holds the key.
      if (!found || best < s.best) {
        found = true;
        best = s.best;
        bar = best.primary;
        out = ProposalChoice{pos, s.best_ci};
      }
      continue;
    }
    const auto& mine = disclosed_.flows[pos].pref_of_candidate;
    const auto& theirs = remote_disclosed_.flows[pos].pref_of_candidate;
    for (std::size_t ci = 0; ci < mine.size(); ++ci) {
      if (banned_[pos][ci]) continue;
      const RankKey key =
          proposal_key(mine[ci], theirs[ci], ci == default_ci_[pos]);
      if (!found || best < key) {
        found = true;
        best = key;
        num_tied = 1;
        out = ProposalChoice{pos, ci};
      } else if (key == best) {
        // Residual tie: uniform via reservoir sampling.
        ++num_tied;
        if (rng->next_below(num_tied) == 0) out = ProposalChoice{pos, ci};
      }
    }
    bar = best.primary;
  }
  return found;
}

template <typename Settled>
Projection NegotiationSide::walk_projection(std::size_t excluded,
                                            Settled settled) const {
  const obs::PhaseTimer timer(obs::Phase::kProjectFuture);
  Projection p;
  double run = 0.0;
  bool mine = true;
  for (std::size_t pos : order_) {
    if (!remaining_[pos] || pos == excluded) continue;
    const PositionSummary& s = summary_[pos];
    // nexit-lint: allow(float-accumulate): running prefix of the alternating
    // projection — inherently sequential, order IS the semantics
    run += mine ? s.own_if_mine : s.own_if_remote;
    p.peak = std::max(p.peak, run);
    mine = !mine;
    if (settled(p.peak)) break;
  }
  p.end = run;
  return p;
}

Projection NegotiationSide::project_future(std::size_t excluded) const {
  return walk_projection(excluded, [](double) { return false; });
}

bool NegotiationSide::stops_early() const {
  if (config_.termination != TerminationPolicy::kEarly) return false;
  // A positive peak already rules the stop out.
  const Projection f =
      walk_projection(kNoPosition, [](double peak) { return peak > 0; });
  return f.peak <= 0 && f.end < 0;
}

bool NegotiationSide::accepts(std::size_t pos, std::size_t ci) const {
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
      const auto recovers = [&](double peak) {
        return true_gain_ + value + peak >= 0;
      };
      return recovers(walk_projection(pos, recovers).peak);
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
  if (!best_primary_.empty()) best_primary_[pos] = kClosedKey;
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
  if (summary_.empty()) return;
  const PositionSummary now =
      remaining_[pos] ? summarize(pos) : PositionSummary{};
  PositionSummary& was = summary_[pos];
  best_primary_[pos] = now.open ? now.best.primary : kClosedKey;
  if (now.open == was.open && now.combined == was.combined) {
    was = now;  // same slot in the order
    return;
  }
  const auto before = [this](std::size_t a, std::size_t b) {
    return summary_[a].combined > summary_[b].combined ||
           (summary_[a].combined == summary_[b].combined && a < b);
  };
  if (was.open)
    order_.erase(std::lower_bound(order_.begin(), order_.end(), pos, before));
  was = now;
  if (now.open)
    order_.insert(std::upper_bound(order_.begin(), order_.end(), pos, before),
                  pos);
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
