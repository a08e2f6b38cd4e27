#include "core/side.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>

#include "obs/registry.hpp"

namespace nexit::core {

namespace {

/// Bit-level equality of two evaluations (telemetry fields excluded): the
/// contract evaluate_incremental() must honour versus a full recompute.
bool same_evaluation_bits(const Evaluation& a, const Evaluation& b) {
  const std::span<const double> x = a.true_value.values();
  const std::span<const double> y = b.true_value.values();
  return a.true_value.rows() == b.true_value.rows() &&
         a.true_value.cols() == b.true_value.cols() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size_bytes()) == 0) &&
         a.classes == b.classes;
}

#ifdef NDEBUG
constexpr bool kAuditByDefault = false;
#else
constexpr bool kAuditByDefault = true;  // debug builds audit every refresh
#endif

/// A list must have one row per negotiable position and one column per
/// candidate, and every class must lie in [-kMaxPrefRange, kMaxPrefRange]
/// (what the packed selection keys can hold).
void check_shape(const PreferenceList& list, const NegotiationProblem& p) {
  if (list.rows() != p.negotiable.size())
    throw std::logic_error("preference list has wrong number of flows");
  if (list.rows() > 0 && list.cols() != p.candidates.size())
    throw std::logic_error("preference list has wrong number of candidates");
  for (PrefClass c : list.values())
    if (c < -kMaxPrefRange || c > kMaxPrefRange)
      throw std::logic_error("preference class out of range");
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
  tentative_ = problem_.default_assignment;
  remaining_.assign(problem_.negotiable.size(), 1);
  banned_ = Matrix<char>(problem_.negotiable.size(),
                         problem_.candidates.size());
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
  index_stale_ = true;
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
  if (truth_.true_value.rows() != problem_.negotiable.size() ||
      (truth_.true_value.rows() > 0 &&
       truth_.true_value.cols() != problem_.candidates.size()))
    throw std::logic_error("oracle returned wrong true_value shape");
}

void NegotiationSide::disclose(const PreferenceList& remote_hint) {
  index_stale_ = true;
  const OracleContext ctx{&problem_, &tentative_, &remaining_};
  disclosed_ = oracle_->disclose(ctx, truth_.classes, remote_hint);
  check_shape(disclosed_, problem_);
}

void NegotiationSide::set_remote_disclosed(PreferenceList list) {
  check_shape(list, problem_);
  remote_disclosed_ = std::move(list);
  index_stale_ = true;
}

NegotiationSide::Key NegotiationSide::proposal_key(int own, int remote,
                                                   bool is_default) const {
  switch (config_.proposal) {
    case ProposalPolicy::kMaxCombinedGain:
      return pack(own + remote, own, is_default);
    case ProposalPolicy::kBestLocalMinImpact:
      return pack(own, remote, is_default);
  }
  throw std::logic_error("proposal_key: bad policy");
}

NegotiationSide::PositionSummary NegotiationSide::summarize(
    std::size_t pos) const {
  const std::span<const PrefClass> mine = disclosed_[pos];
  const std::span<const PrefClass> theirs = remote_disclosed_[pos];
  const std::span<const double> truth = truth_.true_value[pos];
  const std::span<const char> banned = banned_[pos];
  // Each proposer maximises the combined class, breaks ties by its own
  // disclosed class, then prefers the default; on a residual tie the owner
  // assumes the worst of the tied alternatives.
  const auto track = [](Key& best, double& own, Key key, double value) {
    if (best < key) {
      best = key;
      own = value;
    } else if (key == best) {
      own = std::min(own, value);
    }
  };
  PositionSummary s;
  Key as_mine = 0, as_remote = 0;
  for (std::size_t ci = 0; ci < mine.size(); ++ci) {
    if (banned[ci]) continue;
    const int combined = mine[ci] + theirs[ci];
    const bool is_default = ci == default_ci_[pos];
    const Key mine_key = pack(combined, mine[ci], is_default);
    const Key remote_key = pack(combined, theirs[ci], is_default);
    const Key key = proposal_key(mine[ci], theirs[ci], is_default);
    const std::uint64_t bit = ci < kMaskBits ? std::uint64_t{1} << ci : 0;
    if (!s.open) {
      s.open = true;
      s.combined = combined;
      as_mine = mine_key;
      as_remote = remote_key;
      s.own_if_mine = s.own_if_remote = truth[ci];
      s.best = key;
      s.best_ci = ci;
      s.tie_mask = bit;
      continue;
    }
    s.combined = std::max(s.combined, combined);
    track(as_mine, s.own_if_mine, mine_key, truth[ci]);
    track(as_remote, s.own_if_remote, remote_key, truth[ci]);
    if (s.best < key) {
      s.best = key;
      s.best_ci = ci;
      s.tie_mask = bit;
    } else if (key == s.best) {
      s.tie_mask |= bit;
    }
  }
  return s;
}

void NegotiationSide::rebuild_index() const {
  const std::size_t n = problem_.negotiable.size();
  if (truth_.true_value.rows() != n || disclosed_.rows() != n ||
      remote_disclosed_.rows() != n)
    throw std::logic_error(
        "NegotiationSide: position index read before every preference list "
        "arrived");
  index_stale_ = false;
  summary_.clear();
  best_key_.clear();
  order_.clear();
  summary_.reserve(n);
  best_key_.reserve(n);
  int lo = 0, hi = 0;
  for (std::size_t pos = 0; pos < n; ++pos) {
    // Settled positions stay out of the index for good.
    summary_.push_back(remaining_[pos] ? summarize(pos) : PositionSummary{});
    const PositionSummary& s = summary_.back();
    best_key_.push_back(s.open ? s.best : kClosedKey);
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
  if (index_stale_) rebuild_index();
  const obs::PhaseTimer timer(obs::Phase::kSelectProposal);
  bool found = false;
  // The running best key; before the first find it sits just above the
  // sentinel, so closed and settled positions never pass.
  Key bar = kClosedKey + 1;
  std::size_t num_tied = 0;
  const bool masks = problem_.candidates.size() <= kMaskBits;
  const Key* key = best_key_.data();
  for (std::size_t pos = 0; pos < best_key_.size(); ++pos) {
    // Below the running best, no candidate here can win or tie.
    if (key[pos] < bar) continue;
    const PositionSummary& s = summary_[pos];
    const bool raises = !found || key[pos] > bar;
    if (rng == nullptr) {
      // Ties keep the first pair in scan order: the position's own first
      // best candidate, unless an earlier position already holds the key.
      if (raises) {
        found = true;
        bar = key[pos];
        out = ProposalChoice{pos, s.best_ci};
      }
      continue;
    }
    if (!raises && masks) {
      // Ties the running best: each tied candidate, in candidate order, is
      // one more residual tie — uniform via reservoir sampling.
      for (std::uint64_t m = s.tie_mask; m != 0; m &= m - 1) {
        ++num_tied;
        if (rng->next_below(num_tied) == 0)
          out = ProposalChoice{pos,
                               static_cast<std::size_t>(std::countr_zero(m))};
      }
      continue;
    }
    // Raises the running best (or the row is wider than a mask): the exact
    // candidate loop, whose intermediate bests restart the reservoir.
    const std::span<const PrefClass> mine = disclosed_[pos];
    const std::span<const PrefClass> theirs = remote_disclosed_[pos];
    const std::span<const char> banned = banned_[pos];
    for (std::size_t ci = 0; ci < mine.size(); ++ci) {
      if (banned[ci]) continue;
      const Key k = proposal_key(mine[ci], theirs[ci], ci == default_ci_[pos]);
      if (!found || bar < k) {
        found = true;
        bar = k;
        num_tied = 1;
        out = ProposalChoice{pos, ci};
      } else if (k == bar) {
        ++num_tied;
        if (rng->next_below(num_tied) == 0) out = ProposalChoice{pos, ci};
      }
    }
  }
  return found;
}

template <typename Settled>
Projection NegotiationSide::walk_projection(std::size_t excluded,
                                            Settled settled) const {
  if (index_stale_) rebuild_index();
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
  disclosed_gain_[side_] += disclosed_[pos][ci];
  disclosed_gain_[1 - side_] += remote_disclosed_[pos][ci];
  remaining_[pos] = 0;
  if (!index_stale_) best_key_[pos] = kClosedKey;
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
  if (index_stale_) return;
  const PositionSummary now =
      remaining_[pos] ? summarize(pos) : PositionSummary{};
  PositionSummary& was = summary_[pos];
  best_key_[pos] = now.open ? now.best : kClosedKey;
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
