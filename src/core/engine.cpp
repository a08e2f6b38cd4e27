#include "core/engine.hpp"

#include "obs/registry.hpp"

namespace nexit::core {

NegotiationEngine::NegotiationEngine(const NegotiationProblem& problem,
                                     PreferenceOracle& isp_a,
                                     PreferenceOracle& isp_b,
                                     NegotiationConfig config)
    : problem_(problem), config_(config),
      sides_{NegotiationSide(problem, isp_a, 0, config),
             NegotiationSide(problem, isp_b, 1, config)},
      rng_(config.seed) {
  sides_[0].enable_reassignment(isp_b.wants_reassignment());
  sides_[1].enable_reassignment(isp_a.wants_reassignment());
}

void NegotiationEngine::refresh_preferences() {
  for (NegotiationSide& s : sides_) s.evaluate();
  sides_[0].disclose(sides_[1].truth().classes);
  sides_[1].disclose(sides_[0].truth().classes);
  sides_[0].set_remote_disclosed(sides_[1].disclosed());
  sides_[1].set_remote_disclosed(sides_[0].disclosed());
}

int NegotiationEngine::pick_turn() {
  if (config_.turn == TurnPolicy::kCoinToss) return rng_.next_bool() ? 0 : 1;
  return sides_[0].turn_holder();
}

NegotiationOutcome NegotiationEngine::run() {
  refresh_preferences();
  std::vector<RoundTrace> trace;
  StopReason stop = StopReason::kExhausted;

  while (sides_[0].remaining_count() > 0) {
    const std::size_t round = sides_[0].round();
    const int proposer = pick_turn();

    // The ISP holding the turn stops once it perceives no additional gain
    // in continuing AND continuing would actually hurt it; a flat future is
    // harmless (Fig. 3's ISP-A proposes a zero-gain alternative). The
    // decision sits with the turn holder: mid-trade compromises already
    // accepted are honoured until one's own next turn, which is what lets
    // trades across flows complete and both ISPs end ahead.
    if (sides_[proposer].stops_early()) {
      stop = proposer == 0 ? StopReason::kEarlyStopA : StopReason::kEarlyStopB;
      break;
    }
    ProposalChoice sel{};
    util::Rng* tie_rng =
        config_.tie_break == TieBreak::kRandom ? &rng_ : nullptr;
    if (!sides_[proposer].select_proposal(tie_rng, sel)) {
      stop = StopReason::kNoProposal;
      break;
    }
    if (config_.termination == TerminationPolicy::kFull) {
      // Continue only while both cumulative gains stay non-negative.
      bool negative = false;
      for (const NegotiationSide& s : sides_)
        negative |=
            s.true_gain() + s.truth().true_value[sel.pos][sel.ci] < 0;
      if (negative) {
        stop = StopReason::kGainWouldGoNegative;
        break;
      }
    }

    RoundTrace tr;
    tr.round = round;
    tr.proposer = proposer;
    tr.flow = problem_.negotiable_flow(sel.pos).id;
    tr.interconnection = problem_.candidates[sel.ci];
    tr.pref_a = sides_[0].disclosed().flows[sel.pos].pref_of_candidate[sel.ci];
    tr.pref_b = sides_[1].disclosed().flows[sel.pos].pref_of_candidate[sel.ci];
    tr.accepted = sides_[1 - proposer].accepts(sel.pos, sel.ci);
    if (tr.accepted) {
      bool due = false;
      for (NegotiationSide& s : sides_) due = s.apply_accept(sel.pos, sel.ci);
      if (due) refresh_preferences();
      tr.reassigned_after = due;
    } else {
      for (NegotiationSide& s : sides_) s.ban(sel.pos, sel.ci);
    }
    if (config_.record_trace) trace.push_back(tr);
  }

  if (config_.settlement_rollback) {
    // §6 settlement: sides alternate rolling back their losing concessions;
    // each rollback may trigger the other's. The wire agents run the same
    // exchange as ROLLBACK messages.
    int who = sides_[0].settlement_opener(stop);
    bool previous_empty = false;
    for (;;) {
      const std::vector<std::size_t> rolled = sides_[who].rollback_turn();
      for (std::size_t pos : rolled) sides_[1 - who].apply_peer_rollback(pos);
      if (rolled.empty() && previous_empty) break;
      previous_empty = rolled.empty();
      who = 1 - who;
    }
  }

  NegotiationOutcome outcome = sides_[0].outcome(stop);
  const NegotiationOutcome b = sides_[1].outcome(stop);
  outcome.true_gain_b = b.true_gain_b;
  outcome.evaluate_calls_full += b.evaluate_calls_full;
  outcome.evaluate_calls_incremental += b.evaluate_calls_incremental;
  outcome.evaluate_rows_computed += b.evaluate_rows_computed;
  outcome.evaluate_rows_full_equivalent += b.evaluate_rows_full_equivalent;
  outcome.trace = std::move(trace);

  // Registry bumps happen on the worker thread that ran the negotiation;
  // uint64 shard sums are commutative, so the merged "obs" section is the
  // same for every --threads=N.
  obs::Registry& reg = obs::Registry::global();
  reg.add("engine.negotiations", 1);
  reg.add("engine.rounds", outcome.rounds);
  reg.add("engine.flows_moved", outcome.flows_moved);
  reg.add("engine.evaluate_calls_full", outcome.evaluate_calls_full);
  reg.add("engine.evaluate_calls_incremental",
          outcome.evaluate_calls_incremental);
  reg.add("engine.evaluate_rows_computed", outcome.evaluate_rows_computed);
  reg.add("engine.evaluate_rows_full_equivalent",
          outcome.evaluate_rows_full_equivalent);
  reg.observe("engine.rounds_per_negotiation", outcome.rounds);

  return outcome;
}

}  // namespace nexit::core
