#include "core/engine.hpp"

#include "obs/registry.hpp"

namespace nexit::core {

namespace {

/// Validates before the sides are built: their constructors index the
/// problem.
const NegotiationProblem& validated(const NegotiationProblem& problem) {
  problem.validate();
  return problem;
}

}  // namespace

NegotiationEngine::NegotiationEngine(const NegotiationProblem& problem,
                                     PreferenceOracle& isp_a,
                                     PreferenceOracle& isp_b,
                                     NegotiationConfig config)
    : problem_(validated(problem)), config_(config),
      sides_{NegotiationSide(problem, isp_a, 0, config),
             NegotiationSide(problem, isp_b, 1, config)},
      rng_(config.seed) {
  sides_[0].enable_reassignment(isp_b.wants_reassignment());
  sides_[1].enable_reassignment(isp_a.wants_reassignment());
}

void NegotiationEngine::exchange_disclosures() {
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
  for (NegotiationSide& s : sides_) s.evaluate();
  exchange_disclosures();
  std::vector<RoundTrace> trace;
  util::Rng* tie_rng = config_.tie_break == TieBreak::kRandom ? &rng_ : nullptr;
  StopReason stop{};

  for (;;) {
    const std::size_t round = sides_[0].round();
    const int proposer = pick_turn();
    ProposalChoice sel{};
    if (const auto reason = sides_[proposer].take_turn(tie_rng, sel)) {
      stop = *reason;
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
    tr.pref_a = sides_[0].disclosed()[sel.pos][sel.ci];
    tr.pref_b = sides_[1].disclosed()[sel.pos][sel.ci];
    tr.accepted = sides_[1 - proposer].accepts(sel.pos, sel.ci);
    for (NegotiationSide& s : sides_)
      tr.reassigned_after = s.end_round(sel.pos, sel.ci, tr.accepted);
    if (tr.reassigned_after) {
      for (NegotiationSide& s : sides_) s.reevaluate_at_quantum();
      exchange_disclosures();
    }
    if (config_.record_trace) trace.push_back(tr);
  }

  if (config_.settlement_rollback) {
    // §6 settlement: sides alternate rolling back their losing concessions;
    // each rollback may trigger the other's. The wire agents run the same
    // exchange as ROLLBACK messages.
    for (int who = sides_[0].settlement_opener(stop);; who = 1 - who) {
      const auto rolled = sides_[who].settlement_turn();
      if (!rolled) break;
      sides_[1 - who].apply_peer_rollback(*rolled);
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
