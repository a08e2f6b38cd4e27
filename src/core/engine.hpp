#pragma once

#include "core/side.hpp"
#include "util/rng.hpp"

namespace nexit::core {

/// The Nexit negotiation protocol (paper §4): ISPs exchange preference
/// lists and agree on an interconnection per flow, one proposal per round.
/// The engine runs both ISPs' NegotiationSide replicas in one process and
/// drives them through the side's §4/§6 rules (take_turn, end_round,
/// reevaluate_at_quantum, settlement_turn), as a wire agent does. It adds
/// only what needs both sides at once or a shared RNG: coin-toss turns,
/// random tie-breaks, kFull termination, the round trace, and re-disclosing
/// both sides at a quantum, so a §5.4 cheater sees the peer's fresh truth.
/// All decisions are deterministic given the config seed.
class NegotiationEngine {
 public:
  NegotiationEngine(const NegotiationProblem& problem, PreferenceOracle& isp_a,
                    PreferenceOracle& isp_b, NegotiationConfig config);

  NegotiationOutcome run();

 private:
  /// Discloses both sides and exchanges the lists; a cheating oracle is
  /// handed the other ISP's true preferences (§5.4).
  void exchange_disclosures();
  [[nodiscard]] int pick_turn();

  const NegotiationProblem& problem_;
  NegotiationConfig config_;
  NegotiationSide sides_[2];
  util::Rng rng_;
};

}  // namespace nexit::core
