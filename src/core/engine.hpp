#pragma once

#include "core/side.hpp"
#include "util/rng.hpp"

namespace nexit::core {

/// The Nexit negotiation protocol (paper §4): ISPs exchange preference
/// lists and agree on an interconnection per flow, one proposal per round.
/// The engine runs both ISPs' NegotiationSide replicas in one process and
/// drives the turn loop directly; what it adds over the wire agents is only
/// what needs both sides at once or a shared RNG: coin-toss turns, random
/// tie-breaks, kFull termination, and the round trace. All decisions are
/// deterministic given the config seed.
class NegotiationEngine {
 public:
  NegotiationEngine(const NegotiationProblem& problem, PreferenceOracle& isp_a,
                    PreferenceOracle& isp_b, NegotiationConfig config);

  NegotiationOutcome run();

 private:
  /// Re-evaluates both oracles and exchanges the disclosed lists; a
  /// cheating oracle is handed the other ISP's true preferences (§5.4).
  void refresh_preferences();
  [[nodiscard]] int pick_turn();

  const NegotiationProblem& problem_;
  NegotiationConfig config_;
  NegotiationSide sides_[2];
  util::Rng rng_;
};

}  // namespace nexit::core
