#pragma once

#include <cstddef>
#include <vector>

#include "core/preference.hpp"
#include "util/rng.hpp"

namespace nexit::core {

enum class ProposalPolicy;  // defined in side.hpp

/// View of the negotiation state from ONE side's perspective. The state
/// itself lives in core::NegotiationSide (side.hpp), which builds this view
/// for every proposal, stop and acceptance decision; the in-process engine
/// and the wire agents both decide only through their sides.
struct StrategyView {
  /// Aligned with the negotiable flow list.
  const std::vector<char>* remaining = nullptr;
  /// remaining-size x candidate-count matrix of vetoed alternatives.
  const std::vector<std::vector<char>>* banned = nullptr;
  /// Default candidate index per negotiable flow (class 0 by definition).
  const std::vector<std::size_t>* default_ci = nullptr;
  const PreferenceList* my_disclosed = nullptr;
  const PreferenceList* remote_disclosed = nullptr;
  /// My exact private valuation (metric units, full precision) — projections
  /// and protective decisions never depend on my own quantisation.
  const std::vector<std::vector<double>>* my_true_value = nullptr;
};

struct ProposalChoice {
  std::size_t pos = 0;  // negotiable flow position
  std::size_t ci = 0;   // candidate index
};

/// Picks the proposal for the side owning the view. Ranking: the policy's
/// primary/secondary keys, then status-quo bias (the flow's default
/// alternative wins residual ties — ISPs do not reroute without perceived
/// benefit, which also keeps coarse class-0 ties from drifting traffic).
/// With `rng == nullptr` any leftover tie breaks deterministically toward
/// the lowest (pos, ci); with an rng it breaks uniformly at random (the
/// paper's worked example). Returns false if nothing is proposable.
bool select_proposal(const StrategyView& view, ProposalPolicy policy,
                     util::Rng* rng, ProposalChoice& out);

struct Projection {
  double peak = 0.0;  // best reachable cumulative own-gain increase
  double end = 0.0;   // own-gain increase if everything remaining is settled
};

/// Greedy projection of the remaining negotiation as perceived by the view's
/// owner (see TerminationPolicy::kEarly): flows settle in decreasing
/// combined-sum order with proposers alternating, so tie resolution
/// alternates between my tie-break and the remote's (pessimistic on residual
/// ties). With `floor_remote_at_zero`, losses on remote-proposed flows are
/// floored at the default's value (0): under protective acceptance such
/// proposals are either vetoed or paid for out of earlier gains, so they
/// cannot push the owner below its default — used by the stop decision so an
/// ISP does not abort a negotiation the veto already makes safe.
Projection project_future(const StrategyView& view, bool my_turn_first = true,
                          bool floor_remote_at_zero = false);

}  // namespace nexit::core
