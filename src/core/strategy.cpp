#include "core/strategy.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/side.hpp"
#include "obs/registry.hpp"

namespace nexit::core {

namespace {

void check_view(const StrategyView& v) {
  if (v.remaining == nullptr || v.banned == nullptr || v.default_ci == nullptr ||
      v.my_disclosed == nullptr || v.remote_disclosed == nullptr ||
      v.my_true_value == nullptr)
    throw std::invalid_argument("StrategyView: null field");
}

}  // namespace

bool select_proposal(const StrategyView& view, ProposalPolicy policy,
                     util::Rng* rng, ProposalChoice& out) {
  const obs::PhaseTimer timer(obs::Phase::kSelectProposal);
  check_view(view);
  bool found = false;
  int best_primary = 0, best_secondary = 0;
  bool best_is_default = false;
  std::size_t num_tied = 0;

  const std::size_t n = view.remaining->size();
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (!(*view.remaining)[pos]) continue;
    const auto& mine = view.my_disclosed->flows[pos].pref_of_candidate;
    const auto& theirs = view.remote_disclosed->flows[pos].pref_of_candidate;
    for (std::size_t ci = 0; ci < mine.size(); ++ci) {
      if ((*view.banned)[pos][ci]) continue;
      const int own = mine[ci];
      const int rem = theirs[ci];
      int primary = 0, secondary = 0;
      switch (policy) {
        case ProposalPolicy::kMaxCombinedGain:
          primary = own + rem;
          secondary = own;
          break;
        case ProposalPolicy::kBestLocalMinImpact:
          primary = own;
          secondary = rem;
          break;
      }
      const bool is_default = ci == (*view.default_ci)[pos];
      const bool better =
          !found || primary > best_primary ||
          (primary == best_primary &&
           (secondary > best_secondary ||
            (secondary == best_secondary && is_default && !best_is_default)));
      if (better) {
        found = true;
        best_primary = primary;
        best_secondary = secondary;
        best_is_default = is_default;
        num_tied = 1;
        out = ProposalChoice{pos, ci};
      } else if (primary == best_primary && secondary == best_secondary &&
                 is_default == best_is_default) {
        // Residual tie: deterministic (first wins) or uniform via reservoir
        // sampling when an rng is supplied.
        ++num_tied;
        if (rng != nullptr && rng->next_below(num_tied) == 0)
          out = ProposalChoice{pos, ci};
      }
    }
  }
  return found;
}

namespace {

/// Own true value of the alternative that would be selected for one flow if
/// `selector_is_me` proposes it: the selector maximises the combined sum,
/// breaks ties with its own disclosed preference, then prefers the default;
/// residual ties resolve pessimistically for the view's owner.
double projected_own_value(const StrategyView& view, std::size_t pos,
                           bool selector_is_me, bool& have) {
  const auto& mine = view.my_disclosed->flows[pos].pref_of_candidate;
  const auto& theirs = view.remote_disclosed->flows[pos].pref_of_candidate;
  const auto& my_truth = (*view.my_true_value)[pos];

  have = false;
  int best_combined = 0, best_secondary = 0;
  double own = 0.0;
  bool best_is_default = false;
  for (std::size_t ci = 0; ci < mine.size(); ++ci) {
    if ((*view.banned)[pos][ci]) continue;
    const int combined = mine[ci] + theirs[ci];
    const int secondary = selector_is_me ? mine[ci] : theirs[ci];
    const bool is_default = ci == (*view.default_ci)[pos];
    const bool better =
        !have || combined > best_combined ||
        (combined == best_combined &&
         (secondary > best_secondary ||
          (secondary == best_secondary && is_default && !best_is_default)));
    if (better) {
      have = true;
      best_combined = combined;
      best_secondary = secondary;
      best_is_default = is_default;
      own = my_truth[ci];
    } else if (combined == best_combined && secondary == best_secondary &&
               is_default == best_is_default) {
      own = std::min(own, my_truth[ci]);  // pessimism on residual ties
    }
  }
  return own;
}

int max_combined(const StrategyView& view, std::size_t pos, bool& have) {
  const auto& mine = view.my_disclosed->flows[pos].pref_of_candidate;
  const auto& theirs = view.remote_disclosed->flows[pos].pref_of_candidate;
  have = false;
  int best = 0;
  for (std::size_t ci = 0; ci < mine.size(); ++ci) {
    if ((*view.banned)[pos][ci]) continue;
    const int combined = mine[ci] + theirs[ci];
    if (!have || combined > best) {
      have = true;
      best = combined;
    }
  }
  return best;
}

}  // namespace

Projection project_future(const StrategyView& view, bool my_turn_first,
                          bool floor_remote_at_zero) {
  check_view(view);
  // Model of the remaining negotiation: flows settle in decreasing order of
  // their best combined sum (the agreed selection rule), and proposers
  // alternate, so tie resolution alternates between my tie-break and the
  // remote's. This is what lets an ISP trust its own upcoming turns while
  // staying realistic about the counterparty's (Fig. 4b no-loss, §5.4
  // premature termination against cheats).
  struct Item {
    int combined;
    double own_if_mine;
    double own_if_remote;
  };
  std::vector<Item> items;
  const std::size_t n = view.remaining->size();
  items.reserve(n);
  for (std::size_t pos = 0; pos < n; ++pos) {
    if (!(*view.remaining)[pos]) continue;
    bool have = false;
    const int combined = max_combined(view, pos, have);
    if (!have) continue;
    Item item;
    item.combined = combined;
    item.own_if_mine = projected_own_value(view, pos, /*selector_is_me=*/true, have);
    item.own_if_remote =
        projected_own_value(view, pos, /*selector_is_me=*/false, have);
    items.push_back(item);
  }
  // Stable: equal-combined flows keep list order, so the projection is
  // deterministic on both sides of the wire.
  std::stable_sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    return a.combined > b.combined;
  });
  Projection p;
  double run = 0.0;
  bool mine = my_turn_first;
  for (const Item& it : items) {
    double v = mine ? it.own_if_mine : it.own_if_remote;
    if (floor_remote_at_zero && !mine) v = std::max(v, 0.0);
    // nexit-lint: allow(float-accumulate): running prefix of the alternating
    // projection — inherently sequential, order IS the semantics
    run += v;
    p.peak = std::max(p.peak, run);
    mine = !mine;
  }
  p.end = run;
  return p;
}

}  // namespace nexit::core
