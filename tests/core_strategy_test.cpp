#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>

#include "core/cheating.hpp"
#include "core/side.hpp"
#include "test_topologies.hpp"

namespace nexit::core {
namespace {

using testing::make_flow;
using testing::make_isp;
using traffic::Direction;

/// A pair with `k` interconnections: both ISPs are chains over cities
/// 0..k-1 on the equator.
topology::IspPair line_pair(std::size_t k) {
  std::vector<testing::PopSpec> pops_a, pops_b;
  std::vector<testing::EdgeSpec> edges;
  for (std::size_t i = 0; i < k; ++i) {
    pops_a.push_back({i, 0.0, 10.0 * static_cast<double>(i)});
    pops_b.push_back({i, 0.1, 10.0 * static_cast<double>(i)});
    if (i > 0)
      edges.push_back({static_cast<int>(i - 1), static_cast<int>(i), 100, 100});
  }
  auto pair = topology::make_pair_if_peers(make_isp(1, pops_a, edges),
                                           make_isp(2, pops_b, edges), k);
  if (!pair) throw std::logic_error("line_pair: expected k interconnections");
  return *std::move(pair);
}

/// An oracle that returns whatever evaluation the test scripted last, and
/// discloses it honestly.
class ScriptedOracle : public PreferenceOracle {
 public:
  Evaluation next;
  Evaluation evaluate(const OracleContext&) override { return next; }
};

template <typename T>
Matrix<T> matrix_of(const std::vector<std::vector<T>>& rows) {
  Matrix<T> m(rows.size(), rows.empty() ? 0 : rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::copy(rows[i].begin(), rows[i].end(), m[i].begin());
  return m;
}

PreferenceList list_of(const std::vector<std::vector<PrefClass>>& rows) {
  return matrix_of(rows);
}

/// One side over `defaults.size()` flows x `candidates` interconnections,
/// with scripted own classes, own true values and remote classes.
struct SideFixture {
  topology::IspPair pair;
  routing::PairRouting routing;
  std::vector<traffic::Flow> flows;
  NegotiationProblem problem;
  ScriptedOracle oracle;
  std::unique_ptr<NegotiationSide> side;

  SideFixture(std::size_t candidates, const std::vector<std::size_t>& defaults,
              const NegotiationConfig& config)
      : pair(line_pair(candidates)), routing(pair) {
    for (std::size_t i = 0; i < defaults.size(); ++i)
      flows.push_back(make_flow(static_cast<std::int32_t>(i), Direction::kAtoB,
                                0, 0, 1.0));
    problem.routing = &routing;
    problem.flows = &flows;
    for (std::size_t i = 0; i < defaults.size(); ++i)
      problem.negotiable.push_back(i);
    for (std::size_t c = 0; c < candidates; ++c) problem.candidates.push_back(c);
    problem.default_assignment.ix_of_flow = defaults;
    side = std::make_unique<NegotiationSide>(problem, oracle, 0, config);
  }

  /// Evaluates, discloses and takes the remote list: the three calls that
  /// mark the side's index stale.
  void refresh(const std::vector<std::vector<PrefClass>>& mine,
               const std::vector<std::vector<double>>& my_true,
               const std::vector<std::vector<PrefClass>>& theirs) {
    oracle.next.classes = list_of(mine);
    oracle.next.true_value = matrix_of(my_true);
    side->evaluate();
    side->disclose(list_of(theirs));
    side->set_remote_disclosed(list_of(theirs));
  }
};

std::vector<std::vector<double>> as_values(
    const std::vector<std::vector<PrefClass>>& rows) {
  std::vector<std::vector<double>> out;
  for (const auto& row : rows) out.emplace_back(row.begin(), row.end());
  return out;
}

/// Builds a side whose true values equal its own classes; every flow
/// defaults to candidate `default_candidate`.
std::unique_ptr<SideFixture> make_side(
    const std::vector<std::vector<PrefClass>>& mine,
    const std::vector<std::vector<PrefClass>>& theirs,
    std::size_t default_candidate = 0,
    ProposalPolicy policy = ProposalPolicy::kMaxCombinedGain,
    std::optional<std::vector<std::vector<double>>> my_true = std::nullopt) {
  NegotiationConfig config;
  config.proposal = policy;
  auto fx = std::make_unique<SideFixture>(
      mine.front().size(),
      std::vector<std::size_t>(mine.size(), default_candidate), config);
  fx->refresh(mine, my_true ? *my_true : as_values(mine), theirs);
  return fx;
}

// --- selection ----------------------------------------------------------

TEST(SelectProposal, MaxCombinedWins) {
  // Flow 0: candidate 1 has combined 5; flow 1: candidate 1 has combined 3.
  auto fx = make_side({{0, 3}, {0, 2}}, {{0, 2}, {0, 1}});
  ProposalChoice out{};
  ASSERT_TRUE(fx->side->select_proposal(nullptr, out));
  EXPECT_EQ(out.pos, 0u);
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, OwnPreferenceBreaksCombinedTies) {
  // Both candidates of flow 0 have combined 4; proposer prefers candidate 1
  // (own 3 beats own 1).
  auto fx = make_side({{1, 3, 0}, {0, 0, 0}}, {{3, 1, 0}, {0, 0, 0}}, 2);
  ProposalChoice out{};
  ASSERT_TRUE(fx->side->select_proposal(nullptr, out));
  EXPECT_EQ(out.pos, 0u);
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, DefaultWinsResidualTies) {
  // All-zero preferences: candidate 1 is the default and must win over the
  // equally-good candidate 0 (status-quo bias).
  auto fx = make_side({{0, 0}}, {{0, 0}}, /*default_candidate=*/1);
  ProposalChoice out{};
  ASSERT_TRUE(fx->side->select_proposal(nullptr, out));
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, BestLocalMinImpactPolicy) {
  // kBestLocalMinImpact: primary = own (candidate 0: 4), even though the
  // combined sum favours candidate 1 (2 + 9).
  auto fx = make_side({{4, 2}}, {{0, 9}}, 0, ProposalPolicy::kBestLocalMinImpact);
  ProposalChoice out{};
  ASSERT_TRUE(fx->side->select_proposal(nullptr, out));
  EXPECT_EQ(out.ci, 0u);
}

TEST(SelectProposal, BannedAlternativesSkipped) {
  auto fx = make_side({{5, 1}}, {{5, 1}}, 1);
  fx->side->ban(0, 0);  // the juicy candidate is vetoed
  ProposalChoice out{};
  ASSERT_TRUE(fx->side->select_proposal(nullptr, out));
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, NothingRemainingReturnsFalse) {
  auto fx = make_side({{1, 2}}, {{1, 2}});
  fx->side->apply_accept(0, 1);
  ProposalChoice out{};
  EXPECT_FALSE(fx->side->select_proposal(nullptr, out));
}

TEST(SelectProposal, NothingProposableUntilAllListsArrive) {
  NegotiationConfig config;
  SideFixture fx(2, {0}, config);
  fx.oracle.next.classes = list_of({{0, 3}});
  fx.oracle.next.true_value = {{0.0, 3.0}};
  fx.side->evaluate();
  fx.side->disclose(list_of({{0, 0}}));
  ProposalChoice out{};
  // No remote list yet: reading the index fails loudly.
  EXPECT_THROW((void)fx.side->select_proposal(nullptr, out), std::logic_error);
  EXPECT_THROW((void)fx.side->stops_early(), std::logic_error);
  fx.side->set_remote_disclosed(list_of({{0, 1}}));
  ASSERT_TRUE(fx.side->select_proposal(nullptr, out));
  EXPECT_EQ(out.ci, 1u);
}

TEST(SelectProposal, RandomTieBreakIsUniformish) {
  // Two identical flows; with an rng both should be picked sometimes.
  auto fx = make_side({{2, 0}, {2, 0}}, {{1, 0}, {1, 0}}, 1);
  util::Rng rng(33);
  int first = 0;
  for (int trial = 0; trial < 200; ++trial) {
    ProposalChoice out{};
    ASSERT_TRUE(fx->side->select_proposal(&rng, out));
    first += out.pos == 0;
  }
  EXPECT_GT(first, 50);
  EXPECT_LT(first, 150);
}

// --- projection ---------------------------------------------------------

TEST(ProjectFuture, PeakAndEndOverGreedyOrder) {
  // Flow 0 (combined 6): mine +4. Flow 1 (combined 2): mine -1.
  // My turn first: trajectory +4, +3 -> peak 4, end 3.
  auto fx = make_side({{0, 4}, {0, -1}}, {{0, 2}, {0, 3}});
  const Projection p = fx->side->project_future();
  EXPECT_DOUBLE_EQ(p.peak, 4.0);
  EXPECT_DOUBLE_EQ(p.end, 3.0);
}

TEST(ProjectFuture, RemoteTieBreakIsPessimistic) {
  // Flow 0 (combined 6) settles first, on my turn: +3. Flow 1 settles on
  // the remote's turn. Its candidates all tie on combined 0; I would keep
  // the default (0), the remote prefers candidates 0 and 1 (its class 2),
  // and between those two equal-class alternatives I assume the worse true
  // value (-1.5, not -0.5).
  auto fx = make_side({{3, 0, 0}, {-2, -2, 0}}, {{3, 0, 0}, {2, 2, 0}}, 2,
                      ProposalPolicy::kMaxCombinedGain,
                      std::vector<std::vector<double>>{{3.0, 0.0, 0.0},
                                                       {-0.5, -1.5, 0.0}});
  const Projection p = fx->side->project_future();
  EXPECT_DOUBLE_EQ(p.peak, 3.0);
  EXPECT_DOUBLE_EQ(p.end, 1.5);
}

TEST(ProjectFuture, RemoteTurnLossesCountInFull) {
  // Flow 0 (combined 2) is worth nothing to me on my turn; flow 1 (combined
  // 0) goes to the remote, which picks its favourite at my cost -2. The
  // loss is not floored at the default, so the stop test fires.
  NegotiationConfig config;
  config.termination = TerminationPolicy::kEarly;
  SideFixture fx(2, {1, 1}, config);
  fx.refresh({{0, 0}, {-2, 0}}, {{0.0, 0.0}, {-2.0, 0.0}}, {{2, 0}, {2, 0}});
  const Projection p = fx.side->project_future();
  EXPECT_DOUBLE_EQ(p.peak, 0.0);
  EXPECT_DOUBLE_EQ(p.end, -2.0);
  EXPECT_TRUE(fx.side->stops_early());
}

TEST(ProjectFuture, AlternationAssignsItemsByParity) {
  // Three flows whose proposer decides the alternative: on combined ties I
  // pick the candidate I rank higher, the remote the one it ranks higher.
  //   pos 0: combined 4, own 1 if mine, -1 if the remote's
  //   pos 1: combined 8, own 5 if mine,  3 if the remote's
  //   pos 2: combined 6, own 1 if mine, -2 if the remote's
  // Settling order pos 1, 2, 0 with me first: +5, -2, +1 -> peak 5, end 4.
  // (Remote first would give 3, 1, -1; all mine 5, 1, 1.)
  auto fx = make_side({{1, -1, 0}, {5, 3, 0}, {1, -2, 0}},
                      {{3, 5, 0}, {3, 5, 0}, {5, 8, 0}}, 2);
  const Projection p = fx->side->project_future();
  EXPECT_DOUBLE_EQ(p.peak, 5.0);
  EXPECT_DOUBLE_EQ(p.end, 4.0);
  // Leaving out pos 1 shifts the parity: pos 2 mine (+1), pos 0 remote (-1).
  const Projection rest = fx->side->project_future(1);
  EXPECT_DOUBLE_EQ(rest.peak, 1.0);
  EXPECT_DOUBLE_EQ(rest.end, 0.0);
}

TEST(ProjectFuture, BannedAndSettledFlowsExcluded) {
  auto fx = make_side({{0, 9}, {0, 9}}, {{0, 0}, {0, 0}});
  fx->side->apply_accept(0, 0);
  fx->side->ban(1, 1);  // only flow 1's default remains
  const Projection p = fx->side->project_future();
  EXPECT_DOUBLE_EQ(p.peak, 0.0);
  EXPECT_DOUBLE_EQ(p.end, 0.0);
}

// --- the index against a scan of every pair -----------------------------
//
// The reference below is the plain O(P·C) algorithm: selection scans every
// open (pos, ci), the projection reads each position's candidates once for
// the best combined class and once per proposer, then stable-sorts. The
// side's index must reproduce it bit for bit, rng draws included.

struct Reference {
  const NegotiationSide* side = nullptr;
  const NegotiationProblem* problem = nullptr;
  ProposalPolicy policy{};
  std::vector<char> remaining;
  std::vector<std::vector<char>> banned;

  [[nodiscard]] std::span<const PrefClass> mine(std::size_t pos) const {
    return side->disclosed()[pos];
  }
  [[nodiscard]] std::span<const PrefClass> theirs(std::size_t pos) const {
    return side->remote_disclosed()[pos];
  }

  bool select(util::Rng* rng, ProposalChoice& out) const {
    bool found = false;
    int best_primary = 0, best_secondary = 0;
    bool best_is_default = false;
    std::size_t num_tied = 0;
    for (std::size_t pos = 0; pos < remaining.size(); ++pos) {
      if (!remaining[pos]) continue;
      for (std::size_t ci = 0; ci < mine(pos).size(); ++ci) {
        if (banned[pos][ci]) continue;
        const int own = mine(pos)[ci], rem = theirs(pos)[ci];
        const int primary =
            policy == ProposalPolicy::kMaxCombinedGain ? own + rem : own;
        const int secondary =
            policy == ProposalPolicy::kMaxCombinedGain ? own : rem;
        const bool is_default = ci == problem->default_candidate(pos);
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
          ++num_tied;
          if (rng != nullptr && rng->next_below(num_tied) == 0)
            out = ProposalChoice{pos, ci};
        }
      }
    }
    return found;
  }

  [[nodiscard]] bool max_combined(std::size_t pos, int& best) const {
    bool have = false;
    for (std::size_t ci = 0; ci < mine(pos).size(); ++ci) {
      if (banned[pos][ci]) continue;
      const int combined = mine(pos)[ci] + theirs(pos)[ci];
      if (!have || combined > best) best = combined;
      have = true;
    }
    return have;
  }

  [[nodiscard]] double own_value(std::size_t pos, bool selector_is_me) const {
    const std::span<const double> truth = side->truth().true_value[pos];
    bool have = false;
    int best_combined = 0, best_secondary = 0;
    bool best_is_default = false;
    double own = 0.0;
    for (std::size_t ci = 0; ci < mine(pos).size(); ++ci) {
      if (banned[pos][ci]) continue;
      const int combined = mine(pos)[ci] + theirs(pos)[ci];
      const int secondary = selector_is_me ? mine(pos)[ci] : theirs(pos)[ci];
      const bool is_default = ci == problem->default_candidate(pos);
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
        own = truth[ci];
      } else if (combined == best_combined && secondary == best_secondary &&
                 is_default == best_is_default) {
        own = std::min(own, truth[ci]);
      }
    }
    return own;
  }

  [[nodiscard]] Projection project(std::size_t excluded) const {
    struct Item {
      int combined;
      double own_if_mine, own_if_remote;
    };
    std::vector<Item> items;
    for (std::size_t pos = 0; pos < remaining.size(); ++pos) {
      int combined = 0;
      if (!remaining[pos] || pos == excluded || !max_combined(pos, combined))
        continue;
      items.push_back({combined, own_value(pos, true), own_value(pos, false)});
    }
    std::stable_sort(items.begin(), items.end(),
                     [](const Item& a, const Item& b) {
                       return a.combined > b.combined;
                     });
    Projection p;
    double run = 0.0;
    bool my_turn = true;
    for (const Item& it : items) {
      run += my_turn ? it.own_if_mine : it.own_if_remote;
      p.peak = std::max(p.peak, run);
      my_turn = !my_turn;
    }
    p.end = run;
    return p;
  }
};

bool same_bits(const Projection& a, const Projection& b) {
  return std::memcmp(&a.peak, &b.peak, sizeof(double)) == 0 &&
         std::memcmp(&a.end, &b.end, sizeof(double)) == 0;
}

/// Which classes random_lists() draws.
enum class Classes {
  kNarrow,   // [-2, 2]: ties everywhere
  kWide,     // a set spanning millions
  kAtBound,  // +-kMaxPrefRange and its neighbours: the extreme keys
};

/// Random classes, and true values drawn independently of the classes from
/// a small set, so tied alternatives often differ in true value and the
/// pessimistic minimum matters.
void random_lists(util::Rng& rng, Classes classes, std::size_t positions,
                  std::size_t candidates,
                  std::vector<std::vector<PrefClass>>& mine,
                  std::vector<std::vector<double>>& my_true,
                  std::vector<std::vector<PrefClass>>& theirs) {
  static constexpr double kValues[] = {-1.5, -0.5, 0.0, 0.5, 1.0, 2.0};
  static constexpr PrefClass kWide[] = {-1000000, -65537, -1, 0,
                                        1,        65536,  1000000};
  static constexpr PrefClass kAtBound[] = {
      -kMaxPrefRange, -kMaxPrefRange + 1, 0, kMaxPrefRange - 1, kMaxPrefRange};
  const auto draw = [&] {
    switch (classes) {
      case Classes::kWide: return kWide[rng.next_below(std::size(kWide))];
      case Classes::kAtBound:
        return kAtBound[rng.next_below(std::size(kAtBound))];
      case Classes::kNarrow: break;
    }
    return static_cast<PrefClass>(rng.next_int(-2, 2));
  };
  mine.assign(positions, std::vector<PrefClass>(candidates));
  theirs.assign(positions, std::vector<PrefClass>(candidates));
  my_true.assign(positions, std::vector<double>(candidates));
  for (std::size_t pos = 0; pos < positions; ++pos) {
    for (std::size_t ci = 0; ci < candidates; ++ci) {
      mine[pos][ci] = draw();
      theirs[pos][ci] = draw();
      my_true[pos][ci] = kValues[rng.next_below(std::size(kValues))];
    }
  }
}

void run_differential(ProposalPolicy policy, bool with_rng,
                      Classes classes = Classes::kNarrow) {
  util::Rng gen(with_rng ? 7 : 8);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t positions = 1 + gen.next_below(14);
    const std::size_t candidates = 1 + gen.next_below(5);
    std::vector<std::size_t> defaults(positions);
    for (auto& d : defaults) d = gen.next_below(candidates);
    NegotiationConfig config;
    config.proposal = policy;
    config.acceptance = AcceptancePolicy::kProtective;
    SideFixture fx(candidates, defaults, config);
    std::vector<std::vector<PrefClass>> mine, theirs;
    std::vector<std::vector<double>> my_true;
    random_lists(gen, classes, positions, candidates, mine, my_true, theirs);
    fx.refresh(mine, my_true, theirs);

    Reference ref{fx.side.get(), &fx.problem, policy,
                  std::vector<char>(positions, 1),
                  std::vector<std::vector<char>>(
                      positions, std::vector<char>(candidates, 0))};
    util::Rng side_rng(static_cast<std::uint64_t>(trial) + 100);
    util::Rng ref_rng = side_rng;

    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                   std::to_string(step));
      // Selection: same choice, same draws.
      ProposalChoice got{}, want{};
      const bool got_found =
          fx.side->select_proposal(with_rng ? &side_rng : nullptr, got);
      const bool want_found = ref.select(with_rng ? &ref_rng : nullptr, want);
      ASSERT_EQ(got_found, want_found);
      if (want_found) {
        ASSERT_EQ(got.pos, want.pos);
        ASSERT_EQ(got.ci, want.ci);
      }
      util::Rng side_next = side_rng, ref_next = ref_rng;
      ASSERT_EQ(side_next.next_u64(), ref_next.next_u64());

      // Projection, whole and without each open position; the stop test
      // and acceptance, which may cut the walk short.
      const Projection whole = ref.project(NegotiationSide::kNoPosition);
      ASSERT_TRUE(same_bits(fx.side->project_future(), whole));
      ASSERT_EQ(fx.side->stops_early(), whole.peak <= 0 && whole.end < 0);
      for (std::size_t pos = 0; pos < positions; ++pos) {
        if (!ref.remaining[pos]) continue;
        ASSERT_TRUE(same_bits(fx.side->project_future(pos), ref.project(pos)));
      }
      if (want_found) {
        const double value = fx.side->truth().true_value[want.pos][want.ci];
        const double gain = fx.side->true_gain();
        const bool ref_accepts =
            gain + value >= 0 || gain + value + ref.project(want.pos).peak >= 0;
        ASSERT_EQ(fx.side->accepts(want.pos, want.ci), ref_accepts);
      }

      // Mutate: ban, settle, or refresh one or all of the three lists.
      const std::uint64_t action = gen.next_below(10);
      if (want_found && action < 4) {
        fx.side->ban(want.pos, want.ci);
        ref.banned[want.pos][want.ci] = 1;
      } else if (want_found && action < 7) {
        fx.side->apply_accept(want.pos, want.ci);
        ref.remaining[want.pos] = 0;
      } else {
        random_lists(gen, classes, positions, candidates, mine, my_true, theirs);
        switch (gen.next_below(4)) {
          case 0:
            fx.refresh(mine, my_true, theirs);
            break;
          case 1:
            fx.oracle.next.classes = list_of(mine);
            fx.oracle.next.true_value = matrix_of(my_true);
            fx.side->evaluate();
            break;
          case 2:
            fx.side->disclose(list_of(theirs));
            break;
          default:
            fx.side->set_remote_disclosed(list_of(theirs));
            break;
        }
      }
    }
  }
}

TEST(PositionIndex, MatchesPairScanMaxCombinedWithRng) {
  run_differential(ProposalPolicy::kMaxCombinedGain, true);
}

TEST(PositionIndex, MatchesPairScanMaxCombinedDeterministic) {
  run_differential(ProposalPolicy::kMaxCombinedGain, false);
}

TEST(PositionIndex, MatchesPairScanBestLocalWithRng) {
  run_differential(ProposalPolicy::kBestLocalMinImpact, true);
}

TEST(PositionIndex, MatchesPairScanBestLocalDeterministic) {
  run_differential(ProposalPolicy::kBestLocalMinImpact, false);
}

TEST(PositionIndex, MatchesPairScanOnWideClassSpans) {
  // Combined classes millions apart: the order takes two radix digits.
  run_differential(ProposalPolicy::kMaxCombinedGain, true, Classes::kWide);
}

TEST(PositionIndex, MatchesPairScanAtThePrefRangeBound) {
  // Classes at +-P for the largest P the spec accepts: combined keys reach
  // +-2P, the lowest still clear of the closed-position sentinel, under
  // both policies' primary keys.
  run_differential(ProposalPolicy::kMaxCombinedGain, true, Classes::kAtBound);
  run_differential(ProposalPolicy::kBestLocalMinImpact, false,
                   Classes::kAtBound);
}

// A refresh between rounds, fed in the two orders the drivers use: the
// engine's (evaluate, disclose, set_remote_disclosed, then the reads) and a
// wire agent's facing a stateless remote (evaluate and disclose, then the
// reads; the remote's list stays the one of the handshake). Some vetoes and
// accepts land on the stale index before any read, as a responder's do when
// its acceptance never walks the projection. Both replicas must make the
// same selections with the same rng draws, the same stop votes and the same
// acceptances, and match the reference scan.
void run_refresh_orders(ProposalPolicy policy, bool with_rng) {
  util::Rng gen(with_rng ? 41 : 42);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t positions = 1 + gen.next_below(14);
    const std::size_t candidates = 1 + gen.next_below(5);
    std::vector<std::size_t> defaults(positions);
    for (auto& d : defaults) d = gen.next_below(candidates);
    NegotiationConfig config;
    config.proposal = policy;
    config.acceptance = AcceptancePolicy::kProtective;
    SideFixture engine(candidates, defaults, config);
    SideFixture agent(candidates, defaults, config);
    std::vector<std::vector<PrefClass>> mine, theirs;
    std::vector<std::vector<double>> my_true;
    random_lists(gen, Classes::kNarrow, positions, candidates, mine, my_true,
                 theirs);
    engine.refresh(mine, my_true, theirs);
    agent.refresh(mine, my_true, theirs);  // the handshake
    Reference ref{engine.side.get(), &engine.problem, policy,
                  std::vector<char>(positions, 1),
                  std::vector<std::vector<char>>(
                      positions, std::vector<char>(candidates, 0))};
    util::Rng engine_rng(static_cast<std::uint64_t>(trial) + 300);
    util::Rng agent_rng = engine_rng, ref_rng = engine_rng;
    const auto settle = [&](const ProposalChoice& c, bool accept) {
      for (SideFixture* fx : {&engine, &agent}) {
        if (accept) fx->side->apply_accept(c.pos, c.ci);
        else fx->side->ban(c.pos, c.ci);
      }
      if (accept) ref.remaining[c.pos] = 0;
      else ref.banned[c.pos][c.ci] = 1;
    };
    std::optional<ProposalChoice> last;

    for (int step = 0; step < 40; ++step) {
      SCOPED_TRACE("trial " + std::to_string(trial) + " step " +
                   std::to_string(step));
      if (step > 0 && gen.next_below(3) == 0) {
        std::vector<std::vector<PrefClass>> ignored;
        random_lists(gen, Classes::kNarrow, positions, candidates, mine,
                     my_true, ignored);
        for (SideFixture* fx : {&engine, &agent}) {
          fx->oracle.next.classes = list_of(mine);
          fx->oracle.next.true_value = matrix_of(my_true);
          fx->side->evaluate();
          fx->side->disclose(list_of(theirs));
        }
        engine.side->set_remote_disclosed(list_of(theirs));
        if (last && engine.side->proposable(last->pos, last->ci) &&
            gen.next_bool())
          settle(*last, gen.next_bool());
      }

      ProposalChoice got_engine{}, got_agent{}, want{};
      const bool found_engine = engine.side->select_proposal(
          with_rng ? &engine_rng : nullptr, got_engine);
      const bool found_agent = agent.side->select_proposal(
          with_rng ? &agent_rng : nullptr, got_agent);
      const bool want_found = ref.select(with_rng ? &ref_rng : nullptr, want);
      ASSERT_EQ(found_engine, want_found);
      ASSERT_EQ(found_agent, want_found);
      if (want_found) {
        ASSERT_EQ(got_engine.pos, want.pos);
        ASSERT_EQ(got_engine.ci, want.ci);
        ASSERT_EQ(got_agent.pos, want.pos);
        ASSERT_EQ(got_agent.ci, want.ci);
      }
      util::Rng engine_next = engine_rng, agent_next = agent_rng;
      ASSERT_EQ(engine_next.next_u64(), agent_next.next_u64());

      const Projection whole = ref.project(NegotiationSide::kNoPosition);
      ASSERT_TRUE(same_bits(engine.side->project_future(), whole));
      ASSERT_TRUE(same_bits(agent.side->project_future(), whole));
      const bool stops = whole.peak <= 0 && whole.end < 0;
      ASSERT_EQ(engine.side->stops_early(), stops);
      ASSERT_EQ(agent.side->stops_early(), stops);
      if (!want_found) break;
      const bool accepted = engine.side->accepts(want.pos, want.ci);
      ASSERT_EQ(agent.side->accepts(want.pos, want.ci), accepted);
      const double gain = engine.side->true_gain();
      const double value = engine.side->truth().true_value[want.pos][want.ci];
      ASSERT_EQ(accepted, gain + value >= 0 ||
                              gain + value + ref.project(want.pos).peak >= 0);
      settle(want, accepted);
      last = want;
    }
  }
}

TEST(PositionIndex, RefreshOrderDoesNotMatterMaxCombinedWithRng) {
  run_refresh_orders(ProposalPolicy::kMaxCombinedGain, true);
}

TEST(PositionIndex, RefreshOrderDoesNotMatterBestLocalDeterministic) {
  run_refresh_orders(ProposalPolicy::kBestLocalMinImpact, false);
}

// Selection alone against the reference's scan of every (pos, ci) pair,
// through interleaved bans and accepts, under both proposal policies and
// both tie-breaks. Narrow classes tie everywhere, so most steps draw; rows
// of up to 64 candidates take the tie-mask path, wider ones (65, 130) the
// exact candidate loop.
TEST(PositionIndex, SelectionMatchesReferenceScan) {
  util::Rng gen(2024);
  for (const ProposalPolicy policy :
       {ProposalPolicy::kMaxCombinedGain, ProposalPolicy::kBestLocalMinImpact}) {
    for (const TieBreak tie_break : {TieBreak::kRandom, TieBreak::kDeterministic}) {
      for (const std::size_t candidates : {1, 2, 5, 63, 64, 65, 130}) {
        for (int trial = 0; trial < 3; ++trial) {
          SCOPED_TRACE("candidates " + std::to_string(candidates) + " trial " +
                       std::to_string(trial));
          const std::size_t positions = 1 + gen.next_below(20);
          std::vector<std::size_t> defaults(positions);
          for (auto& d : defaults) d = gen.next_below(candidates);
          NegotiationConfig config;
          config.proposal = policy;
          config.tie_break = tie_break;
          SideFixture fx(candidates, defaults, config);
          std::vector<std::vector<PrefClass>> mine, theirs;
          std::vector<std::vector<double>> my_true;
          random_lists(gen, Classes::kNarrow, positions, candidates, mine,
                       my_true, theirs);
          fx.refresh(mine, my_true, theirs);
          Reference ref{fx.side.get(), &fx.problem, policy,
                        std::vector<char>(positions, 1),
                        std::vector<std::vector<char>>(
                            positions, std::vector<char>(candidates, 0))};
          util::Rng side_rng(gen.next_u64());
          util::Rng ref_rng = side_rng;
          const bool random = tie_break == TieBreak::kRandom;
          for (int step = 0; step < 80; ++step) {
            ProposalChoice got{}, want{};
            const bool got_found =
                fx.side->select_proposal(random ? &side_rng : nullptr, got);
            const bool want_found =
                ref.select(random ? &ref_rng : nullptr, want);
            ASSERT_EQ(got_found, want_found) << "step " << step;
            util::Rng side_next = side_rng, ref_next = ref_rng;
            ASSERT_EQ(side_next.next_u64(), ref_next.next_u64())
                << "step " << step;
            if (!want_found) break;
            ASSERT_EQ(got.pos, want.pos) << "step " << step;
            ASSERT_EQ(got.ci, want.ci) << "step " << step;
            if (gen.next_below(3) != 0) {
              fx.side->ban(want.pos, want.ci);
              ref.banned[want.pos][want.ci] = 1;
            } else {
              fx.side->apply_accept(want.pos, want.ci);
              ref.remaining[want.pos] = 0;
            }
          }
        }
      }
    }
  }
}

// --- shape checks -------------------------------------------------------

TEST(ShapeChecks, OracleListsOfTheWrongShapeThrow) {
  NegotiationConfig config;
  SideFixture fx(2, {0, 0}, config);
  const auto evaluate_with = [&](PreferenceList classes,
                                 Matrix<double> truth) {
    fx.oracle.next.classes = std::move(classes);
    fx.oracle.next.true_value = std::move(truth);
    fx.side->evaluate();
  };
  const Matrix<double> truth{{0.0, 1.0}, {0.0, 1.0}};
  EXPECT_NO_THROW(evaluate_with({{0, 1}, {0, 1}}, truth));
  // Classes: one row short, one column short, one column too many.
  EXPECT_THROW(evaluate_with({{0, 1}}, truth), std::logic_error);
  EXPECT_THROW(evaluate_with({{0}, {0}}, truth), std::logic_error);
  EXPECT_THROW(evaluate_with({{0, 1, 2}, {0, 1, 2}}, truth), std::logic_error);
  // True values: a row short, a column short.
  EXPECT_THROW(evaluate_with({{0, 1}, {0, 1}}, {{0.0, 1.0}}), std::logic_error);
  EXPECT_THROW(evaluate_with({{0, 1}, {0, 1}}, {{0.0}, {0.0}}),
               std::logic_error);
  // A class the packed selection keys cannot hold.
  EXPECT_THROW(evaluate_with({{0, kMaxPrefRange + 1}, {0, 1}}, truth),
               std::logic_error);
  // The remote's list is checked the same way.
  EXPECT_THROW(fx.side->set_remote_disclosed({{0, 1}}), std::logic_error);
  EXPECT_THROW(fx.side->set_remote_disclosed({{0, 1, 2}, {0, 1, 2}}),
               std::logic_error);
}

TEST(ShapeChecks, CheatingDiscloseOnMismatchedShapesThrows) {
  ScriptedOracle honest;
  CheatingOracle cheat(honest, 10);
  const OracleContext ctx{};
  const PreferenceList own{{1, 0}, {0, 2}};
  EXPECT_EQ(cheat.disclose(ctx, own, {{0, 0}, {0, 0}}).rows(), 2u);
  EXPECT_THROW((void)cheat.disclose(ctx, own, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW((void)cheat.disclose(ctx, own, {{0, 0, 0}, {0, 0, 0}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nexit::core
