#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "core/oracles.hpp"
#include "metrics/metrics.hpp"
#include "test_topologies.hpp"

namespace nexit::core {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

/// Scripted oracle for protocol-level tests: preference lists are supplied
/// per reassignment phase.
class ScriptedOracle : public PreferenceOracle {
 public:
  explicit ScriptedOracle(std::vector<PreferenceList> phases, bool reassign = false)
      : phases_(std::move(phases)), reassign_(reassign) {}

  Evaluation evaluate(const OracleContext&) override {
    const std::size_t i = std::min(calls_, phases_.size() - 1);
    ++calls_;
    Evaluation e;
    e.classes = phases_[i];
    // Scripted oracles value alternatives exactly at their class numbers.
    e.true_value = Matrix<double>(e.classes.rows(), e.classes.cols());
    std::copy(e.classes.values().begin(), e.classes.values().end(),
              e.true_value.values().begin());
    return e;
  }
  [[nodiscard]] bool wants_reassignment() const override { return reassign_; }
  [[nodiscard]] std::size_t calls() const { return calls_; }

 private:
  std::vector<PreferenceList> phases_;
  bool reassign_;
  std::size_t calls_ = 0;
};

PreferenceList list_for(const std::vector<std::vector<PrefClass>>& rows) {
  PreferenceList l(rows.size(), rows.empty() ? 0 : rows.front().size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    std::copy(rows[i].begin(), rows[i].end(), l[i].begin());
  return l;
}

/// A two-flow, two-candidate problem over the figure-1 pair, used as the
/// substrate for scripted-oracle tests (flow geometry does not matter there;
/// only list shapes do). Candidates: 0 = "top", 1 = "bottom".
struct ScriptedFixture {
  topology::IspPair pair = figure1_pair();
  routing::PairRouting routing{pair};
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 0, 1.0),
                                   make_flow(1, Direction::kAtoB, 1, 1, 1.0)};
  NegotiationProblem problem;

  ScriptedFixture() {
    problem.routing = &routing;
    problem.flows = &flows;
    problem.negotiable = {0, 1};
    problem.candidates = {0, 1};
    // Defaults: both flows on candidate 1 ("bottom").
    problem.default_assignment.ix_of_flow = {1, 1};
  }
};

// --- The paper's worked example (Fig. 2 / Fig. 3) ---------------------------
//
// Initial lists ((A,B) per alternative), defaults = bottom:
//   f2top (-1,0)  f2bot (0,0)  f3top (0,0)  f3bot (0,0)
// After f2 settles on bottom, ISP-B reassigns: f3top (0,+1).
// Desired outcome: f2 -> bottom, f3 -> top (Fig. 2e).

TEST(WorkedExample, ReachesMutuallyAcceptableSolution) {
  int optimal_count = 0;
  int runs = 0;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    ScriptedFixture fx;
    ScriptedOracle a(
        {list_for({{-1, 0}, {0, 0}})},  // static for A
        false);
    ScriptedOracle b(
        {list_for({{0, 0}, {0, 0}}),    // phase 0: indifferent
         list_for({{0, 0}, {1, 0}})},   // after first accept: f3top = +1
        true);
    NegotiationConfig cfg;
    cfg.seed = seed;
    cfg.reassign_traffic_fraction = 0.5;  // reassign after every flow
    cfg.record_trace = true;
    NegotiationEngine engine(fx.problem, a, b, cfg);
    auto out = engine.run();
    ++runs;

    // Whatever the tie-breaks, no ISP ends below its default.
    EXPECT_GE(out.true_gain_a, 0);
    EXPECT_GE(out.true_gain_b, 0);
    // f2 must never sit on top (A's -1; combined would be negative).
    EXPECT_NE(out.assignment.ix_of_flow[0], 0u);
    if (out.assignment.ix_of_flow[1] == 0) {
      // Fig. 2e reached: f2 bottom, f3 top.
      ++optimal_count;
      // When f2 settles first (the paper's narrative), the reassigned
      // ISP-B list values f3top at +1 and B banks that gain.
      ASSERT_FALSE(out.trace.empty());
      if (out.trace.front().flow.value() == 0) {
        EXPECT_EQ(out.true_gain_b, 1);
      }
    }
  }
  // The desired outcome must be reachable (the paper notes the suboptimal
  // one is possible too when f3bot is picked first).
  EXPECT_GT(optimal_count, 0);
  EXPECT_EQ(runs, 30);
}

TEST(WorkedExample, TraceShowsReassignment) {
  ScriptedFixture fx;
  ScriptedOracle a({list_for({{-1, 0}, {0, 0}})});
  ScriptedOracle b({list_for({{0, 0}, {0, 0}}), list_for({{0, 0}, {1, 0}})},
                   true);
  NegotiationConfig cfg;
  cfg.seed = 3;
  cfg.reassign_traffic_fraction = 0.5;
  cfg.record_trace = true;
  NegotiationEngine engine(fx.problem, a, b, cfg);
  auto out = engine.run();
  EXPECT_GE(out.reassignments, 1u);
  EXPECT_GE(b.calls(), 2u);
  ASSERT_FALSE(out.trace.empty());
  EXPECT_TRUE(out.trace.front().accepted);
}

// --- Engine mechanics with scripted lists ----------------------------------

TEST(Engine, PicksMaxCombinedGain) {
  ScriptedFixture fx;
  // Flow 0: top gives A+3/B+2 (sum 5); flow 1: top gives A+1/B+1 (sum 2).
  ScriptedOracle a({list_for({{3, 0}, {1, 0}})});
  ScriptedOracle b({list_for({{2, 0}, {1, 0}})});
  NegotiationConfig cfg;
  cfg.record_trace = true;
  NegotiationEngine engine(fx.problem, a, b, cfg);
  auto out = engine.run();
  ASSERT_GE(out.trace.size(), 2u);
  EXPECT_EQ(out.trace[0].flow.value(), 0);
  EXPECT_EQ(out.trace[0].interconnection, 0u);
  EXPECT_EQ(out.trace[1].flow.value(), 1);
  EXPECT_EQ(out.true_gain_a, 4);
  EXPECT_EQ(out.true_gain_b, 3);
  EXPECT_EQ(out.stop_reason, StopReason::kExhausted);
  EXPECT_EQ(out.flows_negotiated, 2u);
  EXPECT_EQ(out.flows_moved, 2u);
}

TEST(Engine, TradeAcrossFlowsMakesBothWin) {
  ScriptedFixture fx;
  // Flow 0 helps A (+3) and hurts B (-1); flow 1 the reverse. Negotiating
  // both is a win-win (A +2, B +2) even though each flow alone is not.
  ScriptedOracle a({list_for({{3, 0}, {-1, 0}})});
  ScriptedOracle b({list_for({{-1, 0}, {3, 0}})});
  NegotiationEngine engine(fx.problem, a, b, NegotiationConfig{});
  auto out = engine.run();
  EXPECT_EQ(out.assignment.ix_of_flow, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(out.true_gain_a, 2);
  EXPECT_EQ(out.true_gain_b, 2);
}

TEST(Engine, EarlyTerminationStopsWhenContinuingOnlyHurts) {
  ScriptedFixture fx;
  // Flow 0: combined +2 (A+2,B0); flow 1: combined 0 via default but the
  // only non-default alt hurts A (-3) and helps B (+1) -> combined -2, so
  // flow 1's best is its default (0,0). After flow 0, future is flat; the
  // engine negotiates it at default harmlessly.
  ScriptedOracle a({list_for({{2, 0}, {-3, 0}})});
  ScriptedOracle b({list_for({{0, 0}, {1, 0}})});
  NegotiationConfig cfg;
  NegotiationEngine engine(fx.problem, a, b, cfg);
  auto out = engine.run();
  EXPECT_EQ(out.assignment.ix_of_flow[0], 0u);
  EXPECT_EQ(out.assignment.ix_of_flow[1], 1u);  // stays default
  EXPECT_EQ(out.true_gain_a, 2);
  EXPECT_EQ(out.true_gain_b, 0);
}

TEST(Engine, EarlyTerminationProtectsAgainstPureLossFuture) {
  ScriptedFixture fx;
  // Both flows: A loses 2, B gains 1 on the non-default alternative; the
  // combined max per flow is the default (0). Early termination stops with
  // nothing moved... actually selection picks defaults (combined 0) over
  // the -1 alternatives, so no one is ever hurt.
  ScriptedOracle a({list_for({{-2, 0}, {-2, 0}})});
  ScriptedOracle b({list_for({{1, 0}, {1, 0}})});
  NegotiationEngine engine(fx.problem, a, b, NegotiationConfig{});
  auto out = engine.run();
  EXPECT_EQ(out.true_gain_a, 0);
  EXPECT_EQ(out.assignment.ix_of_flow, fx.problem.default_assignment.ix_of_flow);
}

TEST(Engine, FullTerminationGuardsCumulativeGain) {
  ScriptedFixture fx;
  // Flow 0: A+1/B-1 (combined 0 same as defaults...) make it positive:
  // A+2/B-1 (sum 1). Flow 1: A-2/B+1 (sum -1) -> its best is default (0,0).
  ScriptedOracle a({list_for({{2, 0}, {-2, 0}})});
  ScriptedOracle b({list_for({{-1, 0}, {1, 0}})});
  NegotiationConfig cfg;
  cfg.termination = TerminationPolicy::kFull;
  NegotiationEngine engine(fx.problem, a, b, cfg);
  auto out = engine.run();
  // B dips to -1 on flow 0? Full termination stops if cumulative would go
  // negative: accepting flow 0 makes B = -1 < 0, so negotiation stops
  // before it.
  EXPECT_EQ(out.stop_reason, StopReason::kGainWouldGoNegative);
  EXPECT_EQ(out.true_gain_b, 0);
}

TEST(Engine, NegotiateAllSettlesEverything) {
  ScriptedFixture fx;
  ScriptedOracle a({list_for({{-1, 0}, {-1, 0}})});
  ScriptedOracle b({list_for({{0, 0}, {0, 0}})});
  NegotiationConfig cfg;
  cfg.termination = TerminationPolicy::kNegotiateAll;
  NegotiationEngine engine(fx.problem, a, b, cfg);
  auto out = engine.run();
  EXPECT_EQ(out.flows_negotiated, 2u);
  EXPECT_EQ(out.stop_reason, StopReason::kExhausted);
  // Defaults win (combined 0 beats -1), so nothing moves.
  EXPECT_EQ(out.flows_moved, 0u);
}

TEST(Engine, VetoBansLossyAlternative) {
  ScriptedFixture fx;
  // A wants flow 0 on top (+5), B truly hates it (-2). Selection (max
  // combined = +3) proposes it; with kVetoOwnLoss B rejects, and the
  // negotiation falls back to defaults.
  ScriptedOracle a({list_for({{5, 0}, {0, 0}})});
  ScriptedOracle b({list_for({{-2, 0}, {0, 0}})});
  NegotiationConfig cfg;
  cfg.acceptance = AcceptancePolicy::kVetoOwnLoss;
  // kEarly would make B stop before the proposal; exercise the veto path.
  cfg.termination = TerminationPolicy::kNegotiateAll;
  cfg.record_trace = true;
  NegotiationEngine engine(fx.problem, a, b, cfg);
  auto out = engine.run();
  EXPECT_EQ(out.assignment.ix_of_flow[0], 1u);  // stays default
  EXPECT_EQ(out.true_gain_b, 0);
  bool saw_rejection = false;
  for (const auto& tr : out.trace) saw_rejection |= !tr.accepted;
  EXPECT_TRUE(saw_rejection);
}

TEST(Engine, LowerGainTurnPolicyAlternatesOnTies) {
  ScriptedFixture fx;
  ScriptedOracle a({list_for({{1, 0}, {1, 0}})});
  ScriptedOracle b({list_for({{1, 0}, {1, 0}})});
  NegotiationConfig cfg;
  cfg.turn = TurnPolicy::kLowerGain;
  NegotiationEngine engine(fx.problem, a, b, cfg);
  auto out = engine.run();
  EXPECT_EQ(out.flows_negotiated, 2u);
  EXPECT_EQ(out.true_gain_a, 2);
}

TEST(Engine, DeterministicGivenSeed) {
  for (int rep = 0; rep < 3; ++rep) {
    ScriptedFixture fx;
    ScriptedOracle a({list_for({{1, 1}, {1, 1}})});
    ScriptedOracle b({list_for({{1, 1}, {1, 1}})});
    NegotiationConfig cfg;
    cfg.seed = 77;
    cfg.record_trace = true;
    NegotiationEngine engine(fx.problem, a, b, cfg);
    auto out = engine.run();
    static std::vector<std::size_t> first;
    if (rep == 0) {
      first = out.assignment.ix_of_flow;
    } else {
      EXPECT_EQ(out.assignment.ix_of_flow, first);
    }
  }
}

TEST(Engine, MalformedProblemThrows) {
  ScriptedFixture fx;
  fx.problem.default_assignment.ix_of_flow = {0};  // wrong size
  ScriptedOracle a({list_for({{0, 0}, {0, 0}})});
  ScriptedOracle b({list_for({{0, 0}, {0, 0}})});
  EXPECT_THROW(NegotiationEngine(fx.problem, a, b, NegotiationConfig{}),
               std::invalid_argument);
}

TEST(Engine, OracleShapeMismatchDetected) {
  ScriptedFixture fx;
  ScriptedOracle a({list_for({{0, 0}})});  // one flow instead of two
  ScriptedOracle b({list_for({{0, 0}, {0, 0}})});
  NegotiationEngine engine(fx.problem, a, b, NegotiationConfig{});
  EXPECT_THROW(engine.run(), std::logic_error);
}

// --- End-to-end on the figure-1 topology with real oracles ------------------

TEST(EngineWithDistanceOracles, FindsTheMutuallyBeneficialRouting) {
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  // Two opposite flows between the far ends (the Fig. 1 situation).
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 0, 2),
                                   make_flow(1, Direction::kBtoA, 2, 0)};
  auto problem = make_distance_problem(r, flows, {0, 1, 2});

  PreferenceConfig pc;
  DistanceOracle a(0, pc), b(1, pc);
  NegotiationConfig cfg;
  NegotiationEngine engine(problem, a, b, cfg);
  auto out = engine.run();

  const double def_km =
      metrics::total_flow_km(r, flows, problem.default_assignment);
  const double neg_km = metrics::total_flow_km(r, flows, out.assignment);
  auto optimal = routing::assign_min_total_km(r, flows, problem.candidates);
  const double opt_km = metrics::total_flow_km(r, flows, optimal);

  // In this symmetric two-flow case the global optimum (both flows via ix2)
  // makes ISP A strictly worse in its own network, so a win-win negotiation
  // must legitimately refuse it: optimal <= negotiated <= default, and no
  // ISP below its default.
  EXPECT_LE(neg_km, def_km + 1e-9);
  EXPECT_LE(opt_km, neg_km + 1e-9);
  EXPECT_GE(out.true_gain_a, 0);
  EXPECT_GE(out.true_gain_b, 0);
  // And the per-ISP km confirm neither carries more than under default.
  for (int side = 0; side < 2; ++side) {
    EXPECT_LE(metrics::side_flow_km(r, flows, out.assignment, side),
              metrics::side_flow_km(r, flows, problem.default_assignment, side) +
                  1e-9);
  }
}

TEST(EngineWithDistanceOracles, AsymmetricTradeReachesOptimal) {
  // Flows engineered so the optimal IS win-win: f0 = a0 -> b2 (B saves 400km
  // by ix2, A pays 200) and f1 = b2 -> a2 (B saves 400km by exiting at ix2
  // rather than hauling to ix0; A pays nothing since dst is a2)... Use
  // distinct endpoints so savings do not cancel.
  auto pair = figure1_pair();
  routing::PairRouting r(pair);
  std::vector<traffic::Flow> flows{make_flow(0, Direction::kAtoB, 1, 2),
                                   make_flow(1, Direction::kBtoA, 1, 0)};
  // f0: a1->b2. defaults ix1 (A 0km, B 300). via ix2: A 100, B 0: combined
  // saves 200. f1: b1->a0: default ix1 (B 0, A 100); via ix0: B 100, A 0.
  auto problem = make_distance_problem(r, flows, {0, 1, 2});
  DistanceOracle a(0, PreferenceConfig{}), b(1, PreferenceConfig{});
  NegotiationEngine engine(problem, a, b, NegotiationConfig{});
  auto out = engine.run();

  const double def_km =
      metrics::total_flow_km(r, flows, problem.default_assignment);
  const double neg_km = metrics::total_flow_km(r, flows, out.assignment);
  EXPECT_LT(neg_km, def_km);  // negotiation finds real savings here
  EXPECT_GE(out.true_gain_a, 0);
  EXPECT_GE(out.true_gain_b, 0);
}

}  // namespace
}  // namespace nexit::core
