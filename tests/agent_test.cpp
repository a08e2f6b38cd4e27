#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>

#include "agent/agent.hpp"
#include "capacity/capacity.hpp"
#include "core/cheating.hpp"
#include "core/engine.hpp"
#include "core/oracles.hpp"
#include "metrics/metrics.hpp"
#include "sim/pair_universe.hpp"
#include "test_topologies.hpp"
#include "topology/generator.hpp"

namespace nexit::agent {
namespace {

using testing::figure1_pair;
using testing::make_flow;
using traffic::Direction;

core::NegotiationConfig wire_config() {
  core::NegotiationConfig cfg;
  cfg.tie_break = core::TieBreak::kDeterministic;
  return cfg;
}

// --- Channels ---------------------------------------------------------------

TEST(Channel, InMemoryDelivery) {
  auto [a, b] = make_in_memory_channel_pair();
  a->send({1, 2, 3});
  EXPECT_EQ(b->receive(), (proto::Bytes{1, 2, 3}));
  EXPECT_TRUE(b->receive().empty());
  b->send({9});
  EXPECT_EQ(a->receive(), (proto::Bytes{9}));
}

TEST(Channel, InMemoryClose) {
  auto [a, b] = make_in_memory_channel_pair();
  a->close();
  EXPECT_TRUE(b->closed());
  EXPECT_THROW(a->send({1}), std::runtime_error);
}

TEST(Channel, SocketPairDelivery) {
  auto [a, b] = make_socket_channel_pair();
  a->send({5, 6, 7});
  proto::Bytes got;
  for (int i = 0; i < 100 && got.empty(); ++i) got = b->receive();
  EXPECT_EQ(got, (proto::Bytes{5, 6, 7}));
}

TEST(Channel, SocketDeliversPayloadsLargerThanTheKernelBuffer) {
  // A send exceeding SO_SNDBUF must queue the overflow and drain it via
  // later send()/receive() calls — not busy-spin on EAGAIN, which deadlocks
  // when both endpoints are pumped by the same thread (runtime sessions).
  auto [a, b] = make_socket_channel_pair();
  proto::Bytes big(1u << 20);
  for (std::size_t i = 0; i < big.size(); ++i)
    big[i] = static_cast<std::uint8_t>(i * 31 + 7);
  a->send(big);  // far beyond a default AF_UNIX buffer; must not hang
  proto::Bytes got;
  for (int i = 0; i < 1000 && got.size() < big.size(); ++i) {
    (void)a->receive();  // flushes a's queued overflow
    const proto::Bytes chunk = b->receive();
    got.insert(got.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(got, big);
}

TEST(Channel, FaultyDropsEverythingAtP1) {
  auto [a, b] = make_in_memory_channel_pair();
  FaultyChannel lossy(std::move(a), /*drop=*/1.0, /*corrupt=*/0.0, 1);
  lossy.send({1, 2, 3});
  EXPECT_TRUE(b->receive().empty());
}

TEST(Channel, FaultyCorruptsPayload) {
  auto [a, b] = make_in_memory_channel_pair();
  FaultyChannel bad(std::move(a), /*drop=*/0.0, /*corrupt=*/1.0, 1);
  bad.send({1, 2, 3});
  auto got = b->receive();
  ASSERT_EQ(got.size(), 3u);
  EXPECT_NE(got, (proto::Bytes{1, 2, 3}));
}

// --- Agent sessions ----------------------------------------------------------

struct SessionFixture {
  topology::IspPair pair = figure1_pair();
  routing::PairRouting routing{pair};
  std::vector<traffic::Flow> flows{
      make_flow(0, Direction::kAtoB, 1, 2), make_flow(1, Direction::kBtoA, 1, 0),
      make_flow(2, Direction::kAtoB, 0, 2), make_flow(3, Direction::kBtoA, 2, 0)};
  core::NegotiationProblem problem =
      core::make_distance_problem(routing, flows, {0, 1, 2});
};

// --- Engine <-> wire equivalence --------------------------------------------

/// A generated distance scenario: one peering pair from a small synthetic
/// universe with uniform-random flow sizes in both directions (asymmetric
/// sizes make both ISPs concede, so settlement order matters). Heap-pinned
/// (the routing points into the pair, the problem into both).
struct DistanceWorld {
  explicit DistanceWorld(topology::IspPair p) : pair(std::move(p)) {}
  topology::IspPair pair;
  std::unique_ptr<routing::PairRouting> routing;
  std::unique_ptr<traffic::TrafficMatrix> traffic;
  core::NegotiationProblem problem;
};

std::vector<std::unique_ptr<DistanceWorld>> distance_worlds(std::size_t count) {
  std::vector<std::unique_ptr<DistanceWorld>> worlds;
  for (std::uint64_t seed = 1; worlds.size() < count; ++seed) {
    sim::UniverseConfig u;
    u.isp_count = 12;
    u.seed = seed;
    u.max_pairs = 8;
    u.generator.max_pops = 10;
    for (topology::IspPair& pair : sim::build_pair_universe(u, 2)) {
      if (worlds.size() == count) break;
      auto w = std::make_unique<DistanceWorld>(std::move(pair));
      w->routing = std::make_unique<routing::PairRouting>(w->pair);
      util::Rng rng(seed * 131 + worlds.size());
      traffic::TrafficConfig tcfg;
      tcfg.model = traffic::WorkloadModel::kUniformRandom;
      w->traffic = std::make_unique<traffic::TrafficMatrix>(
          traffic::TrafficMatrix::build_bidirectional(w->pair, tcfg, rng));
      std::vector<std::size_t> cands(w->pair.interconnection_count());
      for (std::size_t i = 0; i < cands.size(); ++i) cands[i] = i;
      w->problem = core::make_distance_problem(*w->routing, w->traffic->flows(),
                                               cands);
      worlds.push_back(std::move(w));
    }
  }
  return worlds;
}

/// Runs one in-memory wire session; throws unless both agents finish.
std::pair<core::NegotiationOutcome, core::NegotiationOutcome> wire_session(
    const core::NegotiationProblem& problem, core::PreferenceOracle& oa,
    core::PreferenceOracle& ob, const core::NegotiationConfig& cfg) {
  auto [ca, cb] = make_in_memory_channel_pair();
  NegotiationAgent a(problem, oa, *ca, AgentConfig{0, 1, cfg});
  NegotiationAgent b(problem, ob, *cb, AgentConfig{1, 2, cfg});
  run_session(a, b);
  if (!a.done() || !b.done())
    throw std::runtime_error("wire session did not finish: " + a.error() +
                             " / " + b.error());
  return {a.outcome(), b.outcome()};
}

// Every wire-supported policy combination over generated distance pairs:
// the wire session must reproduce the engine bit for bit — assignment, each
// side's true gain (from its own agent), rounds, stop reason, rollbacks and
// reassignments.
TEST(AgentSession, MatchesEngineAcrossThePolicyGrid) {
  const auto worlds = distance_worlds(30);
  std::size_t sessions = 0, mismatches = 0;
  std::string first_mismatch;
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    const core::NegotiationProblem& problem = worlds[w]->problem;
    for (auto turn : {core::TurnPolicy::kAlternate, core::TurnPolicy::kLowerGain})
    for (auto acceptance : {core::AcceptancePolicy::kProtective,
                            core::AcceptancePolicy::kAlwaysAccept,
                            core::AcceptancePolicy::kVetoOwnLoss})
    for (auto termination : {core::TerminationPolicy::kEarly,
                             core::TerminationPolicy::kNegotiateAll})
    for (auto proposal : {core::ProposalPolicy::kMaxCombinedGain,
                          core::ProposalPolicy::kBestLocalMinImpact})
    for (bool rollback : {true, false}) {
      auto cfg = wire_config();
      cfg.turn = turn;
      cfg.acceptance = acceptance;
      cfg.termination = termination;
      cfg.proposal = proposal;
      cfg.settlement_rollback = rollback;
      core::DistanceOracle ea(0, cfg.preferences), eb(1, cfg.preferences);
      const auto expected =
          core::NegotiationEngine(problem, ea, eb, cfg).run();
      core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
      const auto [a, b] = wire_session(problem, oa, ob, cfg);
      ++sessions;
      const bool same =
          a.assignment.ix_of_flow == expected.assignment.ix_of_flow &&
          b.assignment.ix_of_flow == expected.assignment.ix_of_flow &&
          a.true_gain_a == expected.true_gain_a &&
          b.true_gain_b == expected.true_gain_b &&
          a.rounds == expected.rounds && b.rounds == expected.rounds &&
          a.stop_reason == expected.stop_reason &&
          b.stop_reason == expected.stop_reason &&
          a.flows_rolled_back == expected.flows_rolled_back &&
          b.flows_rolled_back == expected.flows_rolled_back &&
          a.reassignments == expected.reassignments &&
          b.reassignments == expected.reassignments;
      if (!same && mismatches++ == 0)
        first_mismatch = "world " + std::to_string(w) + ", combination " +
                         std::to_string((sessions - 1) % 48) +
                         " (turn, acceptance, termination, proposal, "
                         "rollback; innermost fastest)";
    }
  }
  EXPECT_EQ(sessions, 30u * 48u);
  EXPECT_EQ(mismatches, 0u) << "first: " << first_mismatch;
}

// §5.4 over the wire: whichever side cheats, the truthful side's exact
// gain never ends below its default.
TEST(AgentSession, TruthfulSideNeverLosesToAWireCheater) {
  const auto worlds = distance_worlds(60);
  const auto cfg = wire_config();
  for (std::size_t w = 0; w < worlds.size(); ++w) {
    for (int cheater = 0; cheater < 2; ++cheater) {
      core::DistanceOracle a(0, cfg.preferences), b(1, cfg.preferences);
      core::CheatingOracle lie_a(a, cfg.preferences.range);
      core::CheatingOracle lie_b(b, cfg.preferences.range);
      core::PreferenceOracle& oa =
          cheater == 0 ? static_cast<core::PreferenceOracle&>(lie_a) : a;
      core::PreferenceOracle& ob =
          cheater == 1 ? static_cast<core::PreferenceOracle&>(lie_b) : b;
      const auto [out_a, out_b] = wire_session(worlds[w]->problem, oa, ob, cfg);
      const double truthful = cheater == 0 ? out_b.true_gain_b : out_a.true_gain_a;
      EXPECT_GE(truthful, -1e-9) << "world " << w << " cheater " << cheater;
    }
  }
}

/// Honest distance oracle whose incremental path lies: every incremental
/// evaluation shifts one true value, which a full recompute does not.
class DivergingOracle : public core::DistanceOracle {
 public:
  using core::DistanceOracle::DistanceOracle;
  core::Evaluation evaluate_incremental(
      const core::OracleContext& ctx,
      const core::EvaluationDelta& delta) override {
    core::Evaluation e = core::DistanceOracle::evaluate_incremental(ctx, delta);
    if (!e.true_value.values().empty()) e.true_value[0][0] += 1.0;
    return e;
  }
  [[nodiscard]] bool wants_reassignment() const override { return true; }
};

// The wire agents run the engine's full-recompute audit: a diverging
// incremental evaluation fails the session instead of finishing it.
TEST(AgentSession, IncrementalAuditCatchesADivergingOracle) {
  const auto worlds = distance_worlds(1);
  auto cfg = wire_config();
  cfg.reassign_traffic_fraction = 0.05;
  cfg.verify_incremental_every = 1;
  DivergingOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  NegotiationAgent a(worlds[0]->problem, oa, *ca, AgentConfig{0, 1, cfg});
  NegotiationAgent b(worlds[0]->problem, ob, *cb, AgentConfig{1, 2, cfg});
  run_session(a, b);
  EXPECT_FALSE(a.done());
  EXPECT_FALSE(b.done());
  EXPECT_TRUE(a.failed() || b.failed());
  const std::string& why = a.failed() ? a.error() : b.error();
  EXPECT_NE(why.find("diverged"), std::string::npos) << why;
}

TEST(AgentSession, MatchesEngineOverRealSockets) {
  SessionFixture fx;
  auto cfg = wire_config();
  core::DistanceOracle ea(0, cfg.preferences), eb(1, cfg.preferences);
  core::NegotiationEngine engine(fx.problem, ea, eb, cfg);
  auto expected = engine.run();

  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_socket_channel_pair();
  NegotiationAgent agent_a(fx.problem, oa, *ca, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
  run_session(agent_a, agent_b);
  ASSERT_TRUE(agent_a.done()) << agent_a.error();
  ASSERT_TRUE(agent_b.done()) << agent_b.error();
  EXPECT_EQ(agent_a.outcome().assignment.ix_of_flow,
            expected.assignment.ix_of_flow);
}

TEST(AgentSession, MatchesEngineWithBandwidthOraclesAndReassignment) {
  // Failure scenario with bandwidth oracles: reassignment adverts must flow
  // and the result must still match the engine.
  topology::TopologyGenerator gen(geo::CityDb::builtin(),
                                  topology::GeneratorConfig{});
  util::Rng rng(2024);
  topology::IspPair pair = [&] {
    auto isps = gen.generate_universe(16, rng);
    for (std::size_t i = 0; i < isps.size(); ++i)
      for (std::size_t j = i + 1; j < isps.size(); ++j)
        if (auto p = topology::make_pair_if_peers(isps[i], isps[j], 3)) return *p;
    throw std::logic_error("no pair with 3 interconnections");
  }();

  routing::PairRouting routing(pair);
  traffic::TrafficConfig tcfg;
  auto tm = traffic::TrafficMatrix::build(pair, Direction::kAtoB, tcfg, rng);
  auto problem = core::make_failure_problem(routing, tm.flows(), 0);
  ASSERT_FALSE(problem.negotiable.empty());

  std::vector<std::size_t> all_ix(pair.interconnection_count());
  for (std::size_t i = 0; i < all_ix.size(); ++i) all_ix[i] = i;
  auto pre_failure = routing::assign_early_exit(routing, tm.flows(), all_ix);
  auto baseline = routing::compute_loads(routing, tm.flows(), pre_failure);
  auto caps = capacity::assign_capacities(baseline, capacity::CapacityConfig{});

  auto cfg = wire_config();
  cfg.reassign_traffic_fraction = 0.05;

  core::BandwidthOracle ea(0, cfg.preferences, caps), eb(1, cfg.preferences, caps);
  core::NegotiationEngine engine(problem, ea, eb, cfg);
  auto expected = engine.run();

  core::BandwidthOracle oa(0, cfg.preferences, caps), ob(1, cfg.preferences, caps);
  auto [ca, cb] = make_in_memory_channel_pair();
  NegotiationAgent agent_a(problem, oa, *ca, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(problem, ob, *cb, AgentConfig{1, 2, cfg});
  run_session(agent_a, agent_b);

  ASSERT_TRUE(agent_a.done()) << agent_a.error();
  ASSERT_TRUE(agent_b.done()) << agent_b.error();
  EXPECT_EQ(agent_a.outcome().assignment.ix_of_flow,
            expected.assignment.ix_of_flow);
  EXPECT_EQ(agent_a.outcome().reassignments, expected.reassignments);
  EXPECT_EQ(agent_a.outcome().true_gain_a, expected.true_gain_a);
  EXPECT_EQ(agent_b.outcome().true_gain_b, expected.true_gain_b);
}

TEST(AgentSession, CorruptionFailsCleanlyWithoutHanging) {
  SessionFixture fx;
  auto cfg = wire_config();
  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  // Corrupt every frame A sends.
  FaultyChannel bad_a(std::move(ca), 0.0, 1.0, 7);
  NegotiationAgent agent_a(fx.problem, oa, bad_a, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
  const std::size_t steps = run_session(agent_a, agent_b, 1000);
  EXPECT_LT(steps, 1000u);  // no hang
  EXPECT_TRUE(agent_b.failed());
  EXPECT_NE(agent_b.error().find("stream error"), std::string::npos);
}

TEST(AgentSession, DropsStallDetected) {
  SessionFixture fx;
  auto cfg = wire_config();
  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  FaultyChannel lossy(std::move(ca), /*drop=*/1.0, 0.0, 7);
  NegotiationAgent agent_a(fx.problem, oa, lossy, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
  const std::size_t steps = run_session(agent_a, agent_b, 1000);
  EXPECT_LT(steps, 1000u);  // stall detection kicks in
  EXPECT_FALSE(agent_b.done());
}

TEST(AgentSession, ContractMismatchFails) {
  SessionFixture fx;
  auto cfg_a = wire_config();
  auto cfg_b = wire_config();
  cfg_b.preferences.range = 5;  // different P: contract violation
  core::DistanceOracle oa(0, cfg_a.preferences), ob(1, cfg_b.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  NegotiationAgent agent_a(fx.problem, oa, *ca, AgentConfig{0, 1, cfg_a});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg_b});
  run_session(agent_a, agent_b, 1000);
  EXPECT_TRUE(agent_a.failed() || agent_b.failed());
}

/// Passes everything through except PREF_ADVERT frames, which it decodes,
/// rewrites with `tamper`, re-encodes and hands to `patch` as raw payload
/// bytes (one frame per send()).
class AdvertTamperingChannel : public Channel {
 public:
  AdvertTamperingChannel(std::unique_ptr<Channel> inner,
                         std::function<void(proto::PrefAdvert&)> tamper,
                         std::function<void(proto::Bytes&)> patch = {})
      : inner_(std::move(inner)),
        tamper_(std::move(tamper)),
        patch_(std::move(patch)) {}

  void send(const proto::Bytes& data) override {
    proto::FrameDecoder decoder;
    decoder.feed(data);
    const std::optional<proto::Frame> frame = decoder.next();
    if (frame) {
      util::Result<proto::Message> m = proto::decode_message(*frame);
      if (m.ok()) {
        if (auto* advert = std::get_if<proto::PrefAdvert>(&m.value())) {
          tamper_(*advert);
          proto::Frame out = proto::encode_message(*advert);
          if (patch_) patch_(out.payload);
          inner_->send(proto::encode_frame(out));
          return;
        }
      }
    }
    inner_->send(data);
  }
  proto::Bytes receive() override { return inner_->receive(); }
  [[nodiscard]] bool readable() const override { return inner_->readable(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<Channel> inner_;
  std::function<void(proto::PrefAdvert&)> tamper_;
  std::function<void(proto::Bytes&)> patch_;
};

// The receiver copies each advertised row into its own row-major list: a
// row of the wrong length or a class outside the agreed range must fail the
// session, never land in (or past) the table.
TEST(AgentSession, MalformedPrefAdvertFailsTheSession) {
  const int range = wire_config().preferences.range;
  const std::vector<std::pair<std::string, std::function<void(proto::PrefAdvert&)>>>
      cases = {
          {"preference list shape mismatch",
           [](proto::PrefAdvert& a) {  // last row one class short
             a.classes.pop_back();
             --a.row_begin.back();
           }},
          {"preference list shape mismatch",
           [](proto::PrefAdvert& a) {  // first row one class long
             a.classes.insert(a.classes.begin() + a.row_begin[1], 0);
             for (std::size_t r = 1; r < a.row_begin.size(); ++r) ++a.row_begin[r];
           }},
          {"preference list shape mismatch",
           [](proto::PrefAdvert& a) {  // last row missing
             a.flow_ids.pop_back();
             a.row_begin.pop_back();
             a.classes.resize(a.row_begin.back());
           }},
          {"preference class out of agreed range",
           [range](proto::PrefAdvert& a) { a.classes.back() = range + 1; }},
      };
  for (const auto& [error, tamper] : cases) {
    SessionFixture fx;
    auto cfg = wire_config();
    core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
    auto [ca, cb] = make_in_memory_channel_pair();
    AdvertTamperingChannel bad_a(std::move(ca), tamper);
    NegotiationAgent agent_a(fx.problem, oa, bad_a, AgentConfig{0, 1, cfg});
    NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
    run_session(agent_a, agent_b, 1000);
    EXPECT_TRUE(agent_b.failed()) << error;
    EXPECT_EQ(agent_b.error(), error);
  }
}

// A class of 2^32 + 1 keeps only its low word, 1, when read into 32 bits:
// inside the agreed range, so only the decoder can refuse it.
TEST(AgentSession, PrefAdvertClassOverflowFailsTheSession) {
  SessionFixture fx;
  auto cfg = wire_config();
  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  auto [ca, cb] = make_in_memory_channel_pair();
  AdvertTamperingChannel bad_a(
      std::move(ca), [](proto::PrefAdvert& a) { a.classes.back() = 1; },
      [](proto::Bytes& payload) {
        ASSERT_EQ(payload.back(), 0x02);  // zig-zag 1, the advert's last byte
        payload.pop_back();
        proto::Writer w;
        w.put_signed((std::int64_t{1} << 32) + 1);
        payload.insert(payload.end(), w.data().begin(), w.data().end());
      });
  NegotiationAgent agent_a(fx.problem, oa, bad_a, AgentConfig{0, 1, cfg});
  NegotiationAgent agent_b(fx.problem, ob, *cb, AgentConfig{1, 2, cfg});
  run_session(agent_a, agent_b, 1000);
  EXPECT_TRUE(agent_b.failed());
  EXPECT_TRUE(agent_b.error().starts_with("decode error")) << agent_b.error();
}

TEST(AgentSession, RejectsUnsupportedConfig) {
  SessionFixture fx;
  core::DistanceOracle oa(0, core::PreferenceConfig{});
  auto [ca, cb] = make_in_memory_channel_pair();
  auto cfg = wire_config();
  cfg.tie_break = core::TieBreak::kRandom;
  EXPECT_THROW(NegotiationAgent(fx.problem, oa, *ca, AgentConfig{0, 1, cfg}),
               std::invalid_argument);
  cfg = wire_config();
  cfg.termination = core::TerminationPolicy::kFull;
  EXPECT_THROW(NegotiationAgent(fx.problem, oa, *ca, AgentConfig{0, 1, cfg}),
               std::invalid_argument);
  cfg = wire_config();
  cfg.turn = core::TurnPolicy::kCoinToss;
  EXPECT_THROW(NegotiationAgent(fx.problem, oa, *ca, AgentConfig{0, 1, cfg}),
               std::invalid_argument);
}

}  // namespace
}  // namespace nexit::agent
