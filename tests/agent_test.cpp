#include <gtest/gtest.h>

#include <functional>
#include <map>
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
// reassignments. The grid reaches every stop reason a wire session can end
// with, and settlements that roll flows back.
TEST(AgentSession, MatchesEngineAcrossThePolicyGrid) {
  const auto worlds = distance_worlds(30);
  std::size_t sessions = 0, mismatches = 0, rolled_back = 0;
  std::map<core::StopReason, std::size_t> stops;
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
      ++stops[expected.stop_reason];
      if (expected.flows_rolled_back > 0) ++rolled_back;
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
  using core::StopReason;
  for (auto reason : {StopReason::kExhausted, StopReason::kEarlyStopA,
                      StopReason::kEarlyStopB, StopReason::kNoProposal})
    EXPECT_GT(stops[reason], 0u) << core::to_string(reason);
  EXPECT_GT(rolled_back, 0u);
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

/// Honest distance oracle that asks for reassignment quanta.
class ReassigningOracle : public core::DistanceOracle {
 public:
  using core::DistanceOracle::DistanceOracle;
  [[nodiscard]] bool wants_reassignment() const override { return true; }
};

/// Reassigning oracle whose incremental path lies: every incremental
/// evaluation shifts one true value, which a full recompute does not.
class DivergingOracle : public ReassigningOracle {
 public:
  using ReassigningOracle::ReassigningOracle;
  core::Evaluation evaluate_incremental(
      const core::OracleContext& ctx,
      const core::EvaluationDelta& delta) override {
    core::Evaluation e = core::DistanceOracle::evaluate_incremental(ctx, delta);
    if (!e.true_value.values().empty()) e.true_value[0][0] += 1.0;
    return e;
  }
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
  // and the result must still match the engine. With a distance oracle on
  // B, only A re-evaluates at a quantum, in the engine as on the wire.
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

  for (const bool distance_b : {false, true}) {
    SCOPED_TRACE(distance_b ? "A bandwidth, B distance" : "both bandwidth");
    const auto oracle_b = [&]() -> std::unique_ptr<core::PreferenceOracle> {
      if (distance_b)
        return std::make_unique<core::DistanceOracle>(1, cfg.preferences);
      return std::make_unique<core::BandwidthOracle>(1, cfg.preferences, caps);
    };
    core::BandwidthOracle ea(0, cfg.preferences, caps);
    const auto eb = oracle_b();
    const auto expected = core::NegotiationEngine(problem, ea, *eb, cfg).run();

    core::BandwidthOracle oa(0, cfg.preferences, caps);
    const auto ob = oracle_b();
    const auto [a, b] = wire_session(problem, oa, *ob, cfg);
    EXPECT_GT(expected.reassignments, 0u);
    EXPECT_EQ(a.assignment.ix_of_flow, expected.assignment.ix_of_flow);
    EXPECT_EQ(a.reassignments, expected.reassignments);
    EXPECT_EQ(a.true_gain_a, expected.true_gain_a);
    EXPECT_EQ(b.true_gain_b, expected.true_gain_b);
    EXPECT_EQ(a.evaluate_calls_incremental + b.evaluate_calls_incremental,
              expected.evaluate_calls_incremental);
  }
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

/// What a TamperingChannel does to each outgoing message: it gets the
/// decoded message as a one-element list, which it may edit, replace,
/// extend or empty; every message left goes out, one frame each.
using Rewrite = std::function<void(std::vector<proto::Message>&)>;

/// A hostile peer's channel: passes every frame it sends through `rewrite`,
/// then hands each re-encoded frame to `patch` before it goes out.
class TamperingChannel : public Channel {
 public:
  TamperingChannel(std::unique_ptr<Channel> inner, Rewrite rewrite,
                   std::function<void(proto::Frame&)> patch = {})
      : inner_(std::move(inner)),
        rewrite_(std::move(rewrite)),
        patch_(std::move(patch)) {}

  void send(const proto::Bytes& data) override {
    proto::FrameDecoder decoder;
    decoder.feed(data);
    const std::optional<proto::Frame> frame = decoder.next();
    if (!frame) return inner_->send(data);
    const util::Result<proto::Message> m = proto::decode_message(*frame);
    if (!m.ok()) return inner_->send(data);
    std::vector<proto::Message> out{m.value()};
    rewrite_(out);
    for (const proto::Message& message : out) {
      proto::Frame f = proto::encode_message(message);
      if (patch_) patch_(f);
      inner_->send(proto::encode_frame(f));
    }
  }
  proto::Bytes receive() override { return inner_->receive(); }
  [[nodiscard]] bool readable() const override { return inner_->readable(); }
  [[nodiscard]] bool closed() const override { return inner_->closed(); }
  void close() override { inner_->close(); }

 private:
  std::unique_ptr<Channel> inner_;
  Rewrite rewrite_;
  std::function<void(proto::Frame&)> patch_;
};

/// Applies `tamper` to every PREF_ADVERT.
Rewrite adverts(std::function<void(proto::PrefAdvert&)> tamper) {
  return [tamper](std::vector<proto::Message>& out) {
    if (auto* advert = std::get_if<proto::PrefAdvert>(&out.front()))
      tamper(*advert);
  };
}

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
    TamperingChannel bad_a(std::move(ca), adverts(tamper));
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
  TamperingChannel bad_a(
      std::move(ca),
      adverts([](proto::PrefAdvert& a) { a.classes.back() = 1; }),
      [](proto::Frame& f) {
        const auto advert = proto::MessageType::kPrefAdvert;
        if (f.type != static_cast<std::uint8_t>(advert)) return;
        proto::Bytes& payload = f.payload;
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

/// Rewrites, with `edit`, the `n`th (from 0) message of type T the channel
/// sends.
template <class T>
Rewrite nth(std::size_t n, Rewrite edit) {
  return [n, edit, seen = std::size_t{0}](
             std::vector<proto::Message>& out) mutable {
    if (std::holds_alternative<T>(out.front()) && seen++ == n) edit(out);
  };
}
/// Sends `m` in place of the `n`th message of type T.
template <class T>
Rewrite replace(std::size_t n, proto::Message m) {
  return nth<T>(n, [m](std::vector<proto::Message>& out) { out = {m}; });
}
/// Sends `m` right after the `n`th message of type T.
template <class T>
Rewrite append(std::size_t n, proto::Message m) {
  return nth<T>(n, [m](std::vector<proto::Message>& out) { out.push_back(m); });
}

/// One message a hostile peer sends against the §4/§6 turn rules, and the
/// error the honest receiver must fail the session with.
struct HostileCase {
  std::string error;
  int hostile = 0;  // the side whose channel rewrites; the other receives
  Rewrite rewrite;
  bool settlement_rollback = true;
  bool reassign = false;  // quanta at 1% of the volume
  core::TerminationPolicy termination = core::TerminationPolicy::kEarly;
};

// Every refusal of the agent's turn rules, one rewritten message each, on a
// session that reaches all of them. Honestly it runs (seq, flow,
// interconnection):
//   A PROPOSE(0, 75, 1), B RESPONSE(0), B PROPOSE(1, 76, 1), A RESPONSE(1),
//   ... eight accepted rounds, then A STOP(early-stop-a),
//   A ROLLBACK(), B ROLLBACK(52), A ROLLBACK(20), B ROLLBACK(51),
//   A ROLLBACK(18), B ROLLBACK(76 75 84 83), A ROLLBACK(), B BYE;
// without settlement, A STOP then B BYE.
TEST(AgentSession, RefusesMessagesAgainstTheTurnRules) {
  using proto::Message;
  using proto::Propose;
  using proto::Response;
  using proto::Rollback;
  const auto worlds = distance_worlds(4);
  const core::NegotiationProblem& problem = worlds[3]->problem;
  const auto propose = [](auto edit) {
    return nth<Propose>(0, [edit](std::vector<Message>& out) {
      edit(std::get<Propose>(out.front()));
    });
  };
  proto::PrefAdvert reassignment_advert;
  reassignment_advert.reassignment = true;
  const auto stop = [](core::StopReason r) {
    return proto::Stop{static_cast<std::uint8_t>(r)};
  };
  const std::vector<HostileCase> cases = {
      {"PROPOSE in state await-response", 1,
       replace<Response>(0, Propose{0, 75, 1})},
      {"PROPOSE out of turn", 0, append<Propose>(0, Propose{1, 76, 1})},
      {"PROPOSE with bad sequence number", 0,
       propose([](Propose& p) { p.seq = 5; })},
      {"PROPOSE references unknown flow/interconnection", 0,
       propose([](Propose& p) { p.flow_id = 999999; })},
      {"PROPOSE references unknown flow/interconnection", 0,
       propose([](Propose& p) { p.interconnection_id = 999; })},
      {"PROPOSE for a negotiated flow or vetoed alternative", 0,
       [first = std::optional<Propose>{}](std::vector<Message>& out) mutable {
         auto* p = std::get_if<Propose>(&out.front());
         if (p == nullptr) return;
         if (!first) {
           first = *p;
         } else {  // A's second proposal repeats its first, settled in round 0
           p->flow_id = first->flow_id;
           p->interconnection_id = first->interconnection_id;
         }
       }},
      {"PROPOSE before reassignment", 0,
       replace<proto::PrefAdvert>(1, Propose{}), true, true},
      {"RESPONSE in state negotiating", 1,
       append<Response>(0, Response{0, true})},
      {"RESPONSE with bad sequence number", 1,
       nth<Response>(0, [](std::vector<Message>& out) {
         std::get<Response>(out.front()).seq = 9;
       })},
      {"STOP in state await-response", 0,
       replace<Response>(0, stop(core::StopReason::kEarlyStopA))},
      {"STOP out of turn", 0,
       append<Propose>(0, stop(core::StopReason::kExhausted))},
      {"STOP out of turn", 0,
       replace<Propose>(0, stop(core::StopReason::kEarlyStopB))},
      {"ROLLBACK outside settlement", 0, replace<Propose>(0, Rollback{})},
      {"ROLLBACK references unknown flow", 0,
       replace<Rollback>(0, Rollback{{999999}})},
      {"ROLLBACK for flow that never moved", 1,  // B rolls 52 back twice
       nth<Rollback>(0, [](std::vector<Message>& out) {
         auto& ids = std::get<Rollback>(out.front()).flow_ids;
         ASSERT_FALSE(ids.empty());
         ids.push_back(ids.front());
       })},
      {"unexpected BYE", 0, replace<Propose>(0, proto::Bye{})},
      {"unexpected PREF_ADVERT", 0, replace<Propose>(0, reassignment_advert)},
      // A STOP must be what the peer's own take_turn could return.
      {"decode error: unknown STOP reason 200", 0,
       replace<Propose>(0, proto::Stop{200})},
      {"STOP out of turn", 0,
       append<Propose>(0, stop(core::StopReason::kEarlyStopA))},
      {"STOP before reassignment", 0,
       replace<proto::PrefAdvert>(1, stop(core::StopReason::kEarlyStopA)),
       true, true},
      {"STOP for full termination, unsupported on the wire", 0,
       replace<Propose>(0, stop(core::StopReason::kGainWouldGoNegative))},
      {"STOP exhausted while flows remain", 0,
       replace<Propose>(0, stop(core::StopReason::kExhausted))},
      {"STOP early-stop-a with every flow negotiated", 0,  // A's last turn
       replace<proto::Stop>(0, stop(core::StopReason::kEarlyStopA)), true,
       false, core::TerminationPolicy::kNegotiateAll},
      {"STOP no-proposal while a pair is proposable", 0,
       replace<Propose>(0, stop(core::StopReason::kNoProposal))},
      // §6: no ROLLBACK without settlement, and a BYE only right after this
      // side's own turn rolled nothing back.
      {"ROLLBACK outside settlement", 1, replace<proto::Bye>(0, Rollback{}),
       false},
      {"unexpected BYE", 0, replace<Rollback>(0, proto::Bye{})},
      {"unexpected BYE", 0, replace<Rollback>(1, proto::Bye{})},
  };
  for (const HostileCase& c : cases) {
    auto cfg = wire_config();
    cfg.settlement_rollback = c.settlement_rollback;
    cfg.termination = c.termination;
    if (c.reassign) cfg.reassign_traffic_fraction = 0.01;
    ReassigningOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
    auto [ca, cb] = make_in_memory_channel_pair();
    TamperingChannel bad(std::move(c.hostile == 0 ? ca : cb), c.rewrite);
    NegotiationAgent a(problem, oa, c.hostile == 0 ? bad : *ca,
                       AgentConfig{0, 1, cfg});
    NegotiationAgent b(problem, ob, c.hostile == 1 ? bad : *cb,
                       AgentConfig{1, 2, cfg});
    run_session(a, b, 1000);
    const NegotiationAgent& receiver = c.hostile == 0 ? b : a;
    EXPECT_TRUE(receiver.failed()) << c.error;
    EXPECT_EQ(receiver.error(), c.error);
  }

  // The honest session the cases rewrite.
  auto cfg = wire_config();
  core::DistanceOracle oa(0, cfg.preferences), ob(1, cfg.preferences);
  const auto [a, b] = wire_session(problem, oa, ob, cfg);
  EXPECT_EQ(a.rounds, 8u);
  EXPECT_EQ(a.stop_reason, core::StopReason::kEarlyStopA);
  EXPECT_GT(a.flows_rolled_back, 0u);
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
