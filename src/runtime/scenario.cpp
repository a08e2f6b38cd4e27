#include "runtime/scenario.hpp"

#include <algorithm>
#include <map>
#include <stdexcept>
#include <utility>

#include "core/oracles.hpp"
#include "dist/tcp_channel.hpp"
#include "obs/registry.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

namespace nexit::runtime {

namespace {

/// Deterministic per-attempt sub-seed (splitmix-style odd multiplier).
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t k) {
  return seed ^ (0x9e3779b97f4a7c15ull * (k + 1));
}

ChannelFactory make_channel_factory(Transport transport, FaultConfig faults,
                                    std::uint64_t seed) {
  return [transport, faults,
          seed](int attempt) -> std::pair<std::unique_ptr<agent::Channel>,
                                          std::unique_ptr<agent::Channel>> {
    auto pair = transport == Transport::kSocketPair
                    ? agent::make_socket_channel_pair()
                : transport == Transport::kTcpPair
                    ? dist::make_tcp_channel_pair()
                    : agent::make_in_memory_channel_pair();
    if (faults.drop <= 0.0 && faults.corrupt <= 0.0) return pair;
    const auto a = static_cast<std::uint64_t>(attempt) * 2;
    return {std::make_unique<agent::FaultyChannel>(
                std::move(pair.first), faults.drop, faults.corrupt,
                mix_seed(seed, a)),
            std::make_unique<agent::FaultyChannel>(
                std::move(pair.second), faults.drop, faults.corrupt,
                mix_seed(seed, a + 1))};
  };
}

traffic::TrafficMatrix build_traffic(const topology::IspPair& pair,
                                     ScenarioTraffic shape, util::Rng& rng) {
  if (shape == ScenarioTraffic::kGravityAtoB) {
    return traffic::TrafficMatrix::build(pair, traffic::Direction::kAtoB,
                                         traffic::TrafficConfig{}, rng);
  }
  traffic::TrafficConfig tcfg;
  tcfg.model = shape == ScenarioTraffic::kBidirectionalUniformRandom
                   ? traffic::WorkloadModel::kUniformRandom
                   : traffic::WorkloadModel::kIdentical;
  return traffic::TrafficMatrix::build_bidirectional(pair, tcfg, rng);
}

std::vector<std::size_t> all_interconnections(const topology::IspPair& pair) {
  std::vector<std::size_t> ix(pair.interconnection_count());
  for (std::size_t i = 0; i < ix.size(); ++i) ix[i] = i;
  return ix;
}

/// A distance-negotiation world over fresh traffic: all interconnections on
/// the table, distance oracles on both sides. Shared by the initial sessions
/// and flow-churn renegotiations so the two can never drift apart.
std::unique_ptr<SessionWorld> make_distance_world(
    const PairWorld* base, ScenarioTraffic shape,
    const core::PreferenceConfig& prefs, util::Rng& traffic_rng) {
  auto world = std::make_unique<SessionWorld>(
      base, build_traffic(base->pair, shape, traffic_rng));
  world->problem = core::make_distance_problem(
      *base->routing, world->traffic.flows(), all_interconnections(base->pair));
  world->oracle_a = std::make_unique<core::DistanceOracle>(0, prefs);
  world->oracle_b = std::make_unique<core::DistanceOracle>(1, prefs);
  return world;
}

}  // namespace

std::string timeline_error(const std::vector<ScenarioEvent>& events,
                           const std::vector<std::uint32_t>& fault_targets,
                           Transport transport, std::size_t sessions) {
  const std::string declared =
      ", but only " + std::to_string(sessions) + " sessions are declared";
  bool any_kill = false;
  for (const ScenarioEvent& ev : events) {
    if (sessions > 0 && ev.session >= sessions)
      return "runtime.events: the event at tick " + std::to_string(ev.at) +
             " targets session " + std::to_string(ev.session) + declared;
    any_kill = any_kill || ev.kind == EventKind::kKill ||
               ev.kind == EventKind::kResume;
  }
  for (std::uint32_t target : fault_targets) {
    if (sessions > 0 && target >= sessions)
      return "runtime.fault-targets: session " + std::to_string(target) +
             " will not exist" + declared;
  }
  if (!any_kill) return "";
  if (transport != Transport::kInMemory)
    return "runtime.events: kill/resume events require "
           "runtime.transport=memory (kernel socket buffers are not part of "
           "the durable state)";
  std::vector<std::size_t> order(events.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return events[a].at < events[b].at; });
  std::map<std::uint32_t, bool> down;
  for (std::size_t i : order) {
    const ScenarioEvent& ev = events[i];
    const std::string at = std::to_string(ev.at);
    const std::string session = std::to_string(ev.session);
    if (ev.kind == EventKind::kKill && std::exchange(down[ev.session], true))
      return "runtime.events: the kill at tick " + at + " kills session " +
             session + " twice without a resume in between";
    if (ev.kind == EventKind::kResume &&
        !std::exchange(down[ev.session], false))
      return "runtime.events: the resume at tick " + at + " resumes session " +
             session + ", which no earlier kill took down";
  }
  return "";
}

Scenario::Scenario(ScenarioConfig config)
    : config_(std::move(config)), manager_(config_.runtime) {
  // Wire agents reach identical decisions without a shared RNG only under
  // deterministic tie-breaks; force the contractual setting.
  config_.negotiation.tie_break = core::TieBreak::kDeterministic;

  const std::vector<topology::IspPair> pairs =
      sim::build_pair_universe(config_.universe, config_.min_links);
  if (pairs.empty())
    throw std::runtime_error(
        "Scenario: universe produced no pair with enough interconnections");
  for (const topology::IspPair& p : pairs) {
    auto pw = std::make_unique<PairWorld>(PairWorld{p, nullptr});
    pw->routing = std::make_unique<routing::PairRouting>(pw->pair);
    pair_worlds_.push_back(std::move(pw));
  }

  initial_count_ =
      config_.session_count == 0 ? pairs.size() : config_.session_count;
  const std::string broken =
      timeline_error(config_.events, config_.fault_targets, config_.transport,
                     initial_count_);
  if (!broken.empty()) throw std::invalid_argument("Scenario: " + broken);
  bool any_kill = false;
  for (const ScenarioEvent& ev : config_.events) {
    any_kill = any_kill || ev.kind == EventKind::kKill ||
               ev.kind == EventKind::kResume;
    if (ev.kind == EventKind::kLinkFailure && ev.param != kBusiestIx) {
      // The session->pair mapping is fixed here, so fail the mis-declared
      // timeline now instead of aborting mid-run from the event callback.
      const topology::IspPair& pair =
          pair_worlds_[ev.session % pair_worlds_.size()]->pair;
      if (ev.param >= pair.interconnection_count())
        throw std::invalid_argument(
            "Scenario: link-failure index out of range for the pair");
    }
  }
  if (any_kill || config_.durability.journal ||
      !config_.durability.dir.empty())
    store_ = std::make_unique<SnapshotStore>(config_.durability.dir);

  // Pre-forked per-session randomness, in session order (stream 0 traffic,
  // stream 1 fault seeds) — the PR 1 determinism scheme.
  util::Rng rng(config_.seed);
  std::vector<std::vector<util::Rng>> streams =
      util::fork_streams(rng, initial_count_, 2);

  for (std::size_t i = 0; i < initial_count_; ++i) {
    const PairWorld* base = pair_worlds_[i % pair_worlds_.size()].get();
    util::Rng traffic_rng = streams[i][0];
    auto world = make_distance_world(base, config_.traffic,
                                     config_.negotiation.preferences,
                                     traffic_rng);

    Tick start_at = static_cast<Tick>(i) * config_.start_stagger;
    for (const ScenarioEvent& ev : config_.events) {
      if (ev.kind == EventKind::kStart && ev.session == i) start_at = ev.at;
    }
    const bool faulted =
        config_.fault_targets.empty() ||
        std::find(config_.fault_targets.begin(), config_.fault_targets.end(),
                  static_cast<std::uint32_t>(i)) != config_.fault_targets.end();
    spawn(std::move(world), SessionKind::kInitial, -1, start_at,
          streams[i][1].next_u64(), faulted);
  }

  for (const ScenarioEvent& ev : config_.events) {
    switch (ev.kind) {
      case EventKind::kStart:
        break;  // consumed above
      case EventKind::kPeerRestart:
        manager_.at(ev.at, [this, ev](Tick now) {
          manager_.session(ev.session).restart(now);
        });
        break;
      case EventKind::kFlowChurn:
        manager_.at(ev.at, [this, ev](Tick now) {
          on_flow_churn(now, ev.session, ev.param);
        });
        break;
      case EventKind::kLinkFailure:
        manager_.at(ev.at, [this, ev](Tick now) {
          on_link_failure(now, ev.session, ev.param);
        });
        break;
      case EventKind::kKill:
        manager_.at(ev.at,
                    [this, ev](Tick now) { on_kill(now, ev.session); });
        break;
      case EventKind::kResume:
        manager_.at(ev.at,
                    [this, ev](Tick now) { on_resume(now, ev.session); });
        break;
    }
  }
}

std::uint32_t Scenario::spawn(std::unique_ptr<SessionWorld> world,
                              SessionKind kind, std::int64_t parent,
                              Tick start_at, std::uint64_t fault_seed,
                              bool with_faults) {
  const auto id = static_cast<std::uint32_t>(worlds_.size());
  auto session = std::make_unique<Session>(
      id, world->problem, *world->oracle_a, *world->oracle_b,
      config_.negotiation,
      make_channel_factory(config_.transport,
                           with_faults ? config_.faults : FaultConfig{},
                           fault_seed),
      config_.limits);
  if (store_ != nullptr) session->attach_journal(&store_->journal(id));
  worlds_.push_back(std::move(world));
  meta_.push_back(Meta{kind, parent});
  scheduled_start_.push_back(start_at);
  const std::uint32_t got = manager_.add(std::move(session), start_at);
  if (got != id) throw std::logic_error("Scenario: session id drift");
  return id;
}

void Scenario::on_kill(Tick now, std::uint32_t target) {
  Session& s = manager_.session(target);
  if (s.terminal()) return;  // finished before the crash landed
  s.kill(now);
  manager_.notice(target);  // unwatch the torn-down channels immediately
}

void Scenario::on_resume(Tick now, std::uint32_t target) {
  Session& s = manager_.session(target);
  if (s.status() != SessionStatus::kKilled) return;
  std::string why;
  switch (s.resume(now, scheduled_start_[target], &why)) {
    case RestoreOutcome::kResumed:
      manager_.notice(target);  // re-watch channels, re-arm the deadline
      break;
    case RestoreOutcome::kFreshPending:
      // Killed before anything durable existed: an ordinary (re)start,
      // aligned with the originally scheduled tick. When that tick has
      // already passed, start inline — a timer scheduled for the current
      // tick from inside this callback would only fire after the next pump
      // round, one tick later than the uninterrupted run.
      if (now >= scheduled_start_[target]) {
        s.start(now);
        manager_.notice(target);
      } else {
        manager_.schedule_start(target, scheduled_start_[target]);
      }
      break;
    case RestoreOutcome::kFellBack:
      // Corrupt durable state: count it and renegotiate from scratch —
      // the restore path never resumes wrong data.
      obs::Registry::global().add("runtime.restore_failures", 1);
      manager_.schedule_start(target, now);
      break;
  }
}

void Scenario::on_flow_churn(Tick now, std::uint32_t target,
                             std::uint64_t reseed) {
  manager_.session(target).cancel(now, "flow churn: traffic matrix replaced");
  const PairWorld* base = worlds_[target]->base;
  util::Rng traffic_rng(reseed);
  auto world = make_distance_world(base, config_.traffic,
                                   config_.negotiation.preferences,
                                   traffic_rng);
  spawn(std::move(world), SessionKind::kChurnRenegotiation, target, now,
        /*fault_seed=*/reseed, /*with_faults=*/false);
}

void Scenario::on_link_failure(Tick now, std::uint32_t target,
                               std::uint64_t which) {
  manager_.session(target).cancel(now, "link failure: renegotiating survivors");
  const SessionWorld& parent = *worlds_[target];
  const PairWorld* base = parent.base;
  const routing::PairRouting& routing = *base->routing;

  // The §5.2 recipe, exactly as examples/failure_negotiation.cpp: pre-failure
  // early-exit routing over all interconnections, capacities proportional to
  // the pre-failure loads, then the affected flows renegotiate over the
  // survivors with bandwidth oracles.
  // Same flows as the parent session, copied so the new problem has its own
  // pinned storage.
  auto world = std::make_unique<SessionWorld>(base, parent.traffic);
  const std::vector<std::size_t> all_ix = all_interconnections(base->pair);
  const routing::Assignment pre_failure =
      routing::assign_early_exit(routing, world->traffic.flows(), all_ix);
  const routing::LoadMap baseline =
      routing::compute_loads(routing, world->traffic.flows(), pre_failure);
  world->capacities =
      capacity::assign_capacities(baseline, capacity::CapacityConfig{});

  std::size_t failed = static_cast<std::size_t>(which);
  if (which == kBusiestIx) {
    std::vector<std::size_t> usage(base->pair.interconnection_count(), 0);
    for (std::size_t ix : pre_failure.ix_of_flow) ++usage[ix];
    failed = 0;
    for (std::size_t i = 1; i < usage.size(); ++i)
      if (usage[i] > usage[failed]) failed = i;
  }
  if (failed >= base->pair.interconnection_count())
    throw std::invalid_argument("Scenario: link-failure index out of range");
  world->failed_ix = failed;

  world->problem =
      core::make_failure_problem(routing, world->traffic.flows(), failed);
  world->oracle_a = std::make_unique<core::BandwidthOracle>(
      0, config_.negotiation.preferences, world->capacities);
  world->oracle_b = std::make_unique<core::BandwidthOracle>(
      1, config_.negotiation.preferences, world->capacities);
  spawn(std::move(world), SessionKind::kFailureRenegotiation, target, now,
        /*fault_seed=*/which, /*with_faults=*/false);
}

ScenarioReport Scenario::run() {
  if (ran_) throw std::logic_error("Scenario::run: already ran");
  ran_ = true;

  ScenarioReport report;
  report.stats = manager_.run();
  report.sessions.reserve(manager_.size());
  for (std::uint32_t id = 0; id < manager_.size(); ++id) {
    const Session& s = manager_.session(id);
    ScenarioSessionResult r;
    r.id = id;
    r.kind = meta_[id].kind;
    r.parent = meta_[id].parent;
    r.pair_label = worlds_[id]->base->pair.label();
    r.status = s.status();
    if (s.status() == SessionStatus::kDone) r.outcome = s.outcome();
    r.error = s.error();
    r.attempts = s.attempts();
    r.retries = s.retries();
    r.steps = s.steps();
    r.messages = s.messages_sent();
    r.timeouts = s.timeouts();
    r.started_at = s.started_at();
    r.finished_at = s.finished_at();
    report.sessions.push_back(std::move(r));
  }

  // Registry bumps run here, serially after the manager joined its workers,
  // rather than inside the concurrent session machinery: the values derive
  // from the id-ordered report, so they are trivially thread-stable.
  obs::Registry& reg = obs::Registry::global();
  reg.add("runtime.sessions", report.sessions.size());
  for (const ScenarioSessionResult& r : report.sessions) {
    switch (r.status) {
      case SessionStatus::kDone: reg.add("runtime.sessions_done", 1); break;
      case SessionStatus::kFailed: reg.add("runtime.sessions_failed", 1); break;
      case SessionStatus::kCancelled:
        reg.add("runtime.sessions_cancelled", 1);
        break;
      case SessionStatus::kKilled:
        // Never resumed: only possible in a timeline that kills without
        // resuming, so bumping here cannot perturb the resumed-vs-
        // uninterrupted obs equality contract.
        reg.add("runtime.sessions_killed", 1);
        break;
      default: break;
    }
    reg.add("runtime.messages", r.messages);
    reg.add("runtime.steps", r.steps);
    reg.add("runtime.retries", static_cast<std::uint64_t>(r.retries));
    reg.add("runtime.timeouts", r.timeouts);
    if (r.status == SessionStatus::kDone)
      reg.add("runtime.rounds", r.outcome.rounds);
    reg.observe("runtime.steps_per_session", r.steps);
  }

  return report;
}

ScenarioReport run_scenario(ScenarioConfig config) {
  Scenario scenario(std::move(config));
  return scenario.run();
}

std::uint64_t outcome_digest(const ScenarioReport& report) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&h](std::uint64_t v) { h = util::fnv1a_mix(h, v); };
  for (const auto& s : report.sessions) {
    mix(static_cast<std::uint64_t>(s.status));
    mix(s.messages);
    if (s.status == SessionStatus::kDone) {
      mix(s.outcome.rounds);
      for (std::size_t ix : s.outcome.assignment.ix_of_flow)
        mix(static_cast<std::uint64_t>(ix));
    }
  }
  return h;
}

}  // namespace nexit::runtime
