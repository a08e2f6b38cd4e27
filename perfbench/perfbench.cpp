// Single-process performance benchmark for the paper's §5 engines and the
// journaled negotiation runtime. See README.md in this directory for the
// workloads, the metric definitions and the layer-to-end-to-end map.
//
//   nexit_perfbench --workload=engine_distance --seed=1 --seconds=10 --trace=0
//   nexit_perfbench --probe
//
// Every run builds its inputs from --seed, runs one unmeasured reference
// pass, then repeats fixed-work passes until --seconds have elapsed. Each
// call into a library layer is timed from outside with steady_clock; with
// --trace=1 the obs phase timers are armed on every other pass as well, and
// the layer metrics come from those traced passes. Every pass is checked
// (outcome digest, §6 no-loss, session completion, restore health); a
// failed check is a failed operation and makes the process exit 1.
//
// The last stdout line is one JSON object: correct, attempted, failed and
// metrics. The line before it ("diagnostics") carries the outcome digest,
// the sample and pass counts, and everything else that is not a metric.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "capacity/capacity.hpp"
#include "core/engine.hpp"
#include "core/oracle_registry.hpp"
#include "core/problem.hpp"
#include "metrics/metrics.hpp"
#include "obs/registry.hpp"
#include "opt/min_max_load.hpp"
#include "proto/frame.hpp"
#include "proto/snapshot_messages.hpp"
#include "routing/loads.hpp"
#include "routing/pair_routing.hpp"
#include "runtime/scenario.hpp"
#include "runtime/session.hpp"
#include "sim/pair_universe.hpp"
#include "traffic/traffic.hpp"
#include "util/digest.hpp"
#include "util/rng.hpp"

using namespace nexit;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// The median of the faster half of `v`. Host contention (a neighbour on
/// the same physical core, see README.md) only ever slows a measurement
/// down, so the faster half is the part of a run that measured the program
/// rather than the neighbour.
double quiet_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  v.resize((v.size() + 1) / 2);
  return median(v);
}

/// Nearest-rank quantile: the smallest sample with at least q of the
/// samples at or below it.
double nearest_rank(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

// ---------------------------------------------------------------------------
// The fixed world every workload shares: the paper's 65-ISP universe with
// 6-20 PoPs per ISP. It does not depend on --seed (see README.md, "Seeds").

constexpr std::uint64_t kUniverseSeed = 42;
constexpr std::size_t kMaxFailuresPerPair = 4;
constexpr std::size_t kRuntimeSessions = 128;
// One pump thread: at two, every scheduling round waits for the slower of
// two vCPUs, and this host slows its vCPUs one at a time (README.md).
constexpr std::size_t kRuntimeThreads = 1;
constexpr runtime::Tick kRuntimeStagger = 2;
constexpr std::size_t kRuntimeBurst = 1;
constexpr std::size_t kRuntimeKills = kRuntimeSessions / 4;
constexpr std::size_t kSetupRepeats = 3;
constexpr std::size_t kMinPasses = 3;
constexpr double kGainTolerance = 1e-6;

sim::UniverseConfig universe_config(std::size_t max_pairs) {
  sim::UniverseConfig u;
  u.isp_count = 65;
  u.seed = kUniverseSeed;
  u.max_pairs = max_pairs;
  u.generator.min_pops = 6;
  u.generator.max_pops = 20;
  return u;
}

/// The paper's negotiation defaults (§4/§5): preference range 10,
/// alternating turns, max-combined-gain proposals, protective acceptance,
/// early termination, random tie-break, §6 settlement rollback.
core::NegotiationConfig negotiation_config(double reassign) {
  core::NegotiationConfig c;
  c.reassign_traffic_fraction = reassign;
  c.verify_incremental_every = -1;  // no debug cross-check inside timing
  return c;
}

enum class Kind { kEngineDistance, kFailureBandwidth, kRuntimeJournaled };

struct WorkloadInfo {
  const char* name;
  Kind kind;
  std::uint64_t salt;  // separates the workloads' input streams
};

constexpr WorkloadInfo kWorkloads[] = {
    {"engine_distance", Kind::kEngineDistance, 0xd15ull},
    {"failure_bandwidth", Kind::kFailureBandwidth, 0xba5eull},
    {"runtime_journaled", Kind::kRuntimeJournaled, 0x5e55ull},
};

// ---------------------------------------------------------------------------
// Layer timing from outside: each library call is wrapped in timed(), which
// charges its wall time to one layer of the current pass.

enum Layer : std::size_t {
  kPairRouting,
  kTrafficBuild,
  kProblem,
  kAssign,
  kCapacity,
  kOracleBuild,
  kEngine,
  kLp,
  kMetrics,
  kScenarioBuild,
  kScenarioRun,
  kLayerCount,
};

struct Pass {
  bool traced = false;
  double wall_ms = 0.0;  // the throughput denominator (see run_*_pass)
  double loop_ms = 0.0;  // everything the pass did, checks included
  double cpu_ms = 0.0;
  std::array<double, kLayerCount> layer_ms{};
  std::vector<double> sample_ms;
  std::uint64_t digest = util::kFnvOffsetBasis;
  // Work counts; they repeat exactly for a given seed.
  std::size_t negotiations = 0;
  std::size_t rounds = 0;
  std::size_t accepted = 0;
  std::size_t rows_computed = 0;
  std::size_t rows_full_equivalent = 0;
  std::size_t lp_solves = 0;
  std::size_t failed = 0;  // negotiations that failed a check
  std::vector<std::string> errors;
  // Runtime-only.
  runtime::RuntimeStats stats;
  std::uint64_t wal_bytes = 0, wal_events = 0, checkpoints = 0;
  std::uint64_t restores = 0, restore_failures = 0;
  std::vector<obs::PhaseSnapshot> phases;

  void mix(std::uint64_t v) { digest = util::fnv1a_mix(digest, v); }
  void mix_double(double d) { mix(util::double_bits(d)); }
  void mix_assignment(const routing::Assignment& a) {
    mix(a.ix_of_flow.size());
    for (std::size_t ix : a.ix_of_flow) mix(ix);
  }
  void fail(std::string why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(std::move(why));
  }
  /// Folds one engine outcome into the digest and the work counts, and
  /// checks the §6 no-loss property on both sides' true gains. A runtime
  /// session's outcome is side A's view, whose gain for B is only B's
  /// disclosed estimate, so sessions check no-loss in km instead.
  void record_outcome(const core::NegotiationOutcome& out,
                      const std::string& label, bool check_true_gains = true) {
    ++negotiations;
    rounds += out.rounds;
    accepted += out.flows_negotiated;
    rows_computed += out.evaluate_rows_computed;
    rows_full_equivalent += out.evaluate_rows_full_equivalent;
    mix_assignment(out.assignment);
    mix(out.rounds);
    mix(out.flows_negotiated);
    mix(out.flows_rolled_back);
    mix_double(out.true_gain_a);
    mix_double(out.true_gain_b);
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(out.disclosed_gain_a)));
    mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(out.disclosed_gain_b)));
    if (check_true_gains && (out.true_gain_a < -kGainTolerance ||
                             out.true_gain_b < -kGainTolerance))
      fail(label + ": an ISP ends below its default (true gains " +
           std::to_string(out.true_gain_a) + ", " +
           std::to_string(out.true_gain_b) + ")");
  }
};

template <typename F>
void timed(Pass& pass, Layer layer, F&& call) {
  const Clock::time_point t0 = Clock::now();
  call();
  pass.layer_ms[layer] += ms_since(t0);
}

/// Own-network km of `side` must not grow: the §6 no-loss property in the
/// distance objective's own units.
bool side_km_no_loss(double default_km, double final_km) {
  return final_km <= default_km + kGainTolerance * std::max(1.0, default_km);
}

// ---------------------------------------------------------------------------
// engine_distance and failure_bandwidth

/// Everything --seed generates for the engine workloads: a traffic seed and
/// per-negotiation engine (tie-break) seeds for every universe pair.
struct EngineInputs {
  std::vector<std::uint64_t> traffic_seed;
  std::vector<std::array<std::uint64_t, kMaxFailuresPerPair>> engine_seed;
};

EngineInputs make_engine_inputs(std::size_t pairs, std::uint64_t seed,
                                std::uint64_t salt) {
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull ^ salt);
  EngineInputs in;
  for (std::size_t i = 0; i < pairs; ++i) {
    in.traffic_seed.push_back(rng.next_u64());
    std::array<std::uint64_t, kMaxFailuresPerPair> seeds{};
    for (std::uint64_t& s : seeds) s = rng.next_u64();
    in.engine_seed.push_back(seeds);
  }
  return in;
}

std::vector<std::size_t> all_interconnections(const topology::IspPair& pair) {
  std::vector<std::size_t> ix(pair.interconnection_count());
  for (std::size_t i = 0; i < ix.size(); ++i) ix[i] = i;
  return ix;
}

/// One Fig. 4 sample: routing, identical-size traffic both ways, the
/// distance problem, the min-km optimum, two distance oracles, the
/// negotiation, and the flow-km metrics.
void distance_sample(const topology::IspPair& pair, std::uint64_t traffic_seed,
                     std::uint64_t engine_seed, Pass& pass) {
  const Clock::time_point t0 = Clock::now();
  const std::vector<std::size_t> candidates = all_interconnections(pair);

  std::optional<routing::PairRouting> routing;
  timed(pass, kPairRouting, [&] { routing.emplace(pair); });
  std::optional<traffic::TrafficMatrix> tm;
  timed(pass, kTrafficBuild, [&] {
    traffic::TrafficConfig tcfg;
    tcfg.model = traffic::WorkloadModel::kIdentical;
    util::Rng rng(traffic_seed);
    tm.emplace(traffic::TrafficMatrix::build_bidirectional(pair, tcfg, rng));
  });
  const std::vector<traffic::Flow>& flows = tm->flows();
  core::NegotiationProblem problem;
  timed(pass, kProblem, [&] {
    problem = core::make_distance_problem(*routing, flows, candidates);
  });
  routing::Assignment optimal;
  timed(pass, kAssign, [&] {
    optimal = routing::assign_min_total_km(*routing, flows, candidates);
  });
  std::optional<core::BuiltOracle> oracle_a, oracle_b;
  const core::NegotiationConfig base = negotiation_config(0.05);
  timed(pass, kOracleBuild, [&] {
    const core::OracleRegistry& registry = core::OracleRegistry::global();
    oracle_a.emplace(registry.build({"distance", false}, {0, base.preferences, nullptr}));
    oracle_b.emplace(registry.build({"distance", false}, {1, base.preferences, nullptr}));
  });
  core::NegotiationOutcome out;
  timed(pass, kEngine, [&] {
    core::NegotiationConfig ncfg = base;
    ncfg.seed = engine_seed;
    core::NegotiationEngine engine(problem, oracle_a->get(), oracle_b->get(),
                                   ncfg);
    out = engine.run();
  });
  // [default, optimal, negotiated] x [total, side A, side B]
  double km[3][3] = {};
  timed(pass, kMetrics, [&] {
    const routing::Assignment* plans[3] = {&problem.default_assignment,
                                           &optimal, &out.assignment};
    for (int p = 0; p < 3; ++p) {
      km[p][0] = metrics::total_flow_km(*routing, flows, *plans[p]);
      for (int side = 0; side < 2; ++side)
        km[p][1 + side] = metrics::side_flow_km(*routing, flows, *plans[p], side);
    }
  });
  pass.sample_ms.push_back(ms_since(t0));

  pass.record_outcome(out, pair.label());
  for (const auto& row : km)
    for (double v : row) pass.mix_double(v);
  for (int side = 0; side < 2; ++side)
    if (!side_km_no_loss(km[0][1 + side], km[2][1 + side]))
      pass.fail(pair.label() + ": negotiated own-network km exceeds default");
}

/// The Fig. 7 samples of one pair: routing, gravity A->B traffic, the
/// pre-failure early-exit loads and capacities (pair set-up, outside every
/// sample), then per failed interconnection: the failure problem, the
/// optimal min-max-load LP, two bandwidth oracles (reassignment every 5% of
/// volume, incremental evaluation), the negotiation, and the MELs.
void bandwidth_pair(const topology::IspPair& pair, std::uint64_t traffic_seed,
                    const std::array<std::uint64_t, kMaxFailuresPerPair>& seeds,
                    Pass& pass) {
  const std::vector<std::size_t> all_ix = all_interconnections(pair);
  std::optional<routing::PairRouting> routing;
  timed(pass, kPairRouting, [&] { routing.emplace(pair); });
  std::optional<traffic::TrafficMatrix> tm;
  timed(pass, kTrafficBuild, [&] {
    util::Rng rng(traffic_seed);
    tm.emplace(traffic::TrafficMatrix::build(pair, traffic::Direction::kAtoB,
                                             traffic::TrafficConfig{}, rng));
  });
  const std::vector<traffic::Flow>& flows = tm->flows();
  routing::Assignment pre_failure;
  routing::LoadMap baseline;
  timed(pass, kAssign, [&] {
    pre_failure = routing::assign_early_exit(*routing, flows, all_ix);
    baseline = routing::compute_loads(*routing, flows, pre_failure);
  });
  routing::LoadMap caps;
  timed(pass, kCapacity, [&] {
    caps = capacity::assign_capacities(baseline, capacity::CapacityConfig{});
  });

  const core::NegotiationConfig base = negotiation_config(0.05);
  const std::size_t failures =
      std::min(kMaxFailuresPerPair, pair.interconnection_count());
  for (std::size_t failed = 0; failed < failures; ++failed) {
    const Clock::time_point t0 = Clock::now();
    core::NegotiationProblem problem;
    bool usable = true;
    timed(pass, kProblem, [&] {
      try {
        problem = core::make_failure_problem(*routing, flows, failed);
      } catch (const std::invalid_argument&) {
        usable = false;  // fewer than two survivors
      }
    });
    if (!usable || problem.negotiable.empty()) continue;  // not a sample
    std::vector<char> mask(flows.size(), 0);
    for (std::size_t idx : problem.negotiable) mask[idx] = 1;

    // [default, optimal, negotiated] x [side A, side B]
    double mel[3][2] = {};
    routing::LoadMap loads;
    timed(pass, kAssign, [&] {
      loads = routing::compute_loads(*routing, flows, problem.default_assignment);
    });
    timed(pass, kMetrics, [&] {
      for (int side = 0; side < 2; ++side)
        mel[0][side] = metrics::side_mel(loads, caps, side);
    });
    opt::MinMaxLoadResult lp;
    timed(pass, kLp, [&] {
      lp = opt::solve_min_max_load(*routing, flows, mask, pre_failure,
                                   problem.candidates, caps);
    });
    ++pass.lp_solves;
    if (lp.status != lp::SolveStatus::kOptimal) {
      pass.fail(pair.label() + ": optimal LP did not solve");
      continue;
    }
    timed(pass, kAssign, [&] {
      loads = routing::compute_loads_fractional(*routing, flows, lp.assignment);
    });
    timed(pass, kMetrics, [&] {
      for (int side = 0; side < 2; ++side)
        mel[1][side] = metrics::side_mel(loads, caps, side);
    });
    std::optional<core::BuiltOracle> oracle_a, oracle_b;
    timed(pass, kOracleBuild, [&] {
      const core::OracleRegistry& registry = core::OracleRegistry::global();
      oracle_a.emplace(registry.build({"bandwidth", false}, {0, base.preferences, &caps}));
      oracle_b.emplace(registry.build({"bandwidth", false}, {1, base.preferences, &caps}));
    });
    core::NegotiationOutcome out;
    timed(pass, kEngine, [&] {
      core::NegotiationConfig ncfg = base;
      ncfg.seed = seeds[failed];
      core::NegotiationEngine engine(problem, oracle_a->get(), oracle_b->get(),
                                     ncfg);
      out = engine.run();
    });
    timed(pass, kAssign, [&] {
      loads = routing::compute_loads(*routing, flows, out.assignment);
    });
    timed(pass, kMetrics, [&] {
      for (int side = 0; side < 2; ++side)
        mel[2][side] = metrics::side_mel(loads, caps, side);
    });
    pass.sample_ms.push_back(ms_since(t0));

    pass.record_outcome(out, pair.label() + " failure " + std::to_string(failed));
    pass.mix(failed);
    pass.mix_double(lp.objective);
    for (const auto& row : mel)
      for (double v : row) {
        pass.mix_double(v);
        if (!std::isfinite(v)) pass.fail(pair.label() + ": non-finite MEL");
      }
  }
}

struct EngineWorld {
  std::vector<topology::IspPair> pairs;
  EngineInputs inputs;
};

Pass run_engine_pass(Kind kind, const EngineWorld& world, bool traced) {
  Pass pass;
  pass.traced = traced;
  obs::Registry& reg = obs::Registry::global();
  reg.set_timing_enabled(traced);
  reg.reset_timing();
  const double cpu0 = process_cpu_ms();
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < world.pairs.size(); ++i) {
    if (kind == Kind::kEngineDistance)
      distance_sample(world.pairs[i], world.inputs.traffic_seed[i],
                      world.inputs.engine_seed[i][0], pass);
    else
      bandwidth_pair(world.pairs[i], world.inputs.traffic_seed[i],
                     world.inputs.engine_seed[i], pass);
  }
  pass.wall_ms = ms_since(t0);
  pass.loop_ms = pass.wall_ms;
  pass.cpu_ms = process_cpu_ms() - cpu0;
  reg.set_timing_enabled(false);
  if (traced) pass.phases = reg.timing_snapshot();
  return pass;
}

// ---------------------------------------------------------------------------
// runtime_journaled

runtime::ScenarioConfig runtime_config(std::uint64_t seed, std::uint64_t salt) {
  runtime::ScenarioConfig cfg;
  cfg.universe = universe_config(120);
  cfg.min_links = 2;
  cfg.session_count = kRuntimeSessions;
  cfg.traffic = runtime::ScenarioTraffic::kBidirectionalUniformRandom;
  cfg.negotiation = negotiation_config(0.05);
  cfg.runtime.threads = kRuntimeThreads;
  cfg.transport = runtime::Transport::kInMemory;
  cfg.start_stagger = kRuntimeStagger;
  // Sessions yield after every agent step, so negotiations interleave and
  // the kills below land mid-negotiation even in the shortest sessions
  // (four steps).
  cfg.limits.max_steps_per_pump = kRuntimeBurst;
  cfg.durability.journal = true;
  // The traffic is drawn from a fixed stream, so every seed negotiates the
  // same work (uniform-random weights per session shifted the agent steps
  // per pass by up to 11% between seeds). The seed picks which quarter of
  // the sessions crash: each is killed two ticks into its negotiation and
  // restored from its checkpoint + WAL two ticks later.
  std::vector<std::uint32_t> ids(kRuntimeSessions);
  for (std::uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  util::Rng rng(seed * 0x9e3779b97f4a7c15ull ^ salt);
  rng.shuffle(ids);
  ids.resize(kRuntimeKills);
  std::sort(ids.begin(), ids.end());
  for (std::uint32_t i : ids) {
    const runtime::Tick start = i * kRuntimeStagger;
    cfg.events.push_back({start + 2, runtime::EventKind::kKill, i, 0});
    cfg.events.push_back({start + 4, runtime::EventKind::kResume, i, 0});
  }
  return cfg;
}

std::uint64_t counter_value(const obs::Snapshot& snap, const std::string& name) {
  for (const obs::CounterSnapshot& c : snap.counters)
    if (c.name == name) return c.value;
  return 0;
}

/// Kill records still in the WAL: each one is a crash the session was
/// restored from (a checkpoint truncates the WAL only at an attempt
/// boundary, and these sessions never retry).
std::uint64_t kill_records(const runtime::SessionJournal& journal) {
  proto::FrameDecoder dec;
  dec.feed(journal.wal_bytes());
  std::uint64_t kills = 0;
  while (std::optional<proto::Frame> f = dec.next()) {
    const auto ev = proto::decode_snapshot_wal_event(*f);
    if (ev.ok() && ev.value().kind ==
                       static_cast<std::uint8_t>(proto::WalEventKind::kKill))
      ++kills;
  }
  return kills;
}

/// One Scenario: construct (set-up), run, check. `observe_until` > 0
/// registers a no-op timeline callback on every tick up to it; each one
/// stamps the wall clock and polls session states between scheduling rounds,
/// which yields every session's wall latency from start to kDone without
/// touching the runtime's internals. The reference pass runs without them
/// and its digest proves they do not perturb the outcome.
Pass run_runtime_pass(const runtime::ScenarioConfig& cfg, bool traced,
                      runtime::Tick observe_until, std::vector<double>& setup_ms) {
  Pass pass;
  pass.traced = traced;
  obs::Registry& reg = obs::Registry::global();
  reg.reset_counters();
  reg.reset_timing();
  const Clock::time_point loop0 = Clock::now();

  std::unique_ptr<runtime::Scenario> scenario;
  timed(pass, kScenarioBuild,
        [&] { scenario = std::make_unique<runtime::Scenario>(cfg); });
  setup_ms.push_back(pass.layer_ms[kScenarioBuild]);

  const std::size_t n = scenario->initial_session_count();
  std::vector<Clock::time_point> started(n), done(n);
  std::vector<char> seen_started(n, 0), seen_done(n, 0);
  runtime::SessionManager& manager = scenario->manager();
  for (runtime::Tick t = 0; observe_until > 0 && t <= observe_until; ++t) {
    manager.at(t, [&](runtime::Tick) {
      const Clock::time_point now = Clock::now();
      for (std::uint32_t id = 0; id < n; ++id) {
        const runtime::SessionStatus st = manager.session(id).status();
        if (!seen_started[id] && st != runtime::SessionStatus::kPending) {
          seen_started[id] = 1;
          started[id] = now;
        }
        if (!seen_done[id] && st == runtime::SessionStatus::kDone) {
          seen_done[id] = 1;
          done[id] = now;
        }
      }
    });
  }

  reg.set_timing_enabled(traced);
  const double cpu0 = process_cpu_ms();
  const Clock::time_point t0 = Clock::now();
  runtime::ScenarioReport report;
  timed(pass, kScenarioRun, [&] { report = scenario->run(); });
  pass.wall_ms = ms_since(t0);
  pass.cpu_ms = process_cpu_ms() - cpu0;
  reg.set_timing_enabled(false);
  if (traced) pass.phases = reg.timing_snapshot();

  pass.stats = report.stats;
  if (observe_until > 0) {
    for (std::uint32_t id = 0; id < n; ++id) {
      if (seen_started[id] && seen_done[id])
        pass.sample_ms.push_back(
            std::chrono::duration<double, std::milli>(done[id] - started[id]).count());
      else
        pass.fail("session " + std::to_string(id) +
                  ": start or completion not observed on the timeline");
    }
  }

  // Checks: every session reached kDone, no ISP lost against its default
  // (own-network km, recomputed from the session's world), every kill was
  // restored from its journal and none fell back to a fresh negotiation.
  pass.mix(runtime::outcome_digest(report));
  for (const runtime::ScenarioSessionResult& r : report.sessions) {
    pass.mix(static_cast<std::uint64_t>(r.status));
    if (r.status != runtime::SessionStatus::kDone) {
      pass.fail("session " + std::to_string(r.id) + " ended " +
                runtime::to_string(r.status) + ": " + r.error);
      continue;
    }
    pass.record_outcome(r.outcome, r.pair_label, /*check_true_gains=*/false);
    const runtime::SessionWorld& w = scenario->world_of(r.id);
    for (int side = 0; side < 2; ++side) {
      const double def = metrics::side_flow_km(
          *w.base->routing, w.traffic.flows(), w.problem.default_assignment, side);
      const double fin = metrics::side_flow_km(*w.base->routing, w.traffic.flows(),
                                               r.outcome.assignment, side);
      pass.mix_double(fin);
      if (!side_km_no_loss(def, fin))
        pass.fail("session " + std::to_string(r.id) +
                  ": negotiated own-network km exceeds default");
    }
  }
  const runtime::SnapshotStore* store = scenario->snapshot_store();
  for (std::uint32_t id = 0; store != nullptr && id < manager.size(); ++id) {
    const runtime::SessionJournal* j = store->find(id);
    if (j == nullptr) continue;
    pass.wal_bytes += j->wal_bytes().size();
    pass.wal_events += j->wal_events();
    pass.checkpoints += j->checkpoints();
    pass.restores += kill_records(*j);
  }
  pass.restore_failures =
      counter_value(reg.snapshot(), "runtime.restore_failures");
  const std::uint64_t kills = kRuntimeKills;
  if (store == nullptr) pass.fail("journaling is off");
  if (pass.restore_failures != 0)
    pass.fail(std::to_string(pass.restore_failures) +
              " restores fell back to a fresh negotiation");
  if (pass.restores != kills)
    pass.fail(std::to_string(pass.restores) + " of " + std::to_string(kills) +
              " kills were restored mid-negotiation");
  if (report.stats.killed != 0) pass.fail("sessions left killed");
  scenario.reset();
  pass.loop_ms = ms_since(loop0);
  return pass;
}

// ---------------------------------------------------------------------------
// Noise avoidance. This benchmark's host slows its vCPUs down one at a
// time, in episodes of seconds (a neighbour sharing the physical core), by
// up to 1.8x on the engine workloads. Before each pass the benchmark
// therefore times a short instruction-throughput kernel on every CPU it may
// use and pins itself to the fastest. The choice depends only on the host,
// never on the code under test. README.md has the measurements behind this.

class CpuPicker {
 public:
  CpuPicker() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
      for (int c = 0; c < CPU_SETSIZE; ++c)
        if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }

  /// Pins the calling thread to the CPU where the kernel ran fastest.
  /// Returns the kernel time there and on the slowest CPU, in ns per
  /// iteration.
  std::pair<double, double> pin_fastest() {
    if (cpus_.size() <= 1) {
      const double ns = kernel_ns();
      return {ns, ns};
    }
    std::vector<std::pair<double, int>> ranked;
    for (int c : cpus_) {
      if (!pin({c})) {  // affinity unavailable: run wherever we are
        pin(cpus_);
        const double ns = kernel_ns();
        return {ns, ns};
      }
      ranked.emplace_back(std::min(kernel_ns(), kernel_ns()), c);
    }
    std::sort(ranked.begin(), ranked.end());
    pin({ranked.front().second});
    return {ranked.front().first, ranked.back().first};
  }

 private:
  static bool pin(const std::vector<int>& cpus) {
    cpu_set_t set;
    CPU_ZERO(&set);
    for (int c : cpus) CPU_SET(c, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0;
  }

  /// Six independent multiply/xor-shift chains: bound by the core's
  /// instruction throughput, which is what a busy sibling takes away.
  double kernel_ns() {
    constexpr std::uint32_t kIterations = 100'000;
    std::uint64_t a = sink_ | 1, b = 3, c = 5, d = 7, e = 11, f = 13;
    const Clock::time_point t0 = Clock::now();
    for (std::uint32_t i = 0; i < kIterations; ++i) {
      a = a * 0x9e3779b97f4a7c15ull + i;
      b = (b ^ (b >> 7)) * 0xbf58476d1ce4e5b9ull;
      c = c * 0x94d049bb133111ebull + a;
      d = (d ^ (d << 9)) + b;
      e = e * 6364136223846793005ull + c;
      f = (f ^ (f >> 11)) * 0xff51afd7ed558ccdull + d;
    }
    const double ms = ms_since(t0);
    sink_ += a ^ b ^ c ^ d ^ e ^ f;
    return ms * 1e6 / kIterations;
  }

  std::vector<int> cpus_;
  std::uint64_t sink_ = 0;
};

// ---------------------------------------------------------------------------
// Host-speed probe: two fixed reference kernels, one L1-resident and one
// random-reading 8 MB, timed as ns per operation. Diagnostics only.

double probe_l1_ns() {
  std::array<std::uint32_t, 2048> table{};  // 8 KiB
  for (std::uint32_t i = 0; i < table.size(); ++i) table[i] = i * 2654435761u;
  constexpr std::uint32_t kOps = 20'000'000;
  std::uint32_t x = 1;
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t i = 0; i < kOps; ++i) x = table[(x ^ i) & 2047] + (x >> 3);
  const double ms = ms_since(t0);
  if (x == 0xdeadbeef) std::puts("");  // keep the chain observable
  return ms * 1e6 / kOps;
}

double probe_random_read_ns() {
  constexpr std::uint32_t kSlots = 2u << 20;  // 2 Mi x 4 B = 8 MiB
  std::vector<std::uint32_t> next(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
  util::Rng rng(7);
  for (std::uint32_t i = kSlots - 1; i > 0; --i)  // Sattolo: one long cycle
    std::swap(next[i], next[static_cast<std::uint32_t>(rng.next_below(i))]);
  constexpr std::uint32_t kLoads = 4'000'000;
  std::uint32_t at = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::uint32_t i = 0; i < kLoads; ++i) at = next[at];
  const double ms = ms_since(t0);
  if (at == 0xdeadbeef) std::puts("");
  return ms * 1e6 / kLoads;
}

int run_probe() {
  std::vector<double> l1, rr;
  for (int i = 0; i < 3; ++i) {
    l1.push_back(probe_l1_ns());
    rr.push_back(probe_random_read_ns());
  }
  std::printf("{\"l1_ns_per_op\": %.4f, \"random_read_8mb_ns_per_load\": %.4f}\n",
              median(l1), median(rr));
  return 0;
}

// ---------------------------------------------------------------------------
// Driver

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool probe = false;
  bool digest_only = false;
  std::string expect_digest;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "nexit_perfbench: %s\n"
               "usage: nexit_perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--expect-digest=HEX] [--digest-only]\n"
               "       nexit_perfbench --probe\n",
               why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--workload") a.workload = value;
      else if (key == "--seed") a.seed = std::stoull(value);
      else if (key == "--seconds") a.seconds = std::stod(value);
      else if (key == "--trace") a.trace = std::stoi(value) != 0;
      else if (key == "--expect-digest") a.expect_digest = value;
      else if (key == "--digest-only") a.digest_only = true;
      else if (key == "--probe") a.probe = true;
      else usage("unknown argument " + arg);
    } catch (const std::exception&) {
      usage("bad value in " + arg);
    }
  }
  if (!a.probe && a.workload.empty()) usage("--workload is required");
  if (a.seconds <= 0 || !std::isfinite(a.seconds)) usage("--seconds must be > 0");
  return a;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_metrics_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
}

double phase_ms(const Pass& p, obs::Phase phase) {
  for (const obs::PhaseSnapshot& s : p.phases)
    if (std::strcmp(s.name, obs::phase_name(phase)) == 0)
      return static_cast<double>(s.ns) / 1e6;
  return 0.0;
}

/// Median over `passes` of a per-pass quantity.
template <typename F>
double median_of(const std::vector<const Pass*>& passes, F&& f) {
  std::vector<double> v;
  for (const Pass* p : passes) v.push_back(f(*p));
  return median(v);
}

int run(const Args& args) {
  const WorkloadInfo* info = nullptr;
  for (const WorkloadInfo& w : kWorkloads)
    if (args.workload == w.name) info = &w;
  if (info == nullptr) usage("unknown workload " + args.workload);
  const Kind kind = info->kind;
  const bool engine = kind != Kind::kRuntimeJournaled;

  CpuPicker picker;
  std::vector<double> chosen_ns, worst_ns;
  const auto pin = [&] {
    const auto [chosen, worst] = picker.pin_fastest();
    chosen_ns.push_back(chosen);
    worst_ns.push_back(worst);
  };
  pin();

  // --- set-up: inputs from the seed, repeated world construction ----------
  std::vector<double> setup_ms;
  std::vector<double> universe_ms;
  EngineWorld world;
  runtime::ScenarioConfig rcfg;
  double pair_routing_setup_ms = 0.0;
  std::function<void()> construct_again = [] {};
  if (engine) {
    const bool bandwidth = kind == Kind::kFailureBandwidth;
    const sim::UniverseConfig u = universe_config(bandwidth ? 60 : 120);
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      const Clock::time_point t0 = Clock::now();
      world.pairs = sim::build_pair_universe(u, bandwidth ? 3 : 2);
      setup_ms.push_back(ms_since(t0));
    }
    // One more construction after every measured pass, so the set-up
    // samples span the whole run rather than its first moments.
    construct_again = [&setup_ms, u, bandwidth] {
      const Clock::time_point t0 = Clock::now();
      const std::vector<topology::IspPair> pairs =
          sim::build_pair_universe(u, bandwidth ? 3 : 2);
      setup_ms.push_back(ms_since(t0));
    };
    world.inputs = make_engine_inputs(world.pairs.size(), args.seed, info->salt);
  } else {
    rcfg = runtime_config(args.seed, info->salt);
    // The Scenario constructor's two world-building layers, timed on their
    // own for the per-layer breakdown (setup_s times the whole constructor).
    std::vector<topology::IspPair> pairs;
    for (std::size_t r = 0; r < 3; ++r) {
      const Clock::time_point t0 = Clock::now();
      pairs = sim::build_pair_universe(rcfg.universe, rcfg.min_links);
      universe_ms.push_back(ms_since(t0));
    }
    const Clock::time_point t0 = Clock::now();
    for (const topology::IspPair& p : pairs) routing::PairRouting r(p);
    pair_routing_setup_ms = ms_since(t0);
    // setup_s: whole constructions here, plus the one in every pass.
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      const Clock::time_point c0 = Clock::now();
      const runtime::Scenario scenario(rcfg);
      setup_ms.push_back(ms_since(c0));
    }
  }

  const auto run_pass = [&](bool traced, runtime::Tick observe_until) {
    pin();
    return engine ? run_engine_pass(kind, world, traced)
                  : run_runtime_pass(rcfg, traced, observe_until, setup_ms);
  };

  // --- reference pass: fixes the digest, warms caches and lazy set-up ------
  const Pass reference = run_pass(false, 0);
  const std::string digest = util::digest_hex(reference.digest);
  std::size_t attempted = reference.negotiations + reference.failed;
  std::size_t failed = reference.failed;
  std::vector<std::string> errors = reference.errors;
  if (!args.expect_digest.empty() && args.expect_digest != digest) {
    failed += reference.negotiations;
    errors.push_back("outcome digest " + digest + " differs from the recorded " +
                     args.expect_digest);
  }
  if (args.digest_only) {
    for (const std::string& e : errors)
      std::fprintf(stderr, "nexit_perfbench: FAILED: %s\n", e.c_str());
    std::printf("%s\n", digest.c_str());
    return failed == 0 ? 0 : 1;
  }

  // --- measured passes ----------------------------------------------------
  // With --trace=1, traced and untraced passes alternate; the layer metrics
  // come from the traced ones and the gap in throughput is the overhead.
  std::vector<Pass> passes;
  const Clock::time_point start = Clock::now();
  while (passes.size() < kMinPasses || ms_since(start) < args.seconds * 1e3) {
    const bool traced = args.trace && passes.size() % 2 == 0;
    Pass p = run_pass(traced, reference.stats.final_tick);
    attempted += p.negotiations + p.failed;
    failed += p.failed;
    if (p.digest != reference.digest) {
      failed += p.negotiations;
      errors.push_back("pass " + std::to_string(passes.size()) +
                       ": outcome digest " + util::digest_hex(p.digest) +
                       " differs from the reference pass " + digest);
    }
    for (std::string& e : p.errors) errors.push_back(std::move(e));
    passes.push_back(std::move(p));
    construct_again();
  }
  const double measured_s = ms_since(start) / 1e3;

  // Every pass does identical work, so the spread between passes is host
  // noise; the metrics come from the faster half of each kind of pass.
  std::vector<const Pass*> plain, traced;
  for (const Pass& p : passes) (p.traced ? traced : plain).push_back(&p);
  const std::size_t traced_passes = traced.size();
  for (std::vector<const Pass*>* ps : {&plain, &traced}) {
    std::sort(ps->begin(), ps->end(),
              [](const Pass* a, const Pass* b) { return a->wall_ms < b->wall_ms; });
    ps->resize((ps->size() + 1) / 2);
  }
  const std::size_t per_pass = reference.negotiations;
  const auto throughput = [per_pass](const std::vector<const Pass*>& ps) {
    const double wall = median_of(ps, [](const Pass& p) { return p.wall_ms; });
    return wall > 0 ? static_cast<double>(per_pass) / (wall / 1e3) : 0.0;
  };

  std::vector<double> samples;
  for (const Pass* p : plain)
    samples.insert(samples.end(), p->sample_ms.begin(), p->sample_ms.end());

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"negotiations_per_s", throughput(plain), "1/s"},
        {"sample_p50_ms", nearest_rank(samples, 0.50), "ms"},
        {"sample_p99_ms", nearest_rank(samples, 0.99), "ms"},
        {"cpu_ms_per_negotiation",
         median_of(plain, [](const Pass& p) {
           return p.negotiations ? p.cpu_ms / static_cast<double>(p.negotiations) : 0.0;
         }),
         "ms"},
        {"setup_s", quiet_median(setup_ms) / 1e3, "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
    };
  } else {
    const auto layer = [&traced](Layer l) {
      return median_of(traced, [l](const Pass& p) { return p.layer_ms[l]; });
    };
    const auto phase = [&traced](obs::Phase ph) {
      return median_of(traced, [ph](const Pass& p) { return phase_ms(p, ph); });
    };
    const auto count = [&reference](std::size_t Pass::*field) {
      return static_cast<double>(reference.*field);
    };
    const double timed_share = median_of(traced, [](const Pass& p) {
      double sum = 0.0;
      for (double ms : p.layer_ms) sum += ms;
      return p.loop_ms > 0 ? sum / p.loop_ms : 0.0;
    });
    const double engine_residual = median_of(traced, [](const Pass& p) {
      return p.layer_ms[kEngine] - phase_ms(p, obs::Phase::kSelectProposal) -
             phase_ms(p, obs::Phase::kEvaluateFull) -
             phase_ms(p, obs::Phase::kEvaluateIncremental);
    });
    const double plain_rate = throughput(plain);
    const double traced_rate = throughput(traced);
    const double rounds = count(&Pass::rounds);
    metrics = {
        {"world.universe_ms", quiet_median(engine ? setup_ms : universe_ms), "ms"},
        {"routing.pair_routing_ms",
         engine ? layer(kPairRouting) : pair_routing_setup_ms, "ms"},
        {"traffic.build_ms", layer(kTrafficBuild), "ms"},
        {"core.problem_ms", layer(kProblem), "ms"},
        {"routing.assign_ms", layer(kAssign), "ms"},
        {"capacity.assign_ms", layer(kCapacity), "ms"},
        {"core.oracle_build_ms", layer(kOracleBuild), "ms"},
        {"core.engine_ms", layer(kEngine), "ms"},
        {"core.engine_residual_ms", engine ? engine_residual : 0.0, "ms"},
        {"core.select_proposal_ms", phase(obs::Phase::kSelectProposal), "ms"},
        {"core.evaluate_full_ms", phase(obs::Phase::kEvaluateFull), "ms"},
        {"core.evaluate_incremental_ms", phase(obs::Phase::kEvaluateIncremental), "ms"},
        {"routing.loads_maintain_ms", phase(obs::Phase::kLoadsMaintain), "ms"},
        {"core.quantization_ms", phase(obs::Phase::kQuantizationScale), "ms"},
        {"core.negotiations", count(&Pass::negotiations), "count"},
        {"core.rounds", rounds, "count"},
        {"core.rejected_share",
         rounds > 0 ? (rounds - count(&Pass::accepted)) / rounds : 0.0, "ratio"},
        {"core.eval_rows_computed", count(&Pass::rows_computed), "count"},
        {"core.eval_row_fraction",
         reference.rows_full_equivalent > 0
             ? count(&Pass::rows_computed) / count(&Pass::rows_full_equivalent)
             : 0.0,
         "ratio"},
        {"opt.lp_ms", layer(kLp), "ms"},
        {"opt.lp_solves", count(&Pass::lp_solves), "count"},
        {"metrics.ms", layer(kMetrics), "ms"},
        {"runtime.build_ms", layer(kScenarioBuild), "ms"},
        {"runtime.run_ms", layer(kScenarioRun), "ms"},
        {"runtime.cpu_over_wall",
         engine ? 0.0 : median_of(traced, [](const Pass& p) {
           return p.wall_ms > 0 ? p.cpu_ms / p.wall_ms : 0.0;
         }),
         "ratio"},
        {"runtime.messages", static_cast<double>(reference.stats.messages), "count"},
        {"runtime.steps", static_cast<double>(reference.stats.total_steps), "count"},
        {"runtime.rounds", static_cast<double>(reference.stats.rounds), "count"},
        {"runtime.peak_ready", static_cast<double>(reference.stats.peak_ready), "count"},
        {"proto.wire_encode_ms", phase(obs::Phase::kWireEncode), "ms"},
        {"proto.wire_decode_ms", phase(obs::Phase::kWireDecode), "ms"},
        {"runtime.session_pump_ms", phase(obs::Phase::kSessionPump), "ms"},
        {"snapshot.wal_bytes", static_cast<double>(reference.wal_bytes), "bytes"},
        {"snapshot.wal_events", static_cast<double>(reference.wal_events), "count"},
        {"snapshot.checkpoints", static_cast<double>(reference.checkpoints), "count"},
        {"snapshot.restores", static_cast<double>(reference.restores), "count"},
        {"snapshot.restore_failures",
         static_cast<double>(reference.restore_failures), "count"},
        {"bench.timed_share", timed_share, "ratio"},
        {"bench.tracing_overhead_pct",
         traced_rate > 0 ? 100.0 * (plain_rate / traced_rate - 1.0) : 0.0, "%"},
    };
  }

  // Work counts must repeat exactly on every pass of a seed.
  for (const Pass& p : passes) {
    if (p.negotiations != reference.negotiations || p.rounds != reference.rounds ||
        p.rows_computed != reference.rows_computed ||
        p.wal_bytes != reference.wal_bytes ||
        p.stats.messages != reference.stats.messages) {
      failed += p.negotiations;
      errors.push_back("a pass's work counts differ from the reference pass");
      break;
    }
  }

  for (const std::string& e : errors)
    std::fprintf(stderr, "nexit_perfbench: FAILED: %s\n", e.c_str());
  std::string pass_ms;
  for (const Pass& p : passes)
    pass_ms += (pass_ms.empty() ? "" : ", ") + std::to_string(p.wall_ms);
  std::printf(
      "{\"diagnostics\": {\"workload\": \"%s\", \"seed\": %llu, \"digest\": \"%s\", "
      "\"passes\": %zu, \"traced_passes\": %zu, \"measured_s\": %.3f, "
      "\"negotiations_per_pass\": %zu, \"rounds_per_pass\": %zu, \"samples\": %zu, "
      "\"setup_samples\": %zu, \"pass_ms\": [%s], \"cpu_kernel_ns_chosen\": %.3f, "
      "\"cpu_kernel_ns_worst\": %.3f}}\n",
      info->name, static_cast<unsigned long long>(args.seed), digest.c_str(),
      passes.size(), traced_passes, measured_s, per_pass, reference.rounds,
      samples.size(), setup_ms.size(), pass_ms.c_str(), median(chosen_ns),
      median(worst_ns));
  print_metrics_json(failed == 0, attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  try {
    return args.probe ? run_probe() : run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nexit_perfbench: %s\n", e.what());
    return 1;
  }
}
