#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "capacity/capacity.hpp"
#include "routing/loads.hpp"
#include "runtime/manager.hpp"
#include "sim/pair_universe.hpp"
#include "traffic/traffic.hpp"

namespace nexit::runtime {

/// Timeline events, declared as data so a scenario is replayable from its
/// config alone. Times are virtual Ticks; `session` indexes the initially
/// spawned sessions (renegotiations get fresh ids at run time).
enum class EventKind : std::uint8_t {
  /// Start `session` at `at` instead of its staggered default.
  kStart,
  /// The pair's traffic changes: cancel whatever `session` is doing, build a
  /// fresh traffic matrix seeded by `param`, and renegotiate from scratch.
  kFlowChurn,
  /// Interconnection failure mid-session (the paper's §5.2 scenario,
  /// generalizing examples/failure_negotiation.cpp): cancel `session`,
  /// re-route its flows by early-exit over the survivors, and spawn a
  /// renegotiation of the affected flows with bandwidth oracles. `param` is
  /// the interconnection index to fail, or kBusiestIx for the loaded one.
  kLinkFailure,
  /// One peer crashes and comes back: the live attempt restarts with fresh
  /// channels (a planned restart does not consume a retry).
  kPeerRestart,
  /// Crash `session` outright: its in-memory state is wiped and only the
  /// durable snapshot+WAL bytes survive (runtime/snapshot.hpp). The session
  /// freezes as kKilled until a matching kResume. Declaring any kill/resume
  /// event enables journaling for the whole run and requires the in-memory
  /// transport (kernel socket buffers are not part of the durable state).
  kKill,
  /// Restore `session` from its journal. With a verified checkpoint + WAL
  /// tail the negotiation continues exactly where the kill interrupted it;
  /// downtime is excised, so the outcome digest, per-session counters and
  /// record bytes equal an uninterrupted run's (the durability contract,
  /// pinned by tests/snapshot_test.cpp at every kill tick).
  kResume,
};

inline constexpr std::uint64_t kBusiestIx = ~std::uint64_t{0};

struct ScenarioEvent {
  Tick at = 0;
  EventKind kind = EventKind::kStart;
  std::uint32_t session = 0;
  std::uint64_t param = 0;

  friend bool operator==(const ScenarioEvent&, const ScenarioEvent&) = default;
};

/// kTcpPair is a connected loopback TCP pair from src/dist — same fd-backed
/// Channel as kSocketPair, but through the full listen/connect/accept path
/// (and the kernel's TCP segmentation, which exercises partial-frame
/// reassembly for real).
enum class Transport : std::uint8_t { kInMemory, kSocketPair, kTcpPair };

/// Workload shape of the initial sessions. kGravityAtoB matches the failure
/// example (gravity traffic, one direction); kBidirectionalIdentical matches
/// the distance experiments; kBidirectionalUniformRandom draws per-flow
/// weights from the session's RNG stream, so sessions cycling the same pair
/// negotiate genuinely different workloads (the synthetic scale-up shape).
enum class ScenarioTraffic : std::uint8_t {
  kBidirectionalIdentical,
  kGravityAtoB,
  kBidirectionalUniformRandom,
};

struct FaultConfig {
  double drop = 0.0;     // whole-frame drop probability per send
  double corrupt = 0.0;  // single-byte corruption probability per send
};

struct ScenarioConfig {
  sim::UniverseConfig universe;
  std::size_t min_links = 2;
  /// Number of initial sessions. 0 = one per universe pair; a larger count
  /// cycles the pairs with per-session traffic (synthetic scale-up — the
  /// expensive PairRouting is shared, the negotiations are distinct).
  std::size_t session_count = 0;
  ScenarioTraffic traffic = ScenarioTraffic::kBidirectionalIdentical;
  /// Wire sessions require deterministic tie-breaks; run_scenario forces
  /// tie_break = kDeterministic regardless of what is set here.
  core::NegotiationConfig negotiation;
  SessionLimits limits;
  RuntimeConfig runtime;
  Transport transport = Transport::kInMemory;
  /// Fault injection on initial sessions' transports (renegotiation
  /// sessions run clean — the paper assumes a working control channel).
  FaultConfig faults;
  /// Which initial sessions get `faults` (empty = all of them).
  std::vector<std::uint32_t> fault_targets;
  /// Session i starts at tick i * start_stagger (kStart events override).
  Tick start_stagger = 1;
  std::vector<ScenarioEvent> events;
  /// Durable-session journaling (runtime/snapshot.hpp). Any kill/resume
  /// event enables it implicitly; `journal` forces it on without kill
  /// events (the snapshot_throughput bench measures pure overhead that
  /// way); `dir` additionally mirrors the bytes to disk for CI artifacts.
  struct Durability {
    bool journal = false;
    std::string dir;
  };
  Durability durability;
  /// Seeds the per-session traffic/fault RNG streams, pre-forked in session
  /// order exactly like the experiment engines (PR 1), so any --threads
  /// value replays bit-identically.
  std::uint64_t seed = 7;
};

/// Shared expensive state: one per universe pair, referenced by every
/// session on that pair. Heap-pinned (PairRouting points into `pair`).
struct PairWorld {
  topology::IspPair pair;
  std::unique_ptr<routing::PairRouting> routing;
};

/// Everything one session negotiates over. Owned by the Scenario and pinned
/// for the manager's lifetime (the NegotiationProblem points into it).
struct SessionWorld {
  SessionWorld(const PairWorld* base_in, traffic::TrafficMatrix traffic_in)
      : base(base_in), traffic(std::move(traffic_in)) {}

  const PairWorld* base = nullptr;
  traffic::TrafficMatrix traffic;
  routing::LoadMap capacities;  // failure renegotiations only
  core::NegotiationProblem problem;
  std::unique_ptr<core::PreferenceOracle> oracle_a, oracle_b;
  std::size_t failed_ix = ~std::size_t{0};  // failure renegotiations only
};

enum class SessionKind : std::uint8_t {
  kInitial,
  kChurnRenegotiation,
  kFailureRenegotiation,
};

struct ScenarioSessionResult {
  std::uint32_t id = 0;
  SessionKind kind = SessionKind::kInitial;
  std::int64_t parent = -1;  // session this one renegotiates for
  std::string pair_label;
  SessionStatus status = SessionStatus::kPending;
  core::NegotiationOutcome outcome;  // valid when status == kDone
  std::string error;
  int attempts = 0;
  int retries = 0;
  std::size_t steps = 0;
  std::uint64_t messages = 0;
  std::uint64_t timeouts = 0;
  Tick started_at = 0;
  Tick finished_at = 0;
};

struct ScenarioReport {
  std::vector<ScenarioSessionResult> sessions;
  RuntimeStats stats;
};

/// Builds the worlds, spawns the sessions, registers the timeline, and
/// drives the SessionManager. Construct-once, run-once; keep the object
/// alive to introspect worlds after the run (tests do).
class Scenario {
 public:
  explicit Scenario(ScenarioConfig config);

  ScenarioReport run();

  [[nodiscard]] const SessionWorld& world_of(std::uint32_t session_id) const {
    return *worlds_.at(session_id);
  }
  [[nodiscard]] SessionManager& manager() { return manager_; }
  [[nodiscard]] std::size_t initial_session_count() const {
    return initial_count_;
  }
  /// Non-null iff durability journaling is on for this run. The non-const
  /// overload lets tests tamper with journals mid-run (corruption and
  /// truncation drills).
  [[nodiscard]] const SnapshotStore* snapshot_store() const {
    return store_.get();
  }
  [[nodiscard]] SnapshotStore* snapshot_store() { return store_.get(); }

 private:
  struct Meta {
    SessionKind kind = SessionKind::kInitial;
    std::int64_t parent = -1;
  };

  std::uint32_t spawn(std::unique_ptr<SessionWorld> world, SessionKind kind,
                      std::int64_t parent, Tick start_at,
                      std::uint64_t fault_seed, bool with_faults);
  void on_flow_churn(Tick now, std::uint32_t target, std::uint64_t reseed);
  void on_link_failure(Tick now, std::uint32_t target, std::uint64_t which);
  void on_kill(Tick now, std::uint32_t target);
  void on_resume(Tick now, std::uint32_t target);

  ScenarioConfig config_;
  std::vector<std::unique_ptr<PairWorld>> pair_worlds_;
  std::vector<std::unique_ptr<SessionWorld>> worlds_;  // index == session id
  std::vector<Meta> meta_;
  std::vector<Tick> scheduled_start_;  // index == session id
  std::size_t initial_count_ = 0;
  bool ran_ = false;
  /// Present iff durability is on (kill/resume events or config). Owns the
  /// journals the sessions write to; tests introspect it after the run.
  std::unique_ptr<SnapshotStore> store_;
  SessionManager manager_;  // declared last: sessions reference the worlds
};

/// Convenience wrapper: construct, run, report.
ScenarioReport run_scenario(ScenarioConfig config);

/// FNV-1a over every session's terminal state, message count, and (for
/// completed sessions) rounds and final assignment: any scheduling-
/// dependent divergence shows up as a different digest. Shared by the
/// runtime_throughput bench, the spec-driven runtime scenarios, and the
/// determinism tests, so "bit-identical across --threads" has one spelling.
std::uint64_t outcome_digest(const ScenarioReport& report);

}  // namespace nexit::runtime
