#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>

#include "agent/agent.hpp"
#include "agent/channel.hpp"
#include "runtime/clock.hpp"
#include "runtime/snapshot.hpp"

namespace nexit::runtime {

enum class SessionStatus {
  kPending,    // added but not started yet (staggered starts)
  kRunning,    // agents live, negotiating
  kDone,       // both agents finished and agree on the assignment
  kFailed,     // retries exhausted (timeouts, stream errors, disagreement)
  kCancelled,  // stopped by a scenario event (link failure, flow churn)
  kKilled,     // crashed (kill event): frozen until resume() or end of run
};

std::string to_string(SessionStatus s);

/// Lifecycle bounds of one session, all in virtual Ticks (one tick = one
/// scheduling round of the manager; see runtime/clock.hpp).
struct SessionLimits {
  /// An attempt that has not left the handshake by this many ticks after it
  /// began is torn down (and retried if attempts remain).
  Tick handshake_deadline = 64;
  /// Mid-session: ticks without observable progress before teardown. This is
  /// what turns a FaultyChannel's dropped frames into a clean kFailed
  /// instead of an eternal stall.
  Tick round_timeout = 32;
  /// Total attempts (first try plus retries). Each retry gets fresh channels
  /// and fresh agents: a poisoned FrameDecoder cannot resynchronise.
  int max_attempts = 3;
  /// Hard cap on agent pump steps across all attempts (runaway guard).
  std::size_t max_steps = 1u << 20;
  /// Steps one pump() may take before yielding the worker (0 = run to stall
  /// or completion). A yielded session re-enters the next round's ready set,
  /// so bursts interleave long negotiations fairly — and scenario events can
  /// land genuinely mid-session.
  std::size_t max_steps_per_pump = 0;
};

/// Builds the transport for attempt `attempt` (0-based). Called once per
/// attempt so retries start from clean streams; fault-injecting factories
/// should derive their seed from the attempt number to stay deterministic.
using ChannelFactory =
    std::function<std::pair<std::unique_ptr<agent::Channel>,
                            std::unique_ptr<agent::Channel>>(int attempt)>;

/// One live negotiation: a NegotiationAgent pair plus the lifecycle the bare
/// agents lack — handshake deadline, per-round timeout, bounded retry with
/// fresh transports, and a terminal outcome. The problem, oracles and config
/// are borrowed (the caller owns them for the session's lifetime); channels
/// are built internally via the factory and swapped on every attempt.
///
/// Thread-safety: a Session is confined to one worker per scheduling round —
/// the manager never pumps the same session from two threads — and sessions
/// share no mutable state, which is what makes parallel rounds bit-identical
/// to serial ones.
class Session {
 public:
  Session(std::uint32_t id, const core::NegotiationProblem& problem,
          core::PreferenceOracle& oracle_a, core::PreferenceOracle& oracle_b,
          core::NegotiationConfig config, ChannelFactory channels,
          SessionLimits limits = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// kPending -> kRunning: builds the first attempt. The session still needs
  /// a pump() to send its handshake (ready() is true until then).
  void start(Tick now);

  /// One scheduling quantum: steps both agents until neither makes progress
  /// or the session reaches a terminal state. Returns true if anything
  /// happened. A healthy in-memory session runs to completion in one pump;
  /// a stalled one parks (ready() false) until bytes arrive or deadline().
  bool pump(Tick now);

  /// Re-checks the handshake/round deadline; tears the attempt down (retry
  /// or kFailed) when it has passed. Called by the manager on timer expiry —
  /// stale timers are harmless, the session re-derives its real deadline.
  void check_deadline(Tick now);

  /// Scenario "peer restart": drop the live attempt and begin a new one with
  /// fresh channels. Does not consume a retry (planned restarts are not
  /// failures). No-op unless running.
  void restart(Tick now);

  /// Scenario cancellation (link failed, traffic churned): the session's
  /// problem no longer reflects reality, stop working on it.
  void cancel(Tick now, const std::string& why);

  /// Crash simulation: append the kill record to the journal, then wipe
  /// every in-memory artifact — agents, channels, counters, timestamps —
  /// so resume() can only use the durable bytes. Freezes as kKilled (not
  /// terminal: the session may come back). No-op once terminal.
  void kill(Tick now);

  /// Rebuilds state from the attached journal: restore the checkpoint,
  /// re-begin its attempt through the deterministic channel factory, and
  /// replay the WAL tail at its recorded session-local ticks, verifying
  /// each record's pre-state. Downtime is excised via the tick offset so a
  /// resumed session's bookkeeping matches an uninterrupted run exactly.
  /// `original_start` is the tick the session was first scheduled to start
  /// (used when there is no durable state yet). A snapshot-schema version
  /// mismatch exits loudly (code 2) — never silently renegotiates; any
  /// other decode/verify failure resets for a fresh negotiation and
  /// reports kFellBack. Only legal while kKilled.
  RestoreOutcome resume(Tick now, Tick original_start, std::string* error);

  /// Enables durable journaling (checkpoints at attempt boundaries, one
  /// WAL record per scheduling event). The journal must outlive the
  /// session. Null detaches.
  void attach_journal(SessionJournal* journal) { journal_ = journal; }

  [[nodiscard]] std::uint32_t id() const { return id_; }
  [[nodiscard]] SessionStatus status() const { return status_; }
  [[nodiscard]] bool terminal() const {
    return status_ == SessionStatus::kDone || status_ == SessionStatus::kFailed ||
           status_ == SessionStatus::kCancelled;
  }
  /// True when a pump would do something even with no readable bytes (a
  /// fresh attempt that has not sent its handshake yet).
  [[nodiscard]] bool needs_kick() const { return needs_kick_; }
  /// Next tick at which check_deadline() could act; kNoDeadline if terminal.
  [[nodiscard]] Tick deadline() const;
  /// Incoming endpoints for the reactor (valid until the next attempt).
  [[nodiscard]] std::vector<const agent::Channel*> watch_channels() const;

  [[nodiscard]] const std::string& error() const { return error_; }
  /// Valid once status() == kDone.
  [[nodiscard]] const core::NegotiationOutcome& outcome() const;

  [[nodiscard]] int attempts() const { return attempts_; }
  [[nodiscard]] std::size_t steps() const { return steps_; }
  /// Frames offered to the transport by both sides, across all attempts
  /// (counts dropped frames too — it measures protocol work, not delivery).
  [[nodiscard]] std::uint64_t messages_sent() const { return messages_; }
  /// Deadline expiries that actually tore an attempt down (handshake
  /// deadline or round timeout; stale timers do not count).
  [[nodiscard]] std::uint64_t timeouts() const { return timeouts_; }
  /// Failures consumed against max_attempts (the first try is free).
  [[nodiscard]] int retries() const { return retries_used_; }
  [[nodiscard]] Tick started_at() const { return started_at_; }
  [[nodiscard]] Tick finished_at() const { return finished_at_; }

 private:
  void begin_attempt(Tick now);
  void teardown_attempt();
  /// Attempt failed: retry if any remain, else kFailed with `why`.
  void fail_or_retry(Tick now, const std::string& why);
  void conclude(Tick now);
  [[nodiscard]] bool in_handshake() const;

  /// Manager tick -> session-local tick. All internal bookkeeping runs in
  /// session time; `offset_` (the accumulated kill->resume downtime) is
  /// applied once at each public entry point, and added back by deadline().
  [[nodiscard]] Tick sess_time(Tick now) const {
    return now >= offset_ ? now - offset_ : 0;
  }
  // Durability hooks, implemented in runtime/snapshot.cpp. All no-ops while
  // journal_ is null (including during replay, which detaches it).
  void journal_checkpoint();
  void journal_event(proto::WalEventKind kind, Tick sess_now,
                     const std::string& note = {});
  /// Every mark field but the assignment delta (`moves` stays empty).
  [[nodiscard]] proto::SnapshotNegotiationMark negotiation_mark() const;
  /// Replay's check of one record: applies its delta to `expected` (side
  /// A's assignment as of the previous record) and compares the result and
  /// every other field with the live state.
  [[nodiscard]] bool mark_matches(const proto::SnapshotNegotiationMark& mark,
                                  std::vector<std::size_t>& expected) const;
  /// Decode + replay + verify; fills *error and returns false on any
  /// corruption or state mismatch (the caller falls back to fresh).
  bool replay_journal(const SessionJournal& journal, Tick now,
                      std::string* error);

  const std::uint32_t id_;
  const core::NegotiationProblem& problem_;
  core::PreferenceOracle& oracle_a_;
  core::PreferenceOracle& oracle_b_;
  const core::NegotiationConfig config_;
  const ChannelFactory make_channels_;
  const SessionLimits limits_;

  SessionStatus status_ = SessionStatus::kPending;
  std::unique_ptr<agent::Channel> chan_a_, chan_b_;
  std::unique_ptr<agent::NegotiationAgent> agent_a_, agent_b_;
  bool needs_kick_ = false;
  int attempts_ = 0;       // attempts begun (restarts included)
  int retries_used_ = 0;   // failures consumed against max_attempts
  std::size_t steps_ = 0;
  std::uint64_t messages_ = 0;  // incremented by the counting decorator
  std::uint64_t timeouts_ = 0;  // deadline expiries that acted
  Tick attempt_began_ = 0;
  Tick last_progress_ = 0;
  Tick started_at_ = 0;
  Tick finished_at_ = 0;
  /// Accumulated kill->resume downtime (manager ticks the session did not
  /// experience). 0 until a resume happens.
  Tick offset_ = 0;
  SessionJournal* journal_ = nullptr;  // null = durability off
  /// Side A's assignment as the last WAL record left it: the next record
  /// logs only the flows that differ (reset to the defaults at every
  /// checkpoint).
  std::vector<std::size_t> wal_baseline_;
  std::string error_;
  core::NegotiationOutcome outcome_;
};

}  // namespace nexit::runtime
