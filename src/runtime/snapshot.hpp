#pragma once

// Durable negotiation state (the ROADMAP "long-lived negotiator" item): a
// SnapshotStore keeps, per session, the latest attempt-boundary checkpoint
// plus a write-ahead log of the scheduling events applied since, framed by
// proto/snapshot_messages. Session::kill() wipes every in-memory artifact
// and Session::resume() rebuilds the state from the durable bytes alone:
// decode the checkpoint, re-begin the attempt through the deterministic
// ChannelFactory, replay the WAL tail at its recorded session-local ticks,
// and verify each record's pre-state marks along the way. Downtime between
// kill and resume is excised by the session's tick offset, so a resumed
// run's per-session bookkeeping is bit-identical to an uninterrupted one
// (docs/ARCHITECTURE.md § Durability walks through why).

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "proto/snapshot_messages.hpp"

namespace nexit::runtime {

/// Durable bytes of one session: the latest checkpoint frame plus the WAL
/// frames appended since. A fresh checkpoint supersedes (truncates) the
/// log — a retry or planned restart rebuilds transports from scratch, so
/// nothing before the boundary is needed to replay. Always held in memory;
/// mirrored to `<dir>/session_<id>.snap` / `.wal` when file-backed (the CI
/// crash-recovery step uploads those on failure).
///
/// Thread-safety: a journal is written only by its owning Session, which
/// the manager confines to one worker per round — the same argument that
/// makes Session itself safe.
class SessionJournal {
 public:
  SessionJournal(std::uint32_t id, std::string dir);

  /// Replaces the snapshot and clears the WAL (attempt boundary).
  void write_checkpoint(const proto::SnapshotCheckpoint& cp);
  void append_event(const proto::SnapshotWalEvent& ev);

  [[nodiscard]] const proto::Bytes& snapshot_bytes() const { return snap_; }
  [[nodiscard]] const proto::Bytes& wal_bytes() const { return wal_; }
  [[nodiscard]] bool empty() const { return snap_.empty() && wal_.empty(); }
  [[nodiscard]] std::size_t wal_events() const { return wal_events_; }
  [[nodiscard]] std::size_t checkpoints() const { return checkpoints_; }

  /// Replaces the durable bytes wholesale (restore-path tests and fuzzing
  /// feed corrupted logs through this).
  void load(proto::Bytes snap, proto::Bytes wal);

 private:
  void mirror(const std::string& suffix, const std::uint8_t* data,
              std::size_t size, bool append) const;

  const std::uint32_t id_;
  const std::string dir_;  // empty = memory-only
  proto::Bytes snap_, wal_;
  std::size_t wal_events_ = 0;
  std::size_t checkpoints_ = 0;
};

/// Per-session journals of one scenario run. Journals are heap-pinned so
/// Sessions can hold stable pointers across map growth.
class SnapshotStore {
 public:
  explicit SnapshotStore(std::string dir = "");

  /// The journal for `id`, created on first use.
  SessionJournal& journal(std::uint32_t id);
  [[nodiscard]] const SessionJournal* find(std::uint32_t id) const;
  [[nodiscard]] const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
  std::map<std::uint32_t, std::unique_ptr<SessionJournal>> journals_;
};

/// What Session::resume reconstructed from the durable bytes.
enum class RestoreOutcome {
  /// Checkpoint + WAL tail replayed and verified; the session continues
  /// mid-negotiation exactly where the kill interrupted it.
  kResumed,
  /// No durable state (killed before the first attempt began): back to
  /// kPending, the caller schedules an ordinary start.
  kFreshPending,
  /// The log was corrupt, truncated mid-record, or failed a pre-state
  /// verification: the session reset to kPending for a fresh negotiation.
  /// Never resumes wrong data; callers count this in obs.
  kFellBack,
};

}  // namespace nexit::runtime
