#pragma once

// Durable-session records (runtime/snapshot): a session checkpoint written
// at every attempt boundary plus a write-ahead log of the scheduling events
// applied since. They ride the same magic/version/CRC frame layer as the
// negotiation protocol but occupy a disjoint type-byte space (>= 24;
// negotiation owns 1..9, dist owns 16..19), so a stored log can never be
// mistaken for live wire traffic even if a file were fed into a session.
//
// Restore = decode the checkpoint, rebuild the attempt through the
// session's deterministic ChannelFactory, then replay the WAL tail. Every
// WAL record carries the session state observed when the record was made
// durable (write-ahead: the record exists before its event runs), and
// replay verifies those marks field by field — a log that does not
// reproduce bit-identical state fails restore cleanly instead of resuming
// as wrong data. A mark carries side A's tentative assignment as a delta
// against the previous record of the same WAL; replay rebuilds the full
// assignment from the deltas and compares it exactly.

#include <cstdint>
#include <string>
#include <vector>

#include "proto/frame.hpp"
#include "util/result.hpp"

namespace nexit::proto {

/// Type bytes of the durability records; MessageType (negotiation) owns
/// 1..9, DistMessageType owns 16..19, this enum owns 24+.
enum class SnapshotMessageType : std::uint8_t {
  kSnapshotCheckpoint = 24,
  kSnapshotWalEvent = 25,
};

/// Version of the snapshot payload schema, independent of the frame-layer
/// kProtocolVersion (the kDistProtocolVersion pattern): a build refuses to
/// restore a log written by a different schema instead of mis-decoding it.
/// Bump consciously on any field change and add a fixture
/// tests/fixtures/session_snapshot_v<N>.bin (see tests/snapshot_test.cpp).
/// v1 carried the full assignment in every mark; v2 carries deltas.
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Session state at an attempt boundary (start, retry, planned restart).
/// All ticks are session-local virtual time (runtime/session.hpp excises
/// kill->resume downtime through a tick offset), so stored values equal an
/// uninterrupted run's bookkeeping exactly. `attempts` doubles as the RNG
/// stream position: the channel factory reseeds fault streams from the
/// 0-based attempt index `attempts - 1`, which is all replay needs to
/// rebuild identical transports.
struct SnapshotCheckpoint {
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t session = 0;
  std::uint8_t status = 0;         // runtime::SessionStatus, always kRunning
  std::uint32_t attempts = 0;      // attempts begun, including this one
  std::uint32_t retries_used = 0;  // retry budget consumed so far
  std::uint64_t steps = 0;         // pump steps before this attempt
  std::uint64_t messages = 0;      // frames offered before this attempt
  std::uint64_t timeouts = 0;      // deadline expiries before this attempt
  std::uint64_t started_at = 0;
  std::uint64_t attempt_began = 0;
  friend bool operator==(const SnapshotCheckpoint&,
                         const SnapshotCheckpoint&) = default;
};

/// One entry of a mark's assignment delta: flow `flow` (an index into the
/// problem's flows) sits on interconnection `ix`.
struct SnapshotMove {
  std::uint64_t flow = 0;
  std::uint64_t ix = 0;
  friend bool operator==(const SnapshotMove&, const SnapshotMove&) = default;
};

/// The live negotiation state a replayed prefix must land on before the
/// next WAL record applies: FSM states, round, side A's tentative
/// assignment, accumulated gains, and the un-evaluated pending delta.
/// Zeroed while no attempt is live.
///
/// The assignment is a delta: `moves` lists, in strictly increasing flow
/// order, every flow whose tentative ix changed since the previous record
/// of the same WAL (for the first record after a checkpoint: since the
/// problem's default assignment). The order makes each delta's encoding
/// unique; the decoder refuses one out of order, with a flow >= `flows`,
/// or longer than the cap.
struct SnapshotNegotiationMark {
  std::uint8_t live = 0;     // 1 when an attempt (agent pair) exists
  std::uint8_t state_a = 0;  // agent::AgentState
  std::uint8_t state_b = 0;
  std::uint64_t round = 0;
  std::uint64_t remaining = 0;         // flows still on the table (side A)
  std::int64_t disclosed_gain_a = 0;   // from disclosed preference lists
  std::int64_t disclosed_gain_b = 0;
  double true_gain_a = 0.0;            // side A's accumulated private gain
  std::uint64_t pending_moves = 0;     // side A's un-evaluated delta
  std::uint64_t pending_settles = 0;
  std::uint64_t flows = 0;             // length of side A's assignment
  std::vector<SnapshotMove> moves;     // assignment delta, see above
  friend bool operator==(const SnapshotNegotiationMark&,
                         const SnapshotNegotiationMark&) = default;
};

enum class WalEventKind : std::uint8_t {
  kPump = 0,      // the manager pumped the session
  kDeadline = 1,  // a deadline expiry acted (timeout consumed)
  kCancel = 2,    // scenario cancellation (terminal)
  kKill = 3,      // process death; `tick` pins the session-local kill time
};

/// One write-ahead record: the event about to run plus the session state
/// observed at write time (pre-state). A retry or restart supersedes the
/// log with a fresh checkpoint, so a WAL tail always replays within one
/// attempt's transports.
struct SnapshotWalEvent {
  std::uint8_t kind = 0;   // WalEventKind
  std::uint64_t tick = 0;  // session-local virtual time of the event
  std::uint8_t pre_status = 0;  // runtime::SessionStatus before the event
  std::uint32_t pre_attempts = 0;
  std::uint32_t pre_retries = 0;
  std::uint64_t pre_steps = 0;
  std::uint64_t pre_messages = 0;
  std::uint64_t pre_timeouts = 0;
  SnapshotNegotiationMark mark;
  std::string note;  // cancel reason (kCancel only)
  friend bool operator==(const SnapshotWalEvent&,
                         const SnapshotWalEvent&) = default;
};

Frame encode_snapshot_checkpoint(const SnapshotCheckpoint& cp);
Frame encode_snapshot_wal_event(const SnapshotWalEvent& ev);

/// Decode failures are errors, not exceptions — a stored log is untrusted
/// input. A schema mismatch is reported with the distinguished
/// "snapshot version mismatch" prefix so restore can refuse loudly instead
/// of silently renegotiating (kSnapshotVersion bumps must be conscious).
util::Result<SnapshotCheckpoint> decode_snapshot_checkpoint(
    const Frame& frame);
util::Result<SnapshotWalEvent> decode_snapshot_wal_event(const Frame& frame);

}  // namespace nexit::proto
