#include "proto/snapshot_messages.hpp"

#include "proto/codec.hpp"

namespace nexit::proto {

// The field lists, in wire order (see proto/codec.hpp).

template <class IO>
void fields(IO& io, Field<IO, SnapshotCheckpoint>& cp) {
  io.varint(cp.version);  // first, so a mismatch is told apart from damage
  io.varint(cp.session);
  io.u8(cp.status);
  io.varint(cp.attempts, cp.retries_used, cp.steps, cp.messages, cp.timeouts,
            cp.started_at, cp.attempt_began);
}

template <class IO>
void fields(IO& io, Field<IO, SnapshotNegotiationMark>& m) {
  io.u8(m.live, m.state_a, m.state_b);
  io.varint(m.round, m.remaining);
  io.zigzag(m.disclosed_gain_a, m.disclosed_gain_b);
  io.f64(m.true_gain_a);
  io.varint(m.pending_moves, m.pending_settles, m.flows);
  io.list("delta", m.moves, [&](auto& mv) { io.varint(mv.flow, mv.ix); });
}

template <class IO>
void fields(IO& io, Field<IO, SnapshotWalEvent>& ev) {
  io.u8(ev.kind);
  io.varint(ev.tick);
  io.u8(ev.pre_status);
  io.varint(ev.pre_attempts, ev.pre_retries, ev.pre_steps, ev.pre_messages,
            ev.pre_timeouts);
  fields(io, ev.mark);
  io.string(ev.note);
}

namespace {

/// `frame` read as the record of type `type`, or why it is not one.
template <class T>
util::Result<T> decode_record(const Frame& frame, SnapshotMessageType type,
                              const char* what) {
  if (frame.type != static_cast<std::uint8_t>(type))
    return util::make_error("snapshot: frame type " +
                            std::to_string(frame.type) + " is not a " + what);
  T out;
  const std::string why = decode_fields(frame.payload, out);
  if (!why.empty())
    return util::make_error(std::string("snapshot: malformed ") + what +
                            " payload: " + why);
  return out;
}

}  // namespace

Frame encode_snapshot_checkpoint(const SnapshotCheckpoint& cp) {
  return encode_fields(SnapshotMessageType::kSnapshotCheckpoint, cp);
}

Frame encode_snapshot_wal_event(const SnapshotWalEvent& ev) {
  return encode_fields(SnapshotMessageType::kSnapshotWalEvent, ev);
}

util::Result<SnapshotCheckpoint> decode_snapshot_checkpoint(
    const Frame& frame) {
  const auto type = SnapshotMessageType::kSnapshotCheckpoint;
  Reader first(frame.payload);  // the version, checked before the rest
  const std::uint64_t version = first.get_varint();
  if (frame.type == static_cast<std::uint8_t>(type) && first.ok() &&
      version != kSnapshotVersion)
    return util::make_error(
        "snapshot version mismatch: log was written by schema v" +
        std::to_string(version) + ", this build speaks v" +
        std::to_string(kSnapshotVersion) +
        " (bump kSnapshotVersion consciously and regenerate fixtures)");
  return decode_record<SnapshotCheckpoint>(frame, type, "checkpoint");
}

util::Result<SnapshotWalEvent> decode_snapshot_wal_event(const Frame& frame) {
  auto ev = decode_record<SnapshotWalEvent>(
      frame, SnapshotMessageType::kSnapshotWalEvent, "WAL event");
  if (!ev.ok()) return ev;
  // The delta must be the unique encoding of its moves.
  const SnapshotNegotiationMark& m = ev.value().mark;
  std::string bad;
  if (m.flows > Reader::kMaxCount)
    bad = "mark claims " + std::to_string(m.flows) + " flows";
  for (std::size_t i = 0; i < m.moves.size() && bad.empty(); ++i) {
    if (m.moves[i].flow >= m.flows)
      bad = "delta moves flow " + std::to_string(m.moves[i].flow) + " of " +
            std::to_string(m.flows);
    else if (i > 0 && m.moves[i].flow <= m.moves[i - 1].flow)
      bad = "delta flows not strictly increasing";
  }
  if (!bad.empty()) return util::make_error("snapshot: WAL event " + bad);
  if (ev.value().kind > static_cast<std::uint8_t>(WalEventKind::kKill))
    return util::make_error("snapshot: unknown WAL event kind " +
                            std::to_string(ev.value().kind));
  return ev;
}

}  // namespace nexit::proto
