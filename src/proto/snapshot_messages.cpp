#include "proto/snapshot_messages.hpp"

#include <algorithm>

namespace nexit::proto {

namespace {

/// A mark's assignment has one entry per flow; anything larger than the
/// blob cap is garbage, refuse before allocating.
constexpr std::size_t kMaxAssignment = 1u << 20;

void encode_mark(Writer& w, const SnapshotNegotiationMark& m) {
  w.put_u8(m.live);
  w.put_u8(m.state_a);
  w.put_u8(m.state_b);
  w.put_varint(m.round);
  w.put_varint(m.remaining);
  w.put_signed(m.disclosed_gain_a);
  w.put_signed(m.disclosed_gain_b);
  w.put_double(m.true_gain_a);
  w.put_varint(m.pending_moves);
  w.put_varint(m.pending_settles);
  w.put_varint(m.flows);
  w.put_varint(m.moves.size());
  for (const SnapshotMove& mv : m.moves) {
    w.put_varint(mv.flow);
    w.put_varint(mv.ix);
  }
}

/// Empty on success, else why the delta is refused.
std::string decode_mark(Reader& r, SnapshotNegotiationMark& m) {
  m.live = r.get_u8();
  m.state_a = r.get_u8();
  m.state_b = r.get_u8();
  m.round = r.get_varint();
  m.remaining = r.get_varint();
  m.disclosed_gain_a = r.get_signed();
  m.disclosed_gain_b = r.get_signed();
  m.true_gain_a = r.get_double();
  m.pending_moves = r.get_varint();
  m.pending_settles = r.get_varint();
  m.flows = r.get_varint();
  const std::uint64_t count = r.get_varint();
  if (!r.ok()) return "";  // truncated: reported as malformed
  if (m.flows > kMaxAssignment)
    return "mark claims " + std::to_string(m.flows) + " flows";
  if (count > m.flows)
    return "delta of " + std::to_string(count) + " moves over " +
           std::to_string(m.flows) + " flows";
  // Each move takes at least two bytes: a short payload cannot make the
  // reservation large.
  m.moves.reserve(std::min(static_cast<std::size_t>(count), r.remaining() / 2));
  for (std::uint64_t i = 0; i < count && r.ok(); ++i) {
    SnapshotMove mv;
    mv.flow = r.get_varint();
    mv.ix = r.get_varint();
    if (!r.ok()) break;
    if (mv.flow >= m.flows)
      return "delta moves flow " + std::to_string(mv.flow) + " of " +
             std::to_string(m.flows);
    if (!m.moves.empty() && mv.flow <= m.moves.back().flow)
      return "delta flows not strictly increasing";
    m.moves.push_back(mv);
  }
  return "";
}

}  // namespace

Frame encode_snapshot_checkpoint(const SnapshotCheckpoint& cp) {
  Frame frame;
  frame.type =
      static_cast<std::uint8_t>(SnapshotMessageType::kSnapshotCheckpoint);
  Writer w;
  w.put_varint(cp.version);  // first field, so a mismatch is detectable
                             // before any schema-dependent decoding
  w.put_varint(cp.session);
  w.put_u8(cp.status);
  w.put_varint(cp.attempts);
  w.put_varint(cp.retries_used);
  w.put_varint(cp.steps);
  w.put_varint(cp.messages);
  w.put_varint(cp.timeouts);
  w.put_varint(cp.started_at);
  w.put_varint(cp.attempt_began);
  frame.payload = std::move(w).take();
  return frame;
}

Frame encode_snapshot_wal_event(const SnapshotWalEvent& ev) {
  Frame frame;
  frame.type =
      static_cast<std::uint8_t>(SnapshotMessageType::kSnapshotWalEvent);
  Writer w;
  w.reserve(64 + 8 * ev.mark.moves.size() + ev.note.size());
  w.put_u8(ev.kind);
  w.put_varint(ev.tick);
  w.put_u8(ev.pre_status);
  w.put_varint(ev.pre_attempts);
  w.put_varint(ev.pre_retries);
  w.put_varint(ev.pre_steps);
  w.put_varint(ev.pre_messages);
  w.put_varint(ev.pre_timeouts);
  encode_mark(w, ev.mark);
  w.put_string(ev.note);
  frame.payload = std::move(w).take();
  return frame;
}

util::Result<SnapshotCheckpoint> decode_snapshot_checkpoint(
    const Frame& frame) {
  if (frame.type !=
      static_cast<std::uint8_t>(SnapshotMessageType::kSnapshotCheckpoint))
    return util::make_error("snapshot: frame type " +
                            std::to_string(frame.type) +
                            " is not a checkpoint");
  Reader r(frame.payload);
  SnapshotCheckpoint cp;
  cp.version = static_cast<std::uint32_t>(r.get_varint());
  if (r.ok() && cp.version != kSnapshotVersion)
    return util::make_error(
        "snapshot version mismatch: log was written by schema v" +
        std::to_string(cp.version) + ", this build speaks v" +
        std::to_string(kSnapshotVersion) +
        " (bump kSnapshotVersion consciously and regenerate fixtures)");
  cp.session = static_cast<std::uint32_t>(r.get_varint());
  cp.status = r.get_u8();
  cp.attempts = static_cast<std::uint32_t>(r.get_varint());
  cp.retries_used = static_cast<std::uint32_t>(r.get_varint());
  cp.steps = r.get_varint();
  cp.messages = r.get_varint();
  cp.timeouts = r.get_varint();
  cp.started_at = r.get_varint();
  cp.attempt_began = r.get_varint();
  if (!r.at_end())
    return util::make_error("snapshot: malformed checkpoint payload");
  return cp;
}

util::Result<SnapshotWalEvent> decode_snapshot_wal_event(const Frame& frame) {
  if (frame.type !=
      static_cast<std::uint8_t>(SnapshotMessageType::kSnapshotWalEvent))
    return util::make_error("snapshot: frame type " +
                            std::to_string(frame.type) +
                            " is not a WAL event");
  Reader r(frame.payload);
  SnapshotWalEvent ev;
  ev.kind = r.get_u8();
  ev.tick = r.get_varint();
  ev.pre_status = r.get_u8();
  ev.pre_attempts = static_cast<std::uint32_t>(r.get_varint());
  ev.pre_retries = static_cast<std::uint32_t>(r.get_varint());
  ev.pre_steps = r.get_varint();
  ev.pre_messages = r.get_varint();
  ev.pre_timeouts = r.get_varint();
  const std::string bad_delta = decode_mark(r, ev.mark);
  if (!bad_delta.empty())
    return util::make_error("snapshot: WAL event " + bad_delta);
  ev.note = r.get_string();
  if (!r.at_end())
    return util::make_error("snapshot: malformed WAL event payload");
  if (ev.kind > static_cast<std::uint8_t>(WalEventKind::kKill))
    return util::make_error("snapshot: unknown WAL event kind " +
                            std::to_string(ev.kind));
  return ev;
}

}  // namespace nexit::proto
