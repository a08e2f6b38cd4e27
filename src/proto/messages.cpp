#include "proto/messages.hpp"

#include "proto/codec.hpp"

namespace nexit::proto {

// The field lists, in wire order (see proto/codec.hpp).

template <class IO>
void fields(IO& io, Field<IO, Hello>& m) {
  io.varint(m.asn);
  io.zigzag(m.pref_range);
  io.flag(m.wants_reassignment);
  io.f64(m.reassign_fraction);
  io.u8(m.turn_policy, m.proposal_policy, m.acceptance_policy,
        m.termination_policy);
  io.flag(m.settlement_rollback);
}

template <class IO>
void fields(IO& io, Field<IO, Candidates>& m) {
  io.list("interconnection_ids", m.interconnection_ids,
          [&](auto& id) { io.varint(id); });
}

template <class IO>
void fields(IO& io, Field<IO, FlowAnnounce>& m) {
  io.list("flows", m.flows, [&](auto& f) {
    io.varint(f.flow_id, f.default_interconnection);
    io.f64(f.size);
  });
}

template <class IO>
void fields(IO& io, Field<IO, PrefAdvert>& m) {
  io.flag(m.reassignment);
  std::size_t r = 0;
  io.list("rows", m.flow_ids, [&](auto& flow_id) {
    io.varint(flow_id);
    io.row(m.row_begin, m.classes, r++, [&](auto& c) { io.zigzag(c); });
  });
}

template <class IO>
void fields(IO& io, Field<IO, Propose>& m) {
  io.varint(m.seq, m.flow_id, m.interconnection_id);
}

template <class IO>
void fields(IO& io, Field<IO, Response>& m) {
  io.varint(m.seq);
  io.flag(m.accepted);
}

template <class IO>
void fields(IO& io, Field<IO, Stop>& m) {
  io.u8(m.reason);
}

template <class IO>
void fields(IO&, Field<IO, Bye>&) {}

template <class IO>
void fields(IO& io, Field<IO, Rollback>& m) {
  io.list("flow_ids", m.flow_ids, [&](auto& id) { io.varint(id); });
}

Frame encode_message(const Message& message) {
  return encode_variant(MessageType::kHello, message);
}

util::Result<Message> decode_message(const Frame& frame) {
  util::Result<Message> m =
      decode_variant<Message>(MessageType::kHello, "message", frame);
  const Stop* stop = m.ok() ? std::get_if<Stop>(&m.value()) : nullptr;
  if (stop != nullptr && stop->reason > Stop::kMaxReason)
    return util::make_error("unknown STOP reason " +
                            std::to_string(stop->reason));
  return m;
}

}  // namespace nexit::proto
