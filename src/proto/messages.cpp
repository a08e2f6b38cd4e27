#include "proto/messages.hpp"

#include <algorithm>

namespace nexit::proto {

namespace {

constexpr std::size_t kMaxListSize = 1u << 20;

/// False for a list count above the cap, after latching the reader: the
/// payload then fails to decode instead of reading as an empty list (an
/// empty ROLLBACK, say, is a meaningful message).
bool count_ok(Reader& r, std::uint64_t n) {
  if (n <= kMaxListSize) return true;
  while (r.ok()) (void)r.get_u8();  // the read past the end latches !ok()
  return false;
}

void encode_hello(Writer& w, const Hello& m) {
  w.put_varint(m.asn);
  w.put_signed(m.pref_range);
  w.put_u8(m.wants_reassignment ? 1 : 0);
  w.put_double(m.reassign_fraction);
  w.put_u8(m.turn_policy);
  w.put_u8(m.proposal_policy);
  w.put_u8(m.acceptance_policy);
  w.put_u8(m.termination_policy);
  w.put_u8(m.settlement_rollback ? 1 : 0);
}

Hello decode_hello(Reader& r) {
  Hello m;
  m.asn = static_cast<std::uint32_t>(r.get_varint());
  m.pref_range = static_cast<std::int32_t>(r.get_signed());
  m.wants_reassignment = r.get_u8() != 0;
  m.reassign_fraction = r.get_double();
  m.turn_policy = r.get_u8();
  m.proposal_policy = r.get_u8();
  m.acceptance_policy = r.get_u8();
  m.termination_policy = r.get_u8();
  m.settlement_rollback = r.get_u8() != 0;
  return m;
}

void encode_candidates(Writer& w, const Candidates& m) {
  w.put_varint(m.interconnection_ids.size());
  for (std::uint32_t id : m.interconnection_ids) w.put_varint(id);
}

Candidates decode_candidates(Reader& r) {
  Candidates m;
  const std::uint64_t n = r.get_varint();
  if (!count_ok(r, n)) return m;
  m.interconnection_ids.reserve(static_cast<std::size_t>(n));
  for (std::uint64_t i = 0; i < n && r.ok(); ++i)
    m.interconnection_ids.push_back(static_cast<std::uint32_t>(r.get_varint()));
  return m;
}

void encode_flow_announce(Writer& w, const FlowAnnounce& m) {
  w.put_varint(m.flows.size());
  for (const auto& f : m.flows) {
    w.put_varint(f.flow_id);
    w.put_varint(f.default_interconnection);
    w.put_double(f.size);
  }
}

FlowAnnounce decode_flow_announce(Reader& r) {
  FlowAnnounce m;
  const std::uint64_t n = r.get_varint();
  if (!count_ok(r, n)) return m;
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    FlowAnnounce::Item item;
    item.flow_id = static_cast<std::uint32_t>(r.get_varint());
    item.default_interconnection = static_cast<std::uint32_t>(r.get_varint());
    item.size = r.get_double();
    m.flows.push_back(item);
  }
  return m;
}

void encode_pref_advert(Writer& w, const PrefAdvert& m) {
  // Classes within +-63 take one byte each; ids and lengths a few more.
  w.reserve(8 + 6 * m.rows() + m.classes.size());
  w.put_u8(m.reassignment ? 1 : 0);
  w.put_varint(m.rows());
  for (std::size_t r = 0; r < m.rows(); ++r) {
    w.put_varint(m.flow_ids[r]);
    const std::span<const std::int32_t> row = m.row(r);
    w.put_varint(row.size());
    for (std::int32_t p : row) w.put_signed(p);
  }
}

PrefAdvert decode_pref_advert(Reader& r) {
  PrefAdvert m;
  m.reassignment = r.get_u8() != 0;
  const std::uint64_t n = r.get_varint();
  if (!count_ok(r, n)) return m;
  // Every row takes at least two bytes and every class one, so the payload
  // bounds both reservations.
  m.flow_ids.reserve(std::min<std::size_t>(n, r.remaining() / 2));
  m.row_begin.reserve(m.flow_ids.capacity() + 1);
  m.classes.reserve(r.remaining());
  for (std::uint64_t i = 0; i < n && r.ok(); ++i) {
    const auto flow_id = static_cast<std::uint32_t>(r.get_varint());
    const std::uint64_t k = r.get_varint();
    if (!count_ok(r, k)) break;
    m.flow_ids.push_back(flow_id);
    for (std::uint64_t j = 0; j < k && r.ok(); ++j)
      m.classes.push_back(static_cast<std::int32_t>(r.get_signed()));
    m.row_begin.push_back(static_cast<std::uint32_t>(m.classes.size()));
  }
  return m;
}

}  // namespace

Frame encode_message(const Message& message) {
  Frame frame;
  Writer w;
  w.reserve(16);  // every per-round message fits
  std::visit(
      [&](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, Hello>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kHello);
          encode_hello(w, m);
        } else if constexpr (std::is_same_v<T, Candidates>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kCandidates);
          encode_candidates(w, m);
        } else if constexpr (std::is_same_v<T, FlowAnnounce>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kFlowAnnounce);
          encode_flow_announce(w, m);
        } else if constexpr (std::is_same_v<T, PrefAdvert>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kPrefAdvert);
          encode_pref_advert(w, m);
        } else if constexpr (std::is_same_v<T, Propose>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kPropose);
          w.put_varint(m.seq);
          w.put_varint(m.flow_id);
          w.put_varint(m.interconnection_id);
        } else if constexpr (std::is_same_v<T, Response>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kResponse);
          w.put_varint(m.seq);
          w.put_u8(m.accepted ? 1 : 0);
        } else if constexpr (std::is_same_v<T, Stop>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kStop);
          w.put_u8(m.reason);
        } else if constexpr (std::is_same_v<T, Bye>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kBye);
        } else if constexpr (std::is_same_v<T, Rollback>) {
          frame.type = static_cast<std::uint8_t>(MessageType::kRollback);
          w.put_varint(m.flow_ids.size());
          for (std::uint32_t id : m.flow_ids) w.put_varint(id);
        }
      },
      message);
  frame.payload = std::move(w).take();
  return frame;
}

util::Result<Message> decode_message(const Frame& frame) {
  Reader r(frame.payload);
  Message out;
  switch (static_cast<MessageType>(frame.type)) {
    case MessageType::kHello:
      out = decode_hello(r);
      break;
    case MessageType::kCandidates:
      out = decode_candidates(r);
      break;
    case MessageType::kFlowAnnounce:
      out = decode_flow_announce(r);
      break;
    case MessageType::kPrefAdvert:
      out = decode_pref_advert(r);
      break;
    case MessageType::kPropose: {
      Propose m;
      m.seq = static_cast<std::uint32_t>(r.get_varint());
      m.flow_id = static_cast<std::uint32_t>(r.get_varint());
      m.interconnection_id = static_cast<std::uint32_t>(r.get_varint());
      out = m;
      break;
    }
    case MessageType::kResponse: {
      Response m;
      m.seq = static_cast<std::uint32_t>(r.get_varint());
      m.accepted = r.get_u8() != 0;
      out = m;
      break;
    }
    case MessageType::kStop: {
      Stop m;
      m.reason = r.get_u8();
      out = m;
      break;
    }
    case MessageType::kBye:
      out = Bye{};
      break;
    case MessageType::kRollback: {
      Rollback m;
      const std::uint64_t n = r.get_varint();
      if (count_ok(r, n)) {
        for (std::uint64_t i = 0; i < n && r.ok(); ++i)
          m.flow_ids.push_back(static_cast<std::uint32_t>(r.get_varint()));
      }
      out = std::move(m);
      break;
    }
    default:
      return util::make_error("unknown message type " +
                              std::to_string(frame.type));
  }
  if (!r.at_end())
    return util::make_error("malformed payload for message type " +
                            std::to_string(frame.type));
  return out;
}

}  // namespace nexit::proto
