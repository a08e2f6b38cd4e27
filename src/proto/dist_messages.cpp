#include "proto/dist_messages.hpp"

#include "proto/codec.hpp"

namespace nexit::proto {

// The field lists, in wire order (see proto/codec.hpp).

template <class IO>
void fields(IO& io, Field<IO, DistHello>& m) {
  io.varint(m.protocol);
}

template <class IO>
void fields(IO& io, Field<IO, DistJob>& m) {
  io.varint(m.job);
  io.string(m.scenario, m.label, m.spec_text);
}

template <class IO>
void fields(IO& io, Field<IO, DistResult>& m) {
  io.varint(m.job);
  io.zigzag(m.rc);
  io.varint(m.digest);
  io.string(m.error);
  io.list("metrics", m.metrics,
          [&](auto& kv) { io.string(kv.first, kv.second); });
  io.list("counters", m.counters, [&](auto& kv) {
    io.string(kv.first);
    io.varint(kv.second);
  });
  io.list("histograms", m.histograms, [&](auto& h) {
    io.string(h.name);
    io.varint(h.count, h.sum);
    io.list("buckets", h.buckets,
            [&](auto& b) { io.varint(b.first, b.second); });
  });
}

template <class IO>
void fields(IO&, Field<IO, DistShutdown>&) {}

Frame encode_dist_message(const DistMessage& message) {
  return encode_variant(DistMessageType::kDistHello, message);
}

util::Result<DistMessage> decode_dist_message(const Frame& frame) {
  return decode_variant<DistMessage>(DistMessageType::kDistHello,
                                     "dist message", frame);
}

}  // namespace nexit::proto
