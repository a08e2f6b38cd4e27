#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "proto/crc32.hpp"
#include "proto/dist_messages.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "proto/snapshot_messages.hpp"
#include "proto/wire.hpp"
#include "util/rng.hpp"

namespace nexit::proto {
namespace {

TEST(Wire, VarintRoundTrip) {
  Writer w;
  const std::uint64_t values[] = {0, 1, 127, 128, 300, 1u << 20,
                                  0xffffffffffffffffull};
  for (auto v : values) w.put_varint(v);
  Reader r(w.data());
  for (auto v : values) EXPECT_EQ(r.get_varint(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, SignedZigZagRoundTrip) {
  Writer w;
  const std::int64_t values[] = {0, -1, 1, -64, 63, -1000000, 1000000,
                                 INT64_MIN, INT64_MAX};
  for (auto v : values) w.put_signed(v);
  Reader r(w.data());
  for (auto v : values) EXPECT_EQ(r.get_signed(), v);
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, SmallMagnitudesAreOneByte) {
  Writer w;
  w.put_signed(-10);
  EXPECT_EQ(w.data().size(), 1u);
}

TEST(Wire, DoubleRoundTrip) {
  Writer w;
  const double values[] = {0.0, -1.5, 3.14159265358979, 1e-300, 1e300};
  for (double v : values) w.put_double(v);
  Reader r(w.data());
  for (double v : values) EXPECT_DOUBLE_EQ(r.get_double(), v);
}

TEST(Wire, StringAndBytesRoundTrip) {
  Writer w;
  w.put_string("hello");
  w.put_string("");
  Reader r(w.data());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_string(), "");
  EXPECT_TRUE(r.at_end());
}

TEST(Wire, TruncatedInputLatchesError) {
  Writer w;
  w.put_varint(1u << 30);
  Bytes data = w.data();
  data.pop_back();
  Reader r(data);
  (void)r.get_varint();
  EXPECT_FALSE(r.ok());
  // Further reads stay zero and keep the error.
  EXPECT_EQ(r.get_u8(), 0);
  EXPECT_FALSE(r.ok());
}

TEST(Wire, OversizedLengthPrefixRejected) {
  Writer w;
  w.put_varint(Reader::kMaxCount + 1);
  Reader r(w.data());
  (void)r.get_string();
  EXPECT_FALSE(r.ok());
}

TEST(Wire, VarintOverflowRejected) {
  Bytes evil(11, 0xff);  // 11 continuation bytes > 64 bits
  Reader r(evil);
  (void)r.get_varint();
  EXPECT_FALSE(r.ok());
}

TEST(Crc32, KnownVectors) {
  // CRC-32("123456789") = 0xCBF43926 (classic check value).
  const char* s = "123456789";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(s), 9), 0xcbf43926u);
  EXPECT_EQ(crc32(nullptr, 0), 0u);
  // Longer than one 8-byte slice, with a byte-wise tail (zlib's values).
  const char* fox = "The quick brown fox jumps over the lazy dog";
  EXPECT_EQ(crc32(reinterpret_cast<const std::uint8_t*>(fox), 43),
            0x414fa339u);
  const std::vector<std::uint8_t> zeros(32, 0x00), ones(32, 0xff);
  EXPECT_EQ(crc32(zeros.data(), zeros.size()), 0x190a55adu);
  EXPECT_EQ(crc32(ones.data(), ones.size()), 0xff6cab0bu);
}

/// CRC-32 one bit at a time, straight from the reflected polynomial.
std::uint32_t bitwise_crc32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t c = 0xffffffffu;
  for (std::size_t i = 0; i < size; ++i) {
    c ^= data[i];
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
  }
  return c ^ 0xffffffffu;
}

TEST(Crc32, MatchesBitwiseReferenceAtEveryLengthAndOffset) {
  // Every split into 8-byte slices and a 0..7-byte tail, from every
  // alignment of the start pointer.
  util::Rng rng(29);
  std::vector<std::uint8_t> buf(8 + 257);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.next_below(256));
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 257; ++len) {
      const std::uint8_t* p = buf.data() + offset;
      ASSERT_EQ(crc32(p, len), bitwise_crc32(p, len))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Frame, EncodeDecodeRoundTrip) {
  Frame f;
  f.type = 7;
  f.payload = {1, 2, 3, 4, 5};
  Bytes wire = encode_frame(f);
  FrameDecoder d;
  d.feed(wire);
  auto got = d.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->type, 7);
  EXPECT_EQ(got->payload, f.payload);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_FALSE(d.failed());
}

TEST(Frame, ByteAtATimeDelivery) {
  Frame f;
  f.type = 3;
  f.payload = {9, 8, 7};
  Bytes wire = encode_frame(f);
  FrameDecoder d;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    EXPECT_FALSE(d.next().has_value()) << "frame complete too early";
    d.feed(&wire[i], 1);
  }
  auto got = d.next();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, f.payload);
}

TEST(Frame, ChunkedFeedsMatchOneFeedAndStayBounded) {
  // The decoder's buffer is contiguous with a read offset: however the
  // stream is cut, it yields the same frames, and the consumed prefix is
  // dropped so a stream that always has a partial frame pending holds at
  // most that frame plus the newest chunk.
  util::Rng rng(17);
  Bytes stream;
  std::size_t largest = 0;
  for (int i = 0; i < 60; ++i) {
    Frame f;
    f.type = static_cast<std::uint8_t>(1 + i % 9);
    f.payload.resize(rng.next_below(300));
    for (std::uint8_t& b : f.payload)
      b = static_cast<std::uint8_t>(rng.next_below(256));
    const Bytes one = encode_frame(f);
    largest = std::max(largest, one.size());
    stream.insert(stream.end(), one.begin(), one.end());
  }
  std::vector<Frame> whole;
  FrameDecoder all;
  all.feed(stream);
  while (auto f = all.next()) whole.push_back(std::move(*f));
  ASSERT_EQ(whole.size(), 60u);

  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{4096}}) {
    FrameDecoder d;
    std::vector<Frame> got;
    std::size_t peak = 0;
    for (std::size_t at = 0; at < stream.size(); at += chunk) {
      const std::size_t n = std::min(chunk, stream.size() - at);
      if (chunk == 7) {
        d.feed(Bytes(stream.begin() + static_cast<std::ptrdiff_t>(at),
                     stream.begin() + static_cast<std::ptrdiff_t>(at + n)));
      } else {
        d.feed(stream.data() + at, n);
      }
      peak = std::max(peak, d.buffered());
      while (auto f = d.next()) got.push_back(std::move(*f));
    }
    EXPECT_FALSE(d.failed()) << d.error();
    ASSERT_EQ(got.size(), whole.size()) << "chunk " << chunk;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].type, whole[i].type) << i;
      EXPECT_EQ(got[i].payload, whole[i].payload) << i;
    }
    EXPECT_LE(peak, largest + chunk) << "chunk " << chunk;
    EXPECT_EQ(d.buffered(), 0u);
  }
}

TEST(Frame, MultipleFramesInOneChunk) {
  Bytes wire;
  for (std::uint8_t t = 1; t <= 3; ++t) {
    Frame f;
    f.type = t;
    f.payload = {t};
    Bytes one = encode_frame(f);
    wire.insert(wire.end(), one.begin(), one.end());
  }
  FrameDecoder d;
  d.feed(wire);
  for (std::uint8_t t = 1; t <= 3; ++t) {
    auto got = d.next();
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->type, t);
  }
  EXPECT_FALSE(d.next().has_value());
}

TEST(Frame, CorruptionPoisonsStream) {
  Frame f;
  f.type = 1;
  f.payload = {1, 2, 3};
  Bytes wire = encode_frame(f);
  wire[10] ^= 0xff;  // flip a payload byte -> CRC mismatch
  FrameDecoder d;
  d.feed(wire);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.failed());
  EXPECT_EQ(d.error(), "crc mismatch");
}

TEST(Frame, BadMagicPoisonsStream) {
  Bytes junk{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  FrameDecoder d;
  d.feed(junk);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.failed());
}

TEST(Frame, HugeLengthRejected) {
  Frame f;
  f.type = 1;
  Bytes wire = encode_frame(f);
  wire[7] = 0xff;  // length high byte -> > kMaxPayload
  FrameDecoder d;
  d.feed(wire);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.failed());
}

Message roundtrip(const Message& m) {
  const Frame f = encode_message(m);
  auto r = decode_message(f);
  EXPECT_TRUE(r.ok()) << (r.ok() ? "" : r.error().message);
  return r.value();
}

TEST(Messages, HelloRoundTrip) {
  Hello h;
  h.asn = 7018;
  h.pref_range = 10;
  h.wants_reassignment = true;
  h.reassign_fraction = 0.05;
  h.turn_policy = 1;
  h.termination_policy = 2;
  EXPECT_EQ(std::get<Hello>(roundtrip(h)), h);
}

TEST(Messages, CandidatesRoundTrip) {
  Candidates c;
  c.interconnection_ids = {0, 2, 5};
  EXPECT_EQ(std::get<Candidates>(roundtrip(c)), c);
}

TEST(Messages, FlowAnnounceRoundTrip) {
  FlowAnnounce fa;
  fa.flows = {{1, 0, 12.5}, {7, 2, 0.25}};
  EXPECT_EQ(std::get<FlowAnnounce>(roundtrip(fa)), fa);
}

PrefAdvert sample_advert() {
  PrefAdvert pa;
  pa.reassignment = true;
  pa.add_row(3, std::vector<std::int32_t>{-10, 0, 10});
  pa.add_row(4, std::vector<std::int32_t>{1, -1, 0});
  return pa;
}

TEST(Messages, PrefAdvertRoundTrip) {
  const PrefAdvert pa = sample_advert();
  EXPECT_EQ(std::get<PrefAdvert>(roundtrip(pa)), pa);
  EXPECT_EQ(pa.rows(), 2u);
  EXPECT_EQ(std::vector<std::int32_t>(pa.row(1).begin(), pa.row(1).end()),
            (std::vector<std::int32_t>{1, -1, 0}));
}

TEST(Messages, PrefAdvertWireBytesArePinned) {
  // The advert's in-memory layout (CSR rows) is not its wire format: the
  // bytes stay u8 reassignment, varint rows, then per row varint flow id,
  // varint length and zig-zag classes, as they were with one vector per row.
  const Bytes payload = {0x01,                                // reassignment
                         0x02,                                // 2 rows
                         0x03, 0x03, 0x13, 0x00, 0x14,        // flow 3: -10 0 10
                         0x04, 0x03, 0x02, 0x01, 0x00};       // flow 4: 1 -1 0
  const Frame f = encode_message(sample_advert());
  EXPECT_EQ(f.type, static_cast<std::uint8_t>(MessageType::kPrefAdvert));
  EXPECT_EQ(f.payload, payload);
  const Bytes wire = {0x4e, 0x58, 0x01, 0x04, 0x0c, 0x00, 0x00, 0x00,  // header
                      0x01, 0x02, 0x03, 0x03, 0x13, 0x00, 0x14, 0x04,  // payload
                      0x03, 0x02, 0x01, 0x00,
                      0x91, 0x10, 0xec, 0xc9};                         // crc32
  EXPECT_EQ(encode_frame(f), wire);

  // A ragged advert (rows of different lengths) still decodes as one; the
  // receiving agent rejects its shape (AgentSession.MalformedPrefAdvert...).
  PrefAdvert ragged;
  ragged.add_row(1, std::vector<std::int32_t>{0});
  ragged.add_row(2, std::vector<std::int32_t>{0, 1, 2});
  const PrefAdvert back = std::get<PrefAdvert>(roundtrip(ragged));
  EXPECT_EQ(back, ragged);
  EXPECT_EQ(back.row(0).size(), 1u);
  EXPECT_EQ(back.row(1).size(), 3u);
}

/// "tt pppp...": the frame's type byte, a space, then its payload, in hex.
std::string frame_hex(const Frame& f) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out = {kDigits[f.type >> 4], kDigits[f.type & 15], ' '};
  for (std::uint8_t b : f.payload) {
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

// One sample of every message of all three families, byte for byte: a codec
// change that moves a single wire byte fails here, whatever still round-trips.
TEST(WirePins, EveryNegotiationMessage) {
  Hello hello;
  hello.asn = 7018;
  hello.pref_range = 10;
  hello.wants_reassignment = true;
  hello.reassign_fraction = 0.05;
  hello.turn_policy = 1;
  hello.proposal_policy = 2;
  hello.acceptance_policy = 3;
  hello.termination_policy = 2;
  hello.settlement_rollback = false;
  const std::vector<std::pair<Message, std::string>> pins = {
      {hello, "01 ea36" "14" "01" "9a9999999999a93f" "01020302" "00"},
      {Candidates{{0, 2, 300}}, "02 030002ac02"},
      {FlowAnnounce{{{1, 0, 12.5}, {70000, 2, 0.25}}},
       "03 02" "01" "00" "0000000000002940" "f0a204" "02" "000000000000d03f"},
      {sample_advert(), "04 010203031300140403020100"},
      {Propose{200, 70000, 3}, "05 c801f0a20403"},
      {Response{200, false}, "06 c80100"},
      {Stop{3}, "07 03"},
      {Bye{}, "08 "},
      {Rollback{{5, 9, 130}}, "09 0305098201"},
  };
  for (const auto& [message, bytes] : pins) {
    const Frame f = encode_message(message);
    EXPECT_EQ(frame_hex(f), bytes);
    EXPECT_EQ(roundtrip(message), message) << bytes;
  }
}

TEST(WirePins, EveryDistMessage) {
  DistResult result;
  result.job = 300;
  result.rc = -3;
  result.digest = 0xdeadbeefcafef00dull;
  result.error = "boom";
  result.metrics = {{"mean_gain", "1.25"}};
  result.counters = {{"wire.frames", 70000}};
  result.histograms = {{"wire.frame_bytes", 7, 900, {{5, 3}, {64, 4}}}};
  const std::vector<std::pair<DistMessage, std::string>> pins = {
      {DistHello{}, "10 01"},
      {DistJob{9, "fig4", "p", "isps=12\n"},
       "11 09" "0466696734" "0170" "08697370733d31320a"},
      {result,
       "12 ac02" "05" "8de0fbd7fcddefd6de01" "04626f6f6d"  // job .. error
       "01" "096d65616e5f6761696e" "04312e3235"           // metrics
       "01" "0b776972652e6672616d6573" "f0a204"           // counters
       "01" "10776972652e6672616d655f6279746573" "07"     // histograms
       "8407" "02" "0503" "4004"},
      {DistShutdown{}, "13 "},
  };
  for (const auto& [message, bytes] : pins) {
    const Frame f = encode_dist_message(message);
    EXPECT_EQ(frame_hex(f), bytes);
    const auto back = decode_dist_message(f);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value(), message) << bytes;
  }
}

TEST(WirePins, EverySnapshotRecord) {
  SnapshotCheckpoint cp;
  cp.session = 3;
  cp.status = 1;
  cp.attempts = 2;
  cp.retries_used = 1;
  cp.steps = 17;
  cp.messages = 300;
  cp.timeouts = 1;
  cp.started_at = 4;
  cp.attempt_began = 9;
  const Frame cp_frame = encode_snapshot_checkpoint(cp);
  EXPECT_EQ(frame_hex(cp_frame), "18 020301020111ac02010409");
  ASSERT_TRUE(decode_snapshot_checkpoint(cp_frame).ok());
  EXPECT_EQ(decode_snapshot_checkpoint(cp_frame).value(), cp);

  SnapshotWalEvent pump;
  pump.kind = static_cast<std::uint8_t>(WalEventKind::kPump);
  pump.tick = 11;
  pump.pre_status = 1;
  pump.pre_attempts = 2;
  pump.pre_retries = 1;
  pump.pre_steps = 17;
  pump.pre_messages = 300;
  pump.pre_timeouts = 1;
  pump.mark.live = 1;
  pump.mark.state_a = 2;
  pump.mark.state_b = 3;
  pump.mark.round = 5;
  pump.mark.remaining = 2;
  pump.mark.disclosed_gain_a = 7;
  pump.mark.disclosed_gain_b = -200;
  pump.mark.true_gain_a = 1.25;
  pump.mark.pending_moves = 1;
  pump.mark.pending_settles = 0;
  pump.mark.flows = 200;
  pump.mark.moves = {{0, 2}, {150, 1}};
  SnapshotWalEvent cancel;
  cancel.kind = static_cast<std::uint8_t>(WalEventKind::kCancel);
  cancel.tick = 8;
  cancel.note = "link failed";
  const std::vector<std::pair<SnapshotWalEvent, std::string>> pins = {
      {pump, "19 00" "0b" "01" "02" "01" "11" "ac02" "01"  // event, pre-state
             "010203" "05" "02" "0e" "8f03"               // mark
             "000000000000f43f" "01" "00" "c801"
             "02" "0002" "960101" "00"},
      {cancel, "19 02" "08" "00" "00" "00" "00" "00" "00"
               "000000" "00" "00" "00" "00" "0000000000000000"
               "00" "00" "00" "00" "0b6c696e6b206661696c6564"},
  };
  for (const auto& [event, bytes] : pins) {
    const Frame f = encode_snapshot_wal_event(event);
    EXPECT_EQ(frame_hex(f), bytes);
    const auto back = decode_snapshot_wal_event(f);
    ASSERT_TRUE(back.ok()) << back.error().message;
    EXPECT_EQ(back.value(), event) << bytes;
  }
}

TEST(Messages, ProposeResponseStopByeRoundTrip) {
  Propose p{42, 7, 2};
  EXPECT_EQ(std::get<Propose>(roundtrip(p)), p);
  Response r{42, false};
  EXPECT_EQ(std::get<Response>(roundtrip(r)), r);
  Stop s{3};
  EXPECT_EQ(std::get<Stop>(roundtrip(s)), s);
  EXPECT_EQ(std::get<Bye>(roundtrip(Bye{})), Bye{});
}

TEST(Messages, UnknownTypeIsError) {
  Frame f;
  f.type = 200;
  EXPECT_FALSE(decode_message(f).ok());
}

TEST(Messages, TrailingGarbageIsError) {
  Frame f = encode_message(Stop{1});
  f.payload.push_back(0xee);
  EXPECT_FALSE(decode_message(f).ok());
}

TEST(Messages, OverlongListCountIsError) {
  // A count above the list cap with nothing after it must not read as an
  // empty list: an empty ROLLBACK, for one, ends a settlement.
  const Bytes huge = {0xff, 0xff, 0xff, 0x0f};  // 2^28 - 1
  for (const MessageType type :
       {MessageType::kCandidates, MessageType::kFlowAnnounce,
        MessageType::kRollback}) {
    Frame f;
    f.type = static_cast<std::uint8_t>(type);
    f.payload = huge;
    EXPECT_FALSE(decode_message(f).ok()) << static_cast<int>(type);
  }
  Frame rows;  // PREF_ADVERT: reassignment byte, then the row count
  rows.type = static_cast<std::uint8_t>(MessageType::kPrefAdvert);
  rows.payload = {0x00, 0xff, 0xff, 0xff, 0x0f};
  EXPECT_FALSE(decode_message(rows).ok());
  Frame row = rows;  // one row, flow 7, with an overlong class count
  row.payload = {0x00, 0x01, 0x07, 0xff, 0xff, 0xff, 0x0f};
  EXPECT_FALSE(decode_message(row).ok());
}

/// A frame of `type` whose payload is `fill`'s writes.
template <class Fill>
Frame hand_made(MessageType type, Fill fill) {
  Writer w;
  fill(w);
  return Frame{static_cast<std::uint8_t>(type), std::move(w).take()};
}

TEST(Messages, ValuesThatDoNotFitTheirFieldAreErrors) {
  // Each payload is well formed but for one value wider than its field; cut
  // to the field's width it would read as a different, valid message.
  constexpr std::uint64_t k2p32 = std::uint64_t{1} << 32;
  const std::vector<std::pair<std::string, Frame>> cases = {
      {"advert class 2^32 + 1", hand_made(MessageType::kPrefAdvert,
                                          [](Writer& w) {
                                            w.put_u8(0);
                                            w.put_varint(1);  // one row
                                            w.put_varint(3);  // flow 3
                                            w.put_varint(1);  // one class
                                            w.put_signed(k2p32 + 1);
                                          })},
      {"propose flow 2^32 + 5", hand_made(MessageType::kPropose,
                                          [](Writer& w) {
                                            w.put_varint(1);
                                            w.put_varint(k2p32 + 5);
                                            w.put_varint(0);
                                          })},
      {"hello pref_range 2^31", hand_made(MessageType::kHello,
                                          [](Writer& w) {
                                            w.put_varint(7018);
                                            w.put_signed(std::int64_t{1} << 31);
                                            w.put_u8(0);
                                            w.put_double(0.0);
                                            for (int i = 0; i < 5; ++i)
                                              w.put_u8(0);
                                          })},
      {"candidate id 2^32", hand_made(MessageType::kCandidates,
                                      [](Writer& w) {
                                        w.put_varint(1);
                                        w.put_varint(k2p32);
                                      })},
      {"response flag 2", hand_made(MessageType::kResponse,
                                    [](Writer& w) {
                                      w.put_varint(1);
                                      w.put_u8(2);
                                    })},
  };
  for (const auto& [name, frame] : cases)
    EXPECT_FALSE(decode_message(frame).ok()) << name;
}

TEST(Messages, TruncatedPayloadIsError) {
  Frame f = encode_message(Propose{1, 2, 3});
  f.payload.pop_back();
  auto r = decode_message(f);
  EXPECT_FALSE(r.ok());
}

// Fuzz-ish property: random byte payloads never crash the decoder and either
// parse cleanly or return an error.
class MessageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MessageFuzz, RandomPayloadsNeverCrash) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    Frame f;
    f.type = static_cast<std::uint8_t>(rng.next_below(12));
    const std::size_t n = rng.pick_index(64) + (rng.next_bool(0.5) ? 0 : 1);
    for (std::size_t i = 0; i < n; ++i)
      f.payload.push_back(static_cast<std::uint8_t>(rng.next_below(256)));
    auto r = decode_message(f);
    (void)r.ok();  // must not crash or throw
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MessageFuzz, ::testing::Values(1, 2, 3, 4, 5));

}  // namespace
}  // namespace nexit::proto
