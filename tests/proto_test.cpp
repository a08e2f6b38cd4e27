#include <gtest/gtest.h>

#include "proto/crc32.hpp"
#include "proto/frame.hpp"
#include "proto/messages.hpp"
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
  w.put_bytes({1, 2, 3});
  w.put_string("");
  Reader r(w.data());
  EXPECT_EQ(r.get_string(), "hello");
  EXPECT_EQ(r.get_bytes(), (Bytes{1, 2, 3}));
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
  w.put_varint(Reader::kMaxBlob + 1);
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

TEST(Messages, PrefAdvertRoundTrip) {
  PrefAdvert pa;
  pa.reassignment = true;
  pa.flows = {{3, {-10, 0, 10}}, {4, {1, -1, 0}}};
  EXPECT_EQ(std::get<PrefAdvert>(roundtrip(pa)), pa);
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
