// Robustness of the frame decoder against hostile byte streams (seeded and
// deterministic, no libFuzzer dependency): random garbage, truncation at
// every boundary, and single-bit flips must produce clean failures or
// clean waits — never crashes, spurious frames, or over-reads.

#include <gtest/gtest.h>

#include "proto/frame.hpp"
#include "proto/messages.hpp"
#include "proto/snapshot_messages.hpp"
#include "util/rng.hpp"

namespace nexit::proto {
namespace {

Bytes random_bytes(util::Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next_below(256));
  return b;
}

/// A valid multi-frame stream with random types/payloads.
Bytes valid_stream(util::Rng& rng, std::size_t frames,
                   std::vector<Frame>* out = nullptr) {
  Bytes stream;
  for (std::size_t i = 0; i < frames; ++i) {
    Frame f;
    f.type = static_cast<std::uint8_t>(rng.next_below(16));
    f.payload = random_bytes(rng, rng.next_below(200));
    if (out != nullptr) out->push_back(f);
    const Bytes encoded = encode_frame(f);
    stream.insert(stream.end(), encoded.begin(), encoded.end());
  }
  return stream;
}

TEST(ProtoFuzz, RandomGarbageNeverCrashesOrYieldsFrames) {
  util::Rng rng(0xf00d);
  for (int trial = 0; trial < 200; ++trial) {
    FrameDecoder d;
    d.feed(random_bytes(rng, rng.next_below(512)));
    std::size_t frames = 0;
    while (d.next().has_value()) ++frames;
    // A random stream virtually never begins with the NX magic + version +
    // a CRC-consistent frame; if the decoder did not fail it must simply be
    // waiting for more bytes, having produced nothing.
    if (!d.failed()) {
      EXPECT_EQ(frames, 0u);
    }
    // Either way the next read must stay clean (no crash, no frame).
    EXPECT_FALSE(d.next().has_value());
  }
}

TEST(ProtoFuzz, TruncationAtEveryBoundaryWaitsOrFailsCleanly) {
  util::Rng rng(0xcafe);
  std::vector<Frame> sent;
  const Bytes stream = valid_stream(rng, 3, &sent);
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder d;
    d.feed(stream.data(), cut);
    std::size_t decoded = 0;
    while (auto f = d.next()) {
      // Whatever decodes from a prefix must be a prefix of what was sent.
      ASSERT_LT(decoded, sent.size());
      EXPECT_EQ(f->type, sent[decoded].type);
      EXPECT_EQ(f->payload, sent[decoded].payload);
      ++decoded;
    }
    EXPECT_FALSE(d.failed()) << "truncation is not corruption (cut=" << cut
                             << ")";
    // Feeding the remainder completes the stream exactly.
    d.feed(stream.data() + cut, stream.size() - cut);
    while (auto f = d.next()) {
      ASSERT_LT(decoded, sent.size());
      EXPECT_EQ(f->payload, sent[decoded].payload);
      ++decoded;
    }
    EXPECT_EQ(decoded, sent.size());
    EXPECT_FALSE(d.failed());
  }
}

TEST(ProtoFuzz, SingleBitFlipsAreAlwaysCaught) {
  util::Rng rng(0xbeef);
  std::vector<Frame> sent;
  const Bytes stream = valid_stream(rng, 2, &sent);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes bad = stream;
    const std::size_t byte = rng.pick_index(bad.size());
    bad[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    FrameDecoder d;
    d.feed(bad);
    std::size_t decoded = 0;
    while (auto f = d.next()) {
      // Frames before the flipped byte decode intact; the flipped frame
      // itself must never surface (CRC32 catches every 1-bit error).
      ASSERT_LT(decoded, sent.size());
      EXPECT_EQ(f->payload, sent[decoded].payload);
      ++decoded;
    }
    // The flip cannot have produced MORE frames than were sent, and the
    // frame containing the flipped byte must not have been delivered
    // (header flips may also leave the decoder waiting for phantom bytes).
    const std::size_t flipped_frame =
        byte < encode_frame(sent[0]).size() ? 0u : 1u;
    EXPECT_LE(decoded, flipped_frame);
    if (!d.failed()) {
      EXPECT_FALSE(d.next().has_value());
    }
  }
}

TEST(ProtoFuzz, OversizedLengthFieldIsRejectedNotBuffered) {
  // A header advertising > kMaxPayload must poison the stream instead of
  // making the decoder wait for (and buffer) gigabytes.
  Frame f;
  f.payload = {1, 2, 3};
  Bytes b = encode_frame(f);
  b[4] = 0xff;  // little-endian length -> huge
  b[5] = 0xff;
  b[6] = 0xff;
  b[7] = 0x7f;
  FrameDecoder d;
  d.feed(b);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.failed());
  EXPECT_NE(d.error().find("payload too large"), std::string::npos);
}

TEST(ProtoFuzz, GarbageAfterValidFramesPoisonsOnlyTheTail) {
  util::Rng rng(0x5eed);
  std::vector<Frame> sent;
  Bytes stream = valid_stream(rng, 2, &sent);
  const Bytes junk = random_bytes(rng, 64);
  stream.insert(stream.end(), junk.begin(), junk.end());
  FrameDecoder d;
  d.feed(stream);
  std::size_t decoded = 0;
  while (auto f = d.next()) {
    ASSERT_LT(decoded, sent.size());
    EXPECT_EQ(f->payload, sent[decoded].payload);
    ++decoded;
  }
  EXPECT_EQ(decoded, sent.size());
}

TEST(ProtoFuzz, RandomPayloadsSurviveMessageDecodeWithoutCrashing) {
  // One layer up: proto::decode_message on arbitrary frames must return an
  // error Result, not crash or throw something unexpected.
  util::Rng rng(0xd00d);
  for (int trial = 0; trial < 500; ++trial) {
    Frame f;
    f.type = static_cast<std::uint8_t>(rng.next_below(32));
    f.payload = random_bytes(rng, rng.next_below(128));
    const auto result = decode_message(f);
    if (!result.ok()) {
      EXPECT_FALSE(result.error().message.empty());
    }
  }
}

// --- durability records (proto/snapshot_messages) ---------------------------
// A stored journal is untrusted input just like wire bytes: any corruption
// of the snapshot/WAL stream must surface as a clean decode failure (which
// restore turns into a fresh negotiation), never as a *different* valid
// record — resuming wrong state would silently corrupt routing.

SnapshotCheckpoint fuzz_checkpoint(util::Rng& rng) {
  SnapshotCheckpoint cp;
  cp.session = static_cast<std::uint32_t>(rng.next_below(1u << 16));
  cp.status = 1;  // kRunning
  cp.attempts = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  cp.retries_used = static_cast<std::uint32_t>(rng.next_below(3));
  cp.steps = rng.next_below(1u << 20);
  cp.messages = rng.next_below(1u << 20);
  cp.timeouts = rng.next_below(8);
  cp.started_at = rng.next_below(1u << 10);
  cp.attempt_began = cp.started_at + rng.next_below(64);
  return cp;
}

SnapshotWalEvent fuzz_wal_event(util::Rng& rng) {
  SnapshotWalEvent ev;
  ev.kind = static_cast<std::uint8_t>(rng.next_below(4));
  ev.tick = rng.next_below(1u << 10);
  ev.pre_status = 1;
  ev.pre_attempts = 1 + static_cast<std::uint32_t>(rng.next_below(4));
  ev.pre_steps = rng.next_below(1u << 20);
  ev.mark.live = 1;
  ev.mark.round = rng.next_below(64);
  ev.mark.true_gain_a = static_cast<double>(rng.next_below(1000)) / 8.0;
  ev.mark.flows = 3 + rng.next_below(6);
  for (std::uint64_t f = 0; f < ev.mark.flows; ++f)
    if (rng.next_bool(0.5)) ev.mark.moves.push_back({f, rng.next_below(4)});
  if (ev.kind == 2) ev.note = "fuzz cancel";
  return ev;
}

/// A valid journal byte stream: one checkpoint frame + `events` WAL frames.
Bytes journal_stream(util::Rng& rng, std::size_t events,
                     SnapshotCheckpoint* cp_out = nullptr,
                     std::vector<SnapshotWalEvent>* ev_out = nullptr) {
  Bytes stream;
  const SnapshotCheckpoint cp = fuzz_checkpoint(rng);
  if (cp_out != nullptr) *cp_out = cp;
  const Bytes head = encode_frame(encode_snapshot_checkpoint(cp));
  stream.insert(stream.end(), head.begin(), head.end());
  for (std::size_t i = 0; i < events; ++i) {
    const SnapshotWalEvent ev = fuzz_wal_event(rng);
    if (ev_out != nullptr) ev_out->push_back(ev);
    const Bytes b = encode_frame(encode_snapshot_wal_event(ev));
    stream.insert(stream.end(), b.begin(), b.end());
  }
  return stream;
}

TEST(SnapshotFuzz, RandomGarbagePayloadsNeverCrashTheDecoders) {
  util::Rng rng(0x5a5a);
  for (int trial = 0; trial < 500; ++trial) {
    Frame f;
    f.type = static_cast<std::uint8_t>(
        rng.next_below(2) == 0
            ? SnapshotMessageType::kSnapshotCheckpoint
            : SnapshotMessageType::kSnapshotWalEvent);
    f.payload = random_bytes(rng, rng.next_below(256));
    const auto cp = decode_snapshot_checkpoint(f);
    if (!cp.ok()) {
      EXPECT_FALSE(cp.error().message.empty());
    }
    const auto ev = decode_snapshot_wal_event(f);
    if (!ev.ok()) {
      EXPECT_FALSE(ev.error().message.empty());
    }
  }
}

TEST(SnapshotFuzz, BitFlippedJournalNeverDecodesAsWrongData) {
  util::Rng rng(0x1dea);
  SnapshotCheckpoint cp;
  std::vector<SnapshotWalEvent> evs;
  const Bytes stream = journal_stream(rng, 3, &cp, &evs);
  for (int trial = 0; trial < 400; ++trial) {
    Bytes bad = stream;
    bad[rng.pick_index(bad.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    FrameDecoder d;
    d.feed(bad);
    std::size_t i = 0;
    while (auto f = d.next()) {
      // Whatever still decodes must be bit-identical to what was written;
      // the flipped frame itself must fail at the CRC or decode layer.
      if (i == 0) {
        const auto got = decode_snapshot_checkpoint(*f);
        if (got.ok()) {
          EXPECT_EQ(got.value(), cp);
        }
      } else {
        ASSERT_LE(i, evs.size());
        const auto got = decode_snapshot_wal_event(*f);
        if (got.ok()) {
          EXPECT_EQ(got.value(), evs[i - 1]);
        }
      }
      ++i;
    }
  }
}

TEST(SnapshotFuzz, TruncationAtEveryByteWaitsOrFailsCleanly) {
  util::Rng rng(0x7a11);
  SnapshotCheckpoint cp;
  std::vector<SnapshotWalEvent> evs;
  const Bytes stream = journal_stream(rng, 2, &cp, &evs);
  for (std::size_t cut = 0; cut < stream.size(); ++cut) {
    FrameDecoder d;
    d.feed(stream.data(), cut);
    std::size_t frames = 0;
    while (auto f = d.next()) {
      // A truncated journal yields only the complete prefix frames, and
      // each one decodes to exactly what was written (lost tail, never
      // altered data).
      if (frames == 0) {
        const auto got = decode_snapshot_checkpoint(*f);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), cp);
      } else {
        const auto got = decode_snapshot_wal_event(*f);
        ASSERT_TRUE(got.ok());
        EXPECT_EQ(got.value(), evs[frames - 1]);
      }
      ++frames;
    }
    EXPECT_FALSE(d.failed()) << "truncation is not corruption (cut=" << cut
                             << ")";
  }
}

TEST(SnapshotFuzz, OversizedLengthOnSnapshotFramesIsRejected) {
  // The frame layer's kMaxPayload guard holds for the durability type
  // bytes too: a journal advertising a huge record poisons the decode
  // instead of buffering gigabytes.
  Frame f;
  f.type = static_cast<std::uint8_t>(SnapshotMessageType::kSnapshotWalEvent);
  f.payload = {9, 9, 9};
  Bytes b = encode_frame(f);
  b[4] = 0xff;
  b[5] = 0xff;
  b[6] = 0xff;
  b[7] = 0x7f;
  FrameDecoder d;
  d.feed(b);
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.failed());

  // And the in-payload delta guards: a mark claiming more than 2^20 flows,
  // or a delta longer than its flow count, must be rejected before any
  // allocation that size. Craft both by patching varints inside a valid
  // payload: with no moves and an empty note, the payload ends with the
  // flow-count varint, the move-count varint 0x00 and the note length 0x00.
  util::Rng rng(0xfeed);
  SnapshotWalEvent ev = fuzz_wal_event(rng);
  ev.kind = 0;
  ev.note.clear();
  ev.mark.flows = 5;  // a one-byte varint
  ev.mark.moves.clear();
  const Frame valid = encode_snapshot_wal_event(ev);
  ASSERT_TRUE(decode_snapshot_wal_event(valid).ok());
  const std::size_t count_at = valid.payload.size() - 2;
  const std::size_t flows_at = valid.payload.size() - 3;
  ASSERT_EQ(valid.payload[flows_at], 0x05);
  ASSERT_EQ(valid.payload[count_at], 0x00);
  const auto patched = [&valid](std::size_t at) {
    // Replaces the one-byte varint at `at` with a 5-byte one > 2^20.
    Frame f = valid;
    f.payload[at] = 0xff;
    f.payload.insert(f.payload.begin() + static_cast<std::ptrdiff_t>(at) + 1,
                     {0xff, 0xff, 0xff, 0x0f});
    return f;
  };
  const auto huge_flows = decode_snapshot_wal_event(patched(flows_at));
  ASSERT_FALSE(huge_flows.ok());
  EXPECT_NE(huge_flows.error().message.find("flows"), std::string::npos)
      << huge_flows.error().message;
  const auto huge_count = decode_snapshot_wal_event(patched(count_at));
  ASSERT_FALSE(huge_count.ok());
  EXPECT_NE(huge_count.error().message.find("delta of"), std::string::npos)
      << huge_count.error().message;
  // One more move than flows, even a short one, trips the same guard.
  Frame over = valid;
  over.payload[count_at] = 0x06;
  EXPECT_FALSE(decode_snapshot_wal_event(over).ok());
}

}  // namespace
}  // namespace nexit::proto
