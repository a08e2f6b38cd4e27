#include "proto/frame.hpp"

#include <cstring>

#include "proto/crc32.hpp"

namespace nexit::proto {

namespace {
constexpr std::size_t kHeaderSize = 2 + 1 + 1 + 4;  // magic, version, type, len
constexpr std::size_t kTrailerSize = 4;             // crc32

void put_u32_le(std::uint8_t* at, std::uint32_t v) {
  at[0] = static_cast<std::uint8_t>(v & 0xff);
  at[1] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  at[2] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  at[3] = static_cast<std::uint8_t>((v >> 24) & 0xff);
}

std::uint32_t get_u32_le(const std::uint8_t* at) {
  return static_cast<std::uint32_t>(at[0]) |
         (static_cast<std::uint32_t>(at[1]) << 8) |
         (static_cast<std::uint32_t>(at[2]) << 16) |
         (static_cast<std::uint32_t>(at[3]) << 24);
}
}  // namespace

void append_frame(Bytes& out, std::uint8_t type, const Bytes& payload) {
  const std::size_t start = out.size();
  out.resize(start + kHeaderSize + payload.size() + kTrailerSize);
  std::uint8_t* at = out.data() + start;
  at[0] = static_cast<std::uint8_t>(kFrameMagic >> 8);
  at[1] = static_cast<std::uint8_t>(kFrameMagic & 0xff);
  at[2] = kProtocolVersion;
  at[3] = type;
  put_u32_le(at + 4, static_cast<std::uint32_t>(payload.size()));
  if (!payload.empty())
    std::memcpy(at + kHeaderSize, payload.data(), payload.size());
  const std::size_t body = kHeaderSize + payload.size();
  put_u32_le(at + body, crc32(at, body));
}

Bytes encode_frame(const Frame& frame) {
  Bytes out;
  out.reserve(kHeaderSize + frame.payload.size() + kTrailerSize);
  append_frame(out, frame.type, frame.payload);
  return out;
}

void FrameDecoder::feed(const std::uint8_t* data, std::size_t size) {
  if (failed_ || size == 0) return;
  compact();
  buffer_.insert(buffer_.end(), data, data + size);
}

void FrameDecoder::feed(Bytes&& bytes) {
  if (failed_ || bytes.empty()) return;
  compact();
  if (buffer_.empty()) {
    buffer_.swap(bytes);  // nothing pending: adopt the chunk as the buffer
    return;
  }
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void FrameDecoder::compact() {
  if (head_ == 0) return;
  // Only the unconsumed tail (at most one partial frame: next() consumes
  // every complete one) moves, and it moves once: after this the buffer
  // starts at that frame, which is the next thing next() consumes.
  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
  head_ = 0;
}

void FrameDecoder::fail(const std::string& why) {
  failed_ = true;
  error_ = why;
  buffer_.clear();
  head_ = 0;
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t pending = buffer_.size() - head_;
  if (failed_ || pending < kHeaderSize) return std::nullopt;

  const std::uint8_t* at = buffer_.data() + head_;
  const std::uint16_t magic = static_cast<std::uint16_t>((at[0] << 8) | at[1]);
  if (magic != kFrameMagic) {
    fail("bad magic");
    return std::nullopt;
  }
  if (at[2] != kProtocolVersion) {
    fail("unsupported protocol version");
    return std::nullopt;
  }
  const std::uint32_t length = get_u32_le(at + 4);
  if (length > kMaxPayload) {
    fail("payload too large");
    return std::nullopt;
  }
  const std::size_t body = kHeaderSize + length;
  if (pending < body + kTrailerSize) return std::nullopt;  // need more bytes
  if (get_u32_le(at + body) != crc32(at, body)) {
    fail("crc mismatch");
    return std::nullopt;
  }

  Frame f;
  f.type = at[3];
  f.payload.assign(at + kHeaderSize, at + body);
  head_ += body + kTrailerSize;
  if (head_ == buffer_.size()) {
    buffer_.clear();  // fully drained: keep the capacity, drop the offset
    head_ = 0;
  }
  return f;
}

}  // namespace nexit::proto
