#pragma once

#include <cstdint>
#include <optional>

#include "proto/wire.hpp"
#include "util/result.hpp"

namespace nexit::proto {

/// Frame layout on the byte stream:
///   magic   u16   0x4e58 ("NX")
///   version u8
///   type    u8
///   length  u32   payload byte count (little-endian)
///   payload length bytes
///   crc32   u32   over magic..payload
struct Frame {
  std::uint8_t type = 0;
  Bytes payload;
};

inline constexpr std::uint16_t kFrameMagic = 0x4e58;
inline constexpr std::uint8_t kProtocolVersion = 1;
inline constexpr std::size_t kMaxPayload = 4u << 20;

/// Serialises one frame into a buffer of exactly its size.
Bytes encode_frame(const Frame& frame);

/// Appends one serialised frame to `out`: header, payload and CRC are
/// written in place (the journal appends its records this way).
void append_frame(Bytes& out, std::uint8_t type, const Bytes& payload);

/// Incremental frame decoder: feed arbitrary byte chunks, pop complete
/// frames. Any malformed header or CRC mismatch poisons the stream (the
/// session must be torn down — resynchronising a corrupted negotiation
/// stream is not safe, misinterpreted preferences corrupt routing).
///
/// The bytes live in one contiguous buffer with a read offset: frames are
/// checked and copied out in place, and the consumed prefix is dropped on
/// the next feed, so a stream that always has a partial frame pending holds
/// at most that frame plus the newest chunk.
class FrameDecoder {
 public:
  void feed(const std::uint8_t* data, std::size_t size);
  void feed(const Bytes& b) { feed(b.data(), b.size()); }
  /// Takes the chunk over without a copy when nothing is pending.
  void feed(Bytes&& b);

  /// Next complete frame, if any. Returns nullopt when more bytes are
  /// needed or the stream is poisoned (check error()).
  std::optional<Frame> next();

  [[nodiscard]] bool failed() const { return failed_; }
  [[nodiscard]] const std::string& error() const { return error_; }
  /// Bytes held, consumed ones not yet compacted away included.
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 private:
  void fail(const std::string& why);
  /// Drops the consumed prefix.
  void compact();

  Bytes buffer_;
  std::size_t head_ = 0;  // first unconsumed byte of buffer_
  bool failed_ = false;
  std::string error_;
};

}  // namespace nexit::proto
