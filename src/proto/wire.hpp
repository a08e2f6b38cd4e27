#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nexit::proto {

using Bytes = std::vector<std::uint8_t>;

/// Append-only binary encoder. Integers use LEB128 varints (signed values
/// zig-zag encoded); doubles are fixed 64-bit IEEE754 little-endian; strings
/// and blobs are length-prefixed.
class Writer {
 public:
  void put_u8(std::uint8_t v);
  void put_u32_fixed(std::uint32_t v);  // little-endian, for frame headers
  void put_varint(std::uint64_t v);
  void put_signed(std::int64_t v);  // zig-zag
  void put_double(double v);
  void put_string(const std::string& s);
  void put_bytes(const Bytes& b);  // length-prefixed

  [[nodiscard]] const Bytes& data() const { return data_; }
  [[nodiscard]] Bytes take() && { return std::move(data_); }

 private:
  Bytes data_;
};

/// Bounds-checked decoder over a byte span. Reads after a failure return
/// zero values; check ok() (stream-style error latching keeps call sites
/// linear instead of branching on every field).
class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(const Bytes& b) : Reader(b.data(), b.size()) {}

  std::uint8_t get_u8();
  std::uint64_t get_varint();
  std::int64_t get_signed();
  double get_double();
  std::string get_string();
  Bytes get_bytes();

  [[nodiscard]] bool ok() const { return ok_; }
  /// True when every byte was consumed and no error occurred.
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// Caps for length-prefixed fields, to keep malformed input from causing
  /// huge allocations.
  static constexpr std::size_t kMaxBlob = 1 << 20;

 private:
  bool take(std::size_t n);

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace nexit::proto
