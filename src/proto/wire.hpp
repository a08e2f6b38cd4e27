#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace nexit::proto {

using Bytes = std::vector<std::uint8_t>;

/// Append-only binary encoder. Integers use LEB128 varints (signed values
/// zig-zag encoded); doubles are fixed 64-bit IEEE754 little-endian; strings
/// are length-prefixed.
class Writer {
 public:
  /// Reserves room for `n` more bytes (a size hint, not a limit).
  void reserve(std::size_t n) { data_.reserve(data_.size() + n); }
  void put_u8(std::uint8_t v) { data_.push_back(v); }
  void put_varint(std::uint64_t v) {
    while (v >= 0x80) {
      data_.push_back(static_cast<std::uint8_t>(v) | 0x80);
      v >>= 7;
    }
    data_.push_back(static_cast<std::uint8_t>(v));
  }
  void put_signed(std::int64_t v) {  // zig-zag
    // Small magnitudes (positive or negative) stay small on the wire.
    put_varint((static_cast<std::uint64_t>(v) << 1) ^
               static_cast<std::uint64_t>(v >> 63));
  }
  void put_double(double v);
  void put_string(const std::string& s);

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

  std::uint8_t get_u8() { return take(1) ? data_[pos_++] : 0; }
  std::uint64_t get_varint() {
    // One-byte values (most ids, lengths and classes) skip the loop.
    if (ok_ && pos_ < size_ && data_[pos_] < 0x80) return data_[pos_++];
    return get_varint_long();
  }
  std::int64_t get_signed() {
    const std::uint64_t z = get_varint();
    return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
  }
  double get_double();
  std::string get_string();

  /// Latches the error: the payload holds a value its field cannot take.
  void fail() { ok_ = false; }
  [[nodiscard]] bool ok() const { return ok_; }
  /// True when every byte was consumed and no error occurred.
  [[nodiscard]] bool at_end() const { return ok_ && pos_ == size_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

  /// The one cap on every count (string lengths and list lengths alike),
  /// to keep malformed input from causing huge allocations.
  static constexpr std::size_t kMaxCount = 1 << 20;

 private:
  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  std::uint64_t get_varint_long();

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace nexit::proto
