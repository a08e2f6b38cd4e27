#include "proto/wire.hpp"

#include <cstring>

namespace nexit::proto {

void Writer::put_u8(std::uint8_t v) { data_.push_back(v); }

void Writer::put_u32_fixed(std::uint32_t v) {
  data_.push_back(static_cast<std::uint8_t>(v & 0xff));
  data_.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  data_.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  data_.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void Writer::put_varint(std::uint64_t v) {
  while (v >= 0x80) {
    data_.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  data_.push_back(static_cast<std::uint8_t>(v));
}

void Writer::put_signed(std::int64_t v) {
  // Zig-zag: small magnitudes (positive or negative) stay small on the wire.
  put_varint((static_cast<std::uint64_t>(v) << 1) ^
             static_cast<std::uint64_t>(v >> 63));
}

void Writer::put_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  for (int i = 0; i < 8; ++i)
    data_.push_back(static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff));
}

void Writer::put_string(const std::string& s) {
  put_varint(s.size());
  data_.insert(data_.end(), s.begin(), s.end());
}

void Writer::put_bytes(const Bytes& b) {
  put_varint(b.size());
  data_.insert(data_.end(), b.begin(), b.end());
}

bool Reader::take(std::size_t n) {
  if (!ok_ || size_ - pos_ < n) {
    ok_ = false;
    return false;
  }
  return true;
}

std::uint8_t Reader::get_u8() {
  if (!take(1)) return 0;
  return data_[pos_++];
}

std::uint64_t Reader::get_varint() {
  std::uint64_t v = 0;
  int shift = 0;
  for (;;) {
    if (!take(1)) return 0;
    const std::uint8_t byte = data_[pos_++];
    if (shift >= 64 || (shift == 63 && (byte & 0x7e))) {
      ok_ = false;  // overflow
      return 0;
    }
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

std::int64_t Reader::get_signed() {
  const std::uint64_t z = get_varint();
  return static_cast<std::int64_t>((z >> 1) ^ (~(z & 1) + 1));
}

double Reader::get_double() {
  if (!take(8)) return 0.0;
  std::uint64_t bits = 0;
  for (int i = 0; i < 8; ++i)
    bits |= static_cast<std::uint64_t>(data_[pos_++]) << (8 * i);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string Reader::get_string() {
  const std::uint64_t n = get_varint();
  if (!ok_ || n > kMaxBlob || !take(static_cast<std::size_t>(n))) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

Bytes Reader::get_bytes() {
  const std::uint64_t n = get_varint();
  if (!ok_ || n > kMaxBlob || !take(static_cast<std::size_t>(n))) {
    ok_ = false;
    return {};
  }
  Bytes b(data_ + pos_, data_ + pos_ + n);
  pos_ += static_cast<std::size_t>(n);
  return b;
}

}  // namespace nexit::proto
