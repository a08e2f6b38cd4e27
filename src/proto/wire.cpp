#include "proto/wire.hpp"

#include <cstring>

namespace nexit::proto {

void Writer::put_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  std::uint8_t le[8];
  for (int i = 0; i < 8; ++i)
    le[i] = static_cast<std::uint8_t>((bits >> (8 * i)) & 0xff);
  data_.insert(data_.end(), le, le + 8);
}

void Writer::put_string(const std::string& s) {
  put_varint(s.size());
  data_.insert(data_.end(), s.begin(), s.end());
}

std::uint64_t Reader::get_varint_long() {
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
  if (!ok_ || n > kMaxCount || !take(static_cast<std::size_t>(n))) {
    ok_ = false;
    return {};
  }
  std::string s(reinterpret_cast<const char*>(data_ + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return s;
}

}  // namespace nexit::proto
