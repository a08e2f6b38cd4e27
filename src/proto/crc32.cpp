#include "proto/crc32.hpp"

#include <array>

namespace nexit::proto {

namespace {

/// table[0] is the classic byte-at-a-time table; table[k][b] is the CRC
/// contribution of byte b followed by k zero bytes, so eight bytes fold in
/// with eight independent lookups (slicing-by-8).
using Tables = std::array<std::array<std::uint32_t, 256>, 8>;

Tables make_tables() {
  Tables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < t.size(); ++k)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
  return t;
}

/// Little-endian 32-bit load, independent of the host byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) {
  static const Tables t = make_tables();
  std::uint32_t c = 0xffffffffu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ load_le32(data);
    const std::uint32_t hi = load_le32(data + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) c = t[0][(c ^ *data) & 0xffu] ^ (c >> 8);
  return c ^ 0xffffffffu;
}

}  // namespace nexit::proto
