#pragma once

#include <cstddef>
#include <cstdint>

namespace nexit::proto {

/// IEEE 802.3 CRC-32 (the zlib polynomial), table-driven (slicing-by-8
/// with a byte-wise tail).
/// Frames carry it as a trailer so corrupted input is rejected instead of
/// parsed (tests inject corruption through the fault channel).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size);

}  // namespace nexit::proto
