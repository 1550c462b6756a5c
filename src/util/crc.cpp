#include "src/util/crc.hpp"

#include <array>

namespace tb::util {

namespace {

// Byte-at-a-time tables: entry b is the register after shifting byte b
// through an all-zero register bit by bit (MSB first).
constexpr std::array<std::uint8_t, 256> make_crc8_table() {
  std::array<std::uint8_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    auto crc = static_cast<std::uint8_t>(b);
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x80) ? static_cast<std::uint8_t>((crc << 1) ^ 0x07)
                         : static_cast<std::uint8_t>(crc << 1);
    }
    table[b] = crc;
  }
  return table;
}

constexpr std::array<std::uint16_t, 256> make_crc16_ccitt_table() {
  std::array<std::uint16_t, 256> table{};
  for (unsigned b = 0; b < 256; ++b) {
    auto crc = static_cast<std::uint16_t>(b << 8);
    for (int i = 0; i < 8; ++i) {
      crc = (crc & 0x8000) ? static_cast<std::uint16_t>((crc << 1) ^ 0x1021)
                           : static_cast<std::uint16_t>(crc << 1);
    }
    table[b] = crc;
  }
  return table;
}

constexpr std::array<std::uint8_t, 256> kCrc8Table = make_crc8_table();
constexpr std::array<std::uint16_t, 256> kCrc16CcittTable =
    make_crc16_ccitt_table();

}  // namespace

std::uint8_t crc8(std::span<const std::uint8_t> data, std::uint8_t crc) {
  for (std::uint8_t byte : data) crc = kCrc8Table[crc ^ byte];
  return crc;
}

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data) {
  std::uint16_t crc = 0xFFFF;
  for (std::uint8_t byte : data) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     kCrc16CcittTable[(crc >> 8) ^ byte]);
  }
  return crc;
}

}  // namespace tb::util
