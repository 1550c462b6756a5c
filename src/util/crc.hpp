// CRC implementations used across the protocol stack.
//
// TpWIRE frames protect CMD/TYPE + DATA with a 4-bit CRC over the generator
// polynomial x^4 + x + 1 (0b10011) — see Tables 1 and 2 of the paper. The
// middleware transport additionally uses CRC-8 (ATM HEC polynomial) and
// CRC-16/CCITT for message segmentation integrity.
#pragma once

#include <cstdint>
#include <span>

#include "src/util/assert.hpp"

namespace tb::util {

/// CRC-4 with generator x^4 + x + 1, MSB-first, zero initial remainder.
///
/// `bits` is the message as a big-endian integer occupying the low
/// `bit_count` bits, processed most-significant bit first — exactly the
/// transmission order of a TpWIRE frame body. constexpr so the frame
/// codec can tabulate it at compile time (src/wire/frame.cpp).
constexpr std::uint8_t crc4_itu(std::uint64_t bits, int bit_count) {
  TB_REQUIRE(bit_count >= 0 && bit_count <= 60);
  // Long-division over GF(2): append four zero bits, then reduce by 0b10011.
  std::uint64_t remainder = bits << 4;
  const int total = bit_count + 4;
  for (int i = total - 1; i >= 4; --i) {
    if (remainder & (1ull << i)) {
      remainder ^= (0b10011ull << (i - 4));
    }
  }
  return static_cast<std::uint8_t>(remainder & 0xF);
}

/// CRC-8 with generator x^8 + x^2 + x + 1 (0x07), MSB-first, init 0, no
/// final xor — so it chains: crc8(b, crc8(a)) == crc8(a followed by b).
std::uint8_t crc8(std::span<const std::uint8_t> data, std::uint8_t crc = 0);

/// CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, MSB-first, no final xor.
std::uint16_t crc16_ccitt(std::span<const std::uint8_t> data);

}  // namespace tb::util
