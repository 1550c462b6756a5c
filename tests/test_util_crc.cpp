#include "src/util/crc.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "src/wire/frame.hpp"

namespace tb::util {
namespace {

// Reference CRC: a shift register fed one message bit at a time, MSB
// first. Written here rather than shared with src/util/crc.cpp so the
// tables there are checked against independent code. `poly` omits the
// x^width term; `init` seeds the register.
std::uint32_t reference_crc_bits(std::uint64_t bits, int bit_count, int width,
                                 std::uint32_t poly, std::uint32_t init) {
  const std::uint32_t top = 1u << (width - 1);
  const std::uint32_t mask = (width == 32) ? ~0u : (1u << width) - 1;
  std::uint32_t reg = init;
  for (int i = bit_count - 1; i >= 0; --i) {
    const bool in = ((bits >> i) & 1) != 0;
    const bool feedback = ((reg & top) != 0) != in;
    reg = (reg << 1) & mask;
    if (feedback) reg ^= poly;
  }
  return reg;
}

std::uint32_t reference_crc_bytes(std::span<const std::uint8_t> data,
                                  int width, std::uint32_t poly,
                                  std::uint32_t init) {
  std::uint32_t reg = init;
  for (std::uint8_t byte : data) {
    reg = reference_crc_bits(byte, 8, width, poly, reg);
  }
  return reg;
}

TEST(Crc4, ZeroMessageHasZeroCrc) {
  EXPECT_EQ(crc4_itu(0, 11), 0);
}

TEST(Crc4, MatchesLongDivisionByHand) {
  // message 0b1 (1 bit): remainder of 1,0000 / 10011 = 10000 ^ 10011 = 0011.
  EXPECT_EQ(crc4_itu(0b1, 1), 0b0011);
}

TEST(Crc4, GeneratorItselfDividesToZero) {
  // The generator polynomial x^4+x+1 = 0b10011 followed by its own CRC must
  // reduce to zero: crc(0b10011) applied to message||crc yields 0.
  const std::uint8_t crc = crc4_itu(0b10011, 5);
  const std::uint64_t with_crc = (0b10011ull << 4) | crc;
  EXPECT_EQ(crc4_itu(with_crc, 9), 0);
}

TEST(Crc4, AppendingCrcAlwaysYieldsZeroRemainder) {
  // Property over all 11-bit TpWIRE frame bodies.
  for (std::uint64_t body = 0; body < (1u << 11); ++body) {
    const std::uint8_t crc = crc4_itu(body, 11);
    EXPECT_EQ(crc4_itu((body << 4) | crc, 15), 0) << "body=" << body;
  }
}

TEST(Crc4, DetectsEverySingleBitError) {
  // x^4+x+1 has >= 2 terms, so any single flipped bit must change the CRC.
  for (std::uint64_t body : {0ull, 0x7FFull, 0x2A5ull, 0x400ull, 0x123ull}) {
    const std::uint8_t crc = crc4_itu(body, 11);
    for (int bit = 0; bit < 11; ++bit) {
      const std::uint64_t corrupted = body ^ (1ull << bit);
      EXPECT_NE(crc4_itu(corrupted, 11), crc)
          << "body=" << body << " bit=" << bit;
    }
  }
}

TEST(Crc4, TxTableMatchesReferenceOnAll2048Bodies) {
  for (std::uint32_t body = 0; body < (1u << 11); ++body) {
    const wire::TxFrame frame{static_cast<wire::Command>(body >> 8),
                              static_cast<std::uint8_t>(body & 0xFF)};
    const std::uint32_t expected = reference_crc_bits(body, 11, 4, 0b0011, 0);
    EXPECT_EQ(frame.crc(), expected) << "body=" << body;
    EXPECT_EQ(frame.encode() & 0xF, expected) << "body=" << body;
    EXPECT_EQ(wire::TxFrame::decode(frame.encode()), frame) << "body=" << body;
  }
}

TEST(Crc4, RxTableMatchesReferenceOnAll1024Bodies) {
  for (std::uint32_t body = 0; body < (1u << 10); ++body) {
    for (bool intr : {false, true}) {
      const wire::RxFrame frame{intr, static_cast<wire::RxType>(body >> 8),
                                static_cast<std::uint8_t>(body & 0xFF)};
      const std::uint32_t expected = reference_crc_bits(body, 10, 4, 0b0011, 0);
      EXPECT_EQ(frame.crc(), expected) << "body=" << body;
      EXPECT_EQ(frame.encode() & 0xF, expected) << "body=" << body;
      EXPECT_EQ(wire::RxFrame::decode(frame.encode()), frame)
          << "body=" << body;
    }
  }
}

TEST(CrcTables, MatchReferenceOnRandomSpans) {
  std::mt19937 rng(0xC2C);
  std::vector<std::uint8_t> data;
  for (int round = 0; round < 12'000; ++round) {
    data.resize(rng() % 70);
    for (std::uint8_t& b : data) b = static_cast<std::uint8_t>(rng());
    ASSERT_EQ(crc8(data), reference_crc_bytes(data, 8, 0x07, 0))
        << "round " << round;
    ASSERT_EQ(crc16_ccitt(data), reference_crc_bytes(data, 16, 0x1021, 0xFFFF))
        << "round " << round;
    // The CRC-8 register chains across a split at any point.
    const std::size_t cut = data.empty() ? 0 : rng() % (data.size() + 1);
    const std::span<const std::uint8_t> all(data);
    ASSERT_EQ(crc8(all.subspan(cut), crc8(all.first(cut))), crc8(all))
        << "round " << round;
  }
}

TEST(Crc8, KnownVector) {
  // CRC-8 (poly 0x07, init 0) of "123456789" is 0xF4.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc8(data), 0xF4);
}

TEST(Crc8, EmptyIsZero) {
  EXPECT_EQ(crc8({}), 0);
}

TEST(Crc16Ccitt, KnownVector) {
  // CRC-16/CCITT-FALSE of "123456789" is 0x29B1.
  const std::uint8_t data[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc16_ccitt(data), 0x29B1);
}

TEST(Crc16Ccitt, EmptyIsInit) {
  EXPECT_EQ(crc16_ccitt({}), 0xFFFF);
}

TEST(Crc8, SingleByteChangesCrc) {
  for (int b = 0; b < 256; ++b) {
    const auto byte = static_cast<std::uint8_t>(b);
    const std::uint8_t one[] = {byte};
    const std::uint8_t other[] = {static_cast<std::uint8_t>(byte ^ 1)};
    EXPECT_NE(crc8(one), crc8(other));
  }
}

}  // namespace
}  // namespace tb::util
