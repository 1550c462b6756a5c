// Seed-driven mutation fuzzing of the relay segment parser, a parser of
// untrusted bytes: a corrupted RX frame or a lost mailbox pop hands it
// arbitrary streams. Each round encodes a stream of valid segments,
// mutates it (bit flips, dropped bytes, inserted magic bytes, and length
// fields spliced to boundary values a random flip rarely reaches), and
// feeds it three ways. Bounded and fixed-seed, so it runs in tier-1 and
// under the sanitizers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <span>
#include <vector>

#include "src/util/crc.hpp"
#include "src/wire/segment.hpp"

namespace tb::wire {
namespace {

constexpr std::size_t kCap = 48;

struct Parsed {
  std::vector<RelaySegment> segments;
  std::uint64_t parsed = 0;
  std::uint64_t crc_failures = 0;
  std::uint64_t length_errors = 0;
  std::uint64_t resync_bytes = 0;
  bool operator==(const Parsed&) const = default;
};

Parsed drain(SegmentParser& parser) {
  Parsed out;
  while (std::optional<RelaySegment> segment = parser.next()) {
    out.segments.push_back(std::move(*segment));
  }
  out.parsed = parser.segments_parsed();
  out.crc_failures = parser.crc_failures();
  out.length_errors = parser.length_errors();
  out.resync_bytes = parser.resync_bytes();
  return out;
}

enum class Feeding { kByteWise, kWholeSpan, kRandomChunks };

Parsed parse(std::span<const std::uint8_t> stream, Feeding feeding,
             std::mt19937& rng) {
  SegmentParser parser;
  parser.set_max_payload(kCap);
  switch (feeding) {
    case Feeding::kByteWise:
      for (std::uint8_t b : stream) parser.feed_byte(b);
      break;
    case Feeding::kWholeSpan:
      parser.feed(stream);
      break;
    case Feeding::kRandomChunks:
      for (std::size_t at = 0; at < stream.size();) {
        const std::size_t n =
            std::min<std::size_t>(stream.size() - at, rng() % 17);
        parser.feed(stream.subspan(at, n));
        at += n;
      }
      break;
  }
  return drain(parser);
}

// The wire bytes of `segment`, built by hand: a parsed segment may carry a
// src that encode_segment() refuses to produce.
std::vector<std::uint8_t> wire_bytes(const RelaySegment& segment) {
  std::vector<std::uint8_t> out{
      kSegmentMagic, segment.src, segment.dst,
      static_cast<std::uint8_t>(segment.payload.size() & 0xFF),
      static_cast<std::uint8_t>(segment.payload.size() >> 8)};
  out.insert(out.end(), segment.payload.begin(), segment.payload.end());
  out.push_back(util::crc8(std::span(out).subspan(1)));
  return out;
}

struct Stream {
  std::vector<RelaySegment> segments;
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> starts;  ///< offset of each segment's magic
};

Stream random_stream(std::mt19937& rng) {
  Stream stream;
  const int count = static_cast<int>(rng() % 8) + 1;
  for (int i = 0; i < count; ++i) {
    RelaySegment segment;
    segment.src = static_cast<std::uint8_t>(rng() % (kMaxNodeId + 1));
    segment.dst = static_cast<std::uint8_t>(rng() % (kBroadcastNodeId + 1));
    segment.payload.resize(rng() % (kCap + 1));
    for (std::uint8_t& b : segment.payload) {
      // Bias toward the magic byte so false frame starts are common.
      b = rng() % 8 == 0 ? kSegmentMagic : static_cast<std::uint8_t>(rng());
    }
    stream.starts.push_back(stream.bytes.size());
    const std::vector<std::uint8_t> raw = encode_segment(segment);
    stream.bytes.insert(stream.bytes.end(), raw.begin(), raw.end());
    stream.segments.push_back(std::move(segment));
  }
  return stream;
}

void mutate(Stream& stream, std::mt19937& rng) {
  std::vector<std::uint8_t>& bytes = stream.bytes;
  // Splice boundary lengths first, while segment offsets are still known.
  static constexpr std::uint16_t kLengths[] = {0, 1, kCap, kCap + 1, 0xFFFF};
  for (std::size_t start : stream.starts) {
    if (rng() % 4 != 0) continue;
    const std::uint16_t len = kLengths[rng() % std::size(kLengths)];
    bytes[start + 3] = static_cast<std::uint8_t>(len & 0xFF);
    bytes[start + 4] = static_cast<std::uint8_t>(len >> 8);
  }
  const int edits = static_cast<int>(rng() % 6);
  for (int i = 0; i < edits && !bytes.empty(); ++i) {
    const std::size_t at = rng() % bytes.size();
    switch (rng() % 3) {
      case 0:
        bytes[at] ^= static_cast<std::uint8_t>(1u << (rng() % 8));
        break;
      case 1:
        bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(at));
        break;
      default:
        bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(at),
                     kSegmentMagic);
        break;
    }
  }
}

TEST(SegmentFuzz, UnmutatedStreamsRoundTripExactly) {
  std::mt19937 rng(0x5E6);
  for (int round = 0; round < 500; ++round) {
    const Stream stream = random_stream(rng);
    const Parsed parsed = parse(stream.bytes, Feeding::kRandomChunks, rng);
    ASSERT_EQ(parsed.segments, stream.segments) << "round " << round;
    EXPECT_EQ(parsed.parsed, stream.segments.size());
    EXPECT_EQ(parsed.crc_failures, 0u);
    EXPECT_EQ(parsed.length_errors, 0u);
    EXPECT_EQ(parsed.resync_bytes, 0u);
  }
}

TEST(SegmentFuzz, MutatedStreamsParseConsistently) {
  std::mt19937 rng(0xF022);
  std::uint64_t emitted = 0;
  std::uint64_t length_errors = 0;
  std::uint64_t crc_failures = 0;
  for (int round = 0; round < 4'000; ++round) {
    Stream stream = random_stream(rng);
    mutate(stream, rng);
    const std::span<const std::uint8_t> input(stream.bytes);
    Parsed byte_wise;
    Parsed whole;
    Parsed chunked;
    ASSERT_NO_THROW({
      byte_wise = parse(input, Feeding::kByteWise, rng);
      whole = parse(input, Feeding::kWholeSpan, rng);
      chunked = parse(input, Feeding::kRandomChunks, rng);
    }) << "round " << round;
    ASSERT_EQ(whole, byte_wise) << "round " << round;
    ASSERT_EQ(chunked, byte_wise) << "round " << round;
    ASSERT_EQ(byte_wise.parsed, byte_wise.segments.size());
    for (const RelaySegment& segment : byte_wise.segments) {
      ASSERT_LE(segment.payload.size(), kCap) << "round " << round;
      const std::vector<std::uint8_t> raw = wire_bytes(segment);
      ASSERT_NE(std::search(input.begin(), input.end(), raw.begin(), raw.end()),
                input.end())
          << "round " << round << ": emitted a segment not in the input";
    }
    emitted += byte_wise.parsed;
    length_errors += byte_wise.length_errors;
    crc_failures += byte_wise.crc_failures;
  }
  // The mutations reach every recovery path.
  EXPECT_GT(emitted, 1'000u);
  EXPECT_GT(length_errors, 100u);
  EXPECT_GT(crc_failures, 100u);
}

}  // namespace
}  // namespace tb::wire
