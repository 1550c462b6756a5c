#include "src/wire/frame.hpp"

#include <array>
#include <sstream>

#include "src/util/crc.hpp"

namespace tb::wire {

namespace {

// CRC-4 of every TX (11-bit CMD+DATA) and RX (10-bit TYPE+DATA) frame body,
// tabulated at compile time from util::crc4_itu, so the polynomial stays
// defined once and the per-hop decode is one lookup.
template <int kBodyBits>
constexpr std::array<std::uint8_t, std::size_t{1} << kBodyBits>
make_crc4_table() {
  std::array<std::uint8_t, std::size_t{1} << kBodyBits> table{};
  for (std::size_t body = 0; body < table.size(); ++body) {
    table[body] = util::crc4_itu(body, kBodyBits);
  }
  return table;
}

constexpr auto kTxCrc = make_crc4_table<11>();
constexpr auto kRxCrc = make_crc4_table<10>();

}  // namespace

const char* to_string(Command cmd) {
  switch (cmd) {
    case Command::kSelect: return "SELECT";
    case Command::kWriteAddress: return "WRITE_ADDR";
    case Command::kWriteData: return "WRITE_DATA";
    case Command::kReadData: return "READ_DATA";
    case Command::kReadFlags: return "READ_FLAGS";
    case Command::kWriteCommand: return "WRITE_CMD";
    case Command::kSpiTransfer: return "SPI_XFER";
    case Command::kPing: return "PING";
  }
  return "?";
}

const char* to_string(RxType type) {
  switch (type) {
    case RxType::kStatus: return "STATUS";
    case RxType::kData: return "DATA";
    case RxType::kFlags: return "FLAGS";
    case RxType::kNak: return "NAK";
  }
  return "?";
}

const char* to_string(FrameError err) {
  switch (err) {
    case FrameError::kNone: return "none";
    case FrameError::kStartBit: return "start-bit";
    case FrameError::kCrc: return "crc";
  }
  return "?";
}

std::uint8_t TxFrame::crc() const {
  const std::uint64_t body =
      (static_cast<std::uint64_t>(static_cast<std::uint8_t>(cmd) & 0x7) << 8) | data;
  return kTxCrc[body];
}

std::uint16_t TxFrame::encode() const {
  const auto c = static_cast<std::uint16_t>(static_cast<std::uint8_t>(cmd) & 0x7);
  // bit15 start (0) | bits14..12 CMD | bits11..4 DATA | bits3..0 CRC
  return static_cast<std::uint16_t>((c << 12) | (static_cast<std::uint16_t>(data) << 4) |
                                    crc());
}

std::optional<TxFrame> TxFrame::decode(std::uint16_t word, FrameError* error) {
  if (word & 0x8000) {
    if (error) *error = FrameError::kStartBit;
    return std::nullopt;
  }
  TxFrame frame;
  frame.cmd = static_cast<Command>((word >> 12) & 0x7);
  frame.data = static_cast<std::uint8_t>((word >> 4) & 0xFF);
  if ((word & 0xF) != frame.crc()) {
    if (error) *error = FrameError::kCrc;
    return std::nullopt;
  }
  if (error) *error = FrameError::kNone;
  return frame;
}

std::string TxFrame::to_string() const {
  std::ostringstream os;
  os << "TX{" << wire::to_string(cmd) << ", data=0x" << std::hex
     << static_cast<int>(data) << '}';
  return os.str();
}

std::uint8_t RxFrame::crc() const {
  const std::uint64_t body =
      (static_cast<std::uint64_t>(static_cast<std::uint8_t>(type) & 0x3) << 8) | data;
  return kRxCrc[body];
}

std::uint16_t RxFrame::encode() const {
  const auto t = static_cast<std::uint16_t>(static_cast<std::uint8_t>(type) & 0x3);
  // bit15 start (0) | bit14 INT | bits13..12 TYPE | bits11..4 DATA | bits3..0 CRC
  return static_cast<std::uint16_t>((static_cast<std::uint16_t>(intr) << 14) |
                                    (t << 12) |
                                    (static_cast<std::uint16_t>(data) << 4) | crc());
}

std::optional<RxFrame> RxFrame::decode(std::uint16_t word, FrameError* error) {
  if (word & 0x8000) {
    if (error) *error = FrameError::kStartBit;
    return std::nullopt;
  }
  RxFrame frame;
  frame.intr = (word >> 14) & 1;
  frame.type = static_cast<RxType>((word >> 12) & 0x3);
  frame.data = static_cast<std::uint8_t>((word >> 4) & 0xFF);
  if ((word & 0xF) != frame.crc()) {
    if (error) *error = FrameError::kCrc;
    return std::nullopt;
  }
  if (error) *error = FrameError::kNone;
  return frame;
}

RxFrame RxFrame::status(std::uint8_t node_id, bool pending_interrupt) {
  RxFrame frame;
  frame.type = RxType::kStatus;
  frame.data = static_cast<std::uint8_t>((node_id << 1) | (pending_interrupt ? 1 : 0));
  return frame;
}

std::string RxFrame::to_string() const {
  std::ostringstream os;
  os << "RX{" << wire::to_string(type) << (intr ? ", INT" : "") << ", data=0x"
     << std::hex << static_cast<int>(data) << '}';
  return os.str();
}

}  // namespace tb::wire
