// TpWIRE frame formats (paper §3.1, Tables 1 and 2).
//
// Both frames are 16-bit serial words, transmitted start bit first:
//
//   TX:  | 0 | CMD[2:0]      | DATA[7:0] | CRC[3:0] |
//   RX:  | 0 | INT | TYPE[1:0] | DATA[7:0] | CRC[3:0] |
//
// CRC is computed over CMD[2:0]+DATA[7:0] (TX, 11 bits) or
// TYPE[1:0]+DATA[7:0] (RX, 10 bits) with generator x^4 + x + 1,
// processed in transmission order (MSB first).
//
// The paper does not enumerate the CMD encodings; DESIGN.md §5 documents the
// set we infer from the described behaviour (node selection, memory and
// system-register access, flags/SPI reads, interrupt polling).
#pragma once

#include <cstdint>
#include <optional>
#include <string>

namespace tb::wire {

/// TX frame command codes (inferred; see DESIGN.md §5).
enum class Command : std::uint8_t {
  kSelect = 0,        ///< DATA = node address; selects node + address space
  kWriteAddress = 1,  ///< DATA shifted into the 16-bit address pointer
  kWriteData = 2,     ///< DATA written at the address pointer
  kReadData = 3,      ///< response carries the byte at the address pointer
  kReadFlags = 4,     ///< response carries the flags register
  kWriteCommand = 5,  ///< DATA written to the command register
  kSpiTransfer = 6,   ///< exchange DATA with the SPI peripheral
  kPing = 7,          ///< no-op; response carries node id + interrupt status
};

/// RX frame TYPE codes.
enum class RxType : std::uint8_t {
  kStatus = 0,  ///< DATA[7:1] = node id, DATA[0] = interrupt status
  kData = 1,    ///< response to a data-register read
  kFlags = 2,   ///< response to flags / SPI register read
  kNak = 3,     ///< command rejected (bad address space, write to RO reg...)
};

/// Frame decode failure reasons.
enum class FrameError : std::uint8_t {
  kNone = 0,
  kStartBit,  ///< start bit was 1
  kCrc,       ///< CRC mismatch
};

const char* to_string(Command cmd);
const char* to_string(RxType type);
const char* to_string(FrameError err);

/// Master-to-slave frame.
struct TxFrame {
  Command cmd = Command::kPing;
  std::uint8_t data = 0;

  /// Serializes to the 16-bit wire word (start bit in bit 15, CRC in 3..0).
  std::uint16_t encode() const;

  /// Parses a wire word; nullopt when the start bit or CRC is wrong
  /// (`error`, if given, says which).
  static std::optional<TxFrame> decode(std::uint16_t word,
                                       FrameError* error = nullptr);

  /// CRC[3:0] over CMD and DATA in transmission order.
  std::uint8_t crc() const;

  bool operator==(const TxFrame&) const = default;
  std::string to_string() const;
};

/// Slave-to-master frame. The INT bit is ORed in by every slave the frame
/// passes through on its way to the master (paper §3.1), so it is not part
/// of the CRC.
struct RxFrame {
  bool intr = false;
  RxType type = RxType::kStatus;
  std::uint8_t data = 0;

  std::uint16_t encode() const;
  static std::optional<RxFrame> decode(std::uint16_t word,
                                       FrameError* error = nullptr);
  std::uint8_t crc() const;

  /// Builds the status response described in the paper: node id in
  /// DATA[7:1], pending-interrupt flag in DATA[0].
  static RxFrame status(std::uint8_t node_id, bool pending_interrupt);

  /// Node id carried by a status response.
  std::uint8_t status_node_id() const { return data >> 1; }
  bool status_interrupt() const { return data & 1; }

  bool operator==(const RxFrame&) const = default;
  std::string to_string() const;
};

/// Number of bits in every TpWIRE frame.
inline constexpr int kFrameBits = 16;

/// Slave watchdog: a slave resets when it sees no valid TX frame for this
/// many bit periods (fixed by the spec).
inline constexpr int kResetTimeoutBits = 2048;

/// Reset pulse width: a slave is unresponsive for this many bit periods
/// once its watchdog fires (fixed by the spec).
inline constexpr int kResetPulseBits = 33;

/// Wait the master inserts after a broadcast TX (no slave replies on
/// broadcast), in bit periods.
inline constexpr int kBroadcastGapBits = 16;

/// Maximum addressable node id; 127 is the broadcast pseudo-node.
inline constexpr std::uint8_t kMaxNodeId = 126;
inline constexpr std::uint8_t kBroadcastNodeId = 127;

/// Node addresses: each node id owns two consecutive addresses (paper §3.1):
/// even -> memory / memory-mapped I/O set, odd -> system register set.
inline constexpr std::uint8_t memory_address(std::uint8_t node_id) {
  return static_cast<std::uint8_t>(node_id * 2);
}
inline constexpr std::uint8_t system_address(std::uint8_t node_id) {
  return static_cast<std::uint8_t>(node_id * 2 + 1);
}
inline constexpr std::uint8_t node_id_of_address(std::uint8_t address) {
  return static_cast<std::uint8_t>(address / 2);
}
inline constexpr bool is_system_address(std::uint8_t address) {
  return (address & 1) != 0;
}

}  // namespace tb::wire
