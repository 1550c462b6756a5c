#include "src/wire/slave.hpp"

#include <gtest/gtest.h>

#include "src/util/assert.hpp"

#include <memory>

#include "src/sim/simulator.hpp"

namespace tb::wire {
namespace {

using namespace tb::sim::literals;

class SlaveTest : public ::testing::Test {
 protected:
  SlaveTest() : slave_(sim_, /*node_id=*/5, link_) {}

  /// Sends a frame as the bus would; advances time by one cycle so the
  /// watchdog sees realistic spacing.
  std::optional<RxFrame> send(Command cmd, std::uint8_t data) {
    sim_.run_until(sim_.now() + link_.bits(40));
    return slave_.observe_frame(TxFrame{cmd, data}.encode());
  }

  std::optional<RxFrame> select_memory() {
    return send(Command::kSelect, memory_address(5));
  }
  std::optional<RxFrame> select_system() {
    return send(Command::kSelect, system_address(5));
  }
  void set_address(std::uint16_t addr) {
    send(Command::kWriteAddress, static_cast<std::uint8_t>(addr >> 8));
    send(Command::kWriteAddress, static_cast<std::uint8_t>(addr));
  }

  sim::Simulator sim_;
  LinkConfig link_;
  SlaveDevice slave_;
};

TEST_F(SlaveTest, IgnoresFramesWhenNotSelected) {
  EXPECT_FALSE(send(Command::kPing, 0).has_value());
  EXPECT_FALSE(send(Command::kReadData, 0).has_value());
}

TEST_F(SlaveTest, SelectRepliesWithStatus) {
  auto reply = select_memory();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, RxType::kStatus);
  EXPECT_EQ(reply->status_node_id(), 5);
  EXPECT_FALSE(reply->status_interrupt());
  EXPECT_TRUE(slave_.selected());
}

TEST_F(SlaveTest, SelectOtherNodeDeselects) {
  select_memory();
  EXPECT_TRUE(slave_.selected());
  EXPECT_FALSE(send(Command::kSelect, memory_address(9)).has_value());
  EXPECT_FALSE(slave_.selected());
}

TEST_F(SlaveTest, MemoryReadWriteThroughAddressPointer) {
  select_memory();
  set_address(0x10);
  auto wr = send(Command::kWriteData, 0xAB);
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(wr->type, RxType::kStatus);
  EXPECT_EQ(slave_.memory_at(0x10), 0xAB);

  set_address(0x10);
  auto rd = send(Command::kReadData, 0);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->type, RxType::kData);
  EXPECT_EQ(rd->data, 0xAB);
}

TEST_F(SlaveTest, AddressPointerIsShiftRegister) {
  select_memory();
  send(Command::kWriteAddress, 0x12);
  send(Command::kWriteAddress, 0x34);
  EXPECT_EQ(slave_.address_pointer(), 0x1234);
  send(Command::kWriteAddress, 0x56);
  EXPECT_EQ(slave_.address_pointer(), 0x3456);
}

TEST_F(SlaveTest, AutoIncrementAdvancesAfterDataOps) {
  select_memory();
  send(Command::kWriteCommand, cmdbits::kAutoIncrement);
  set_address(0x00);
  send(Command::kWriteData, 1);
  send(Command::kWriteData, 2);
  send(Command::kWriteData, 3);
  EXPECT_EQ(slave_.memory_at(0), 1);
  EXPECT_EQ(slave_.memory_at(1), 2);
  EXPECT_EQ(slave_.memory_at(2), 3);
  EXPECT_EQ(slave_.address_pointer(), 3);
}

TEST_F(SlaveTest, WithoutAutoIncrementAddressStays) {
  select_memory();
  set_address(0x07);
  send(Command::kWriteData, 1);
  send(Command::kWriteData, 2);
  EXPECT_EQ(slave_.memory_at(7), 2);
  EXPECT_EQ(slave_.address_pointer(), 7);
}

TEST_F(SlaveTest, OutOfRangeMemoryAccessNaks) {
  select_memory();
  set_address(0xFFFF);  // beyond the 256-byte default memory
  auto reply = send(Command::kReadData, 0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, RxType::kNak);
}

TEST_F(SlaveTest, ReadFlagsReportsAndClearsSticky) {
  select_memory();
  slave_.raise_interrupt();
  auto flags = send(Command::kReadFlags, 0);
  ASSERT_TRUE(flags.has_value());
  EXPECT_EQ(flags->type, RxType::kFlags);
  EXPECT_TRUE(flags->data & flagbits::kPendingInterrupt);
}

TEST_F(SlaveTest, SystemRegistersReadable) {
  select_system();
  set_address(static_cast<std::uint16_t>(SysReg::kNodeId));
  auto reply = send(Command::kReadData, 0);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->data, 5);
}

TEST_F(SlaveTest, DmaCounterTracksOutboxDepth) {
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  slave_.host_send(payload);
  select_system();
  set_address(static_cast<std::uint16_t>(SysReg::kDmaCountLo));
  auto lo = send(Command::kReadData, 0);
  ASSERT_TRUE(lo.has_value());
  EXPECT_EQ(lo->data, 5);
}

TEST_F(SlaveTest, OutboxPortPopsBytes) {
  const std::uint8_t payload[] = {0xAA, 0xBB};
  slave_.host_send(payload);
  EXPECT_TRUE(slave_.pending_interrupt());
  select_system();
  set_address(static_cast<std::uint16_t>(SysReg::kOutboxPort));
  EXPECT_EQ(send(Command::kReadData, 0)->data, 0xAA);
  EXPECT_EQ(send(Command::kReadData, 0)->data, 0xBB);
  // Empty FIFO answers NAK and the interrupt drops.
  EXPECT_EQ(send(Command::kReadData, 0)->type, RxType::kNak);
  EXPECT_FALSE(slave_.pending_interrupt());
}

TEST_F(SlaveTest, InboxPortDeliversToHost) {
  int signal_count = 0;
  slave_.on_inbox_byte().connect([&](std::uint8_t) { ++signal_count; });
  select_system();
  set_address(static_cast<std::uint16_t>(SysReg::kInboxPort));
  send(Command::kWriteData, 0x11);
  send(Command::kWriteData, 0x22);
  EXPECT_EQ(signal_count, 2);
  EXPECT_EQ(slave_.host_receive(),
            (std::vector<std::uint8_t>{0x11, 0x22}));
  EXPECT_EQ(slave_.inbox_depth(), 0u);
}

TEST_F(SlaveTest, InboxOverflowNaksAndSetsFlag) {
  SlaveConfig tiny;
  tiny.inbox_capacity = 2;
  SlaveDevice small(sim_, 6, link_, tiny);
  auto push = [&](std::uint8_t b) {
    small.observe_frame(TxFrame{Command::kSelect, system_address(6)}.encode());
    small.observe_frame(TxFrame{Command::kWriteAddress, 0}.encode());
    small.observe_frame(
        TxFrame{Command::kWriteAddress,
                static_cast<std::uint8_t>(SysReg::kInboxPort)}.encode());
    return small.observe_frame(TxFrame{Command::kWriteData, b}.encode());
  };
  EXPECT_EQ(push(1)->type, RxType::kStatus);
  EXPECT_EQ(push(2)->type, RxType::kStatus);
  EXPECT_EQ(push(3)->type, RxType::kNak);
  EXPECT_TRUE(small.flags() & flagbits::kInboxOverflow);
}

TEST_F(SlaveTest, ReadOnlyRegistersNakOnWrite) {
  select_system();
  for (SysReg reg : {SysReg::kFlags, SysReg::kDmaCountLo, SysReg::kDmaCountHi,
                     SysReg::kOutboxPort, SysReg::kNodeId}) {
    set_address(static_cast<std::uint16_t>(reg));
    auto reply = send(Command::kWriteData, 0x42);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(reply->type, RxType::kNak) << "reg=" << static_cast<int>(reg);
  }
}

TEST_F(SlaveTest, SpiTransferExchangesBytes) {
  select_memory();
  auto first = send(Command::kSpiTransfer, 0x5A);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->data, 0x00);  // ShiftSpi returns the previous byte
  auto second = send(Command::kSpiTransfer, 0xC3);
  EXPECT_EQ(second->data, 0x5A);
}

TEST_F(SlaveTest, BroadcastExecutesWithoutReply) {
  EXPECT_FALSE(send(Command::kSelect, memory_address(kBroadcastNodeId))
                   .has_value());
  // The broadcast-selected slave executes but stays silent.
  EXPECT_FALSE(send(Command::kWriteAddress, 0x00).has_value());
  EXPECT_FALSE(send(Command::kWriteData, 0x77).has_value());
  EXPECT_EQ(slave_.memory_at(0), 0x77);
}

TEST_F(SlaveTest, SoftResetClearsState) {
  select_memory();
  set_address(3);
  send(Command::kWriteData, 9);
  slave_.raise_interrupt();
  send(Command::kWriteCommand, cmdbits::kSoftReset);
  EXPECT_TRUE(slave_.in_reset());
  EXPECT_FALSE(slave_.selected());
  EXPECT_FALSE(slave_.pending_interrupt());
  EXPECT_EQ(slave_.address_pointer(), 0);
  EXPECT_TRUE(slave_.flags() & flagbits::kWasReset);
  // Frames during the 33-bit-period reset pulse are ignored.
  EXPECT_FALSE(slave_.observe_frame(
      TxFrame{Command::kSelect, memory_address(5)}.encode()).has_value());
}

TEST_F(SlaveTest, WatchdogResetsAfter2048BitPeriods) {
  select_memory();
  set_address(1);
  send(Command::kWriteData, 0x42);
  EXPECT_EQ(slave_.stats().resets, 0u);
  // Silence beyond the reset timeout, then a frame: the slave must have
  // reset (deselected, pointer cleared) but be responsive again after the
  // 33-bit pulse.
  sim_.run_until(sim_.now() + link_.reset_timeout() + link_.reset_pulse() +
                 link_.bits(10));
  auto reply = slave_.observe_frame(
      TxFrame{Command::kSelect, memory_address(5)}.encode());
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(slave_.stats().resets, 1u);
  EXPECT_EQ(slave_.address_pointer(), 0);
  EXPECT_TRUE(slave_.flags() & flagbits::kWasReset);
}

TEST_F(SlaveTest, FrameInsideResetPulseIsDropped) {
  select_memory();
  // Jump to just inside the pulse window after the watchdog fires.
  sim_.run_until(sim_.now() + link_.reset_timeout() + link_.bits(10));
  auto reply = slave_.observe_frame(
      TxFrame{Command::kSelect, memory_address(5)}.encode());
  EXPECT_FALSE(reply.has_value());
  EXPECT_TRUE(slave_.in_reset());
}

TEST_F(SlaveTest, CorruptedFramesDoNotPetWatchdog) {
  select_memory();
  const std::uint64_t valid_before = slave_.stats().valid_frames;
  // A corrupted word (bad CRC) is observed but ignored.
  const std::uint16_t bad = TxFrame{Command::kPing, 0}.encode() ^ 0x0010;
  EXPECT_FALSE(slave_.observe_frame(bad).has_value());
  EXPECT_EQ(slave_.stats().valid_frames, valid_before);
  EXPECT_EQ(slave_.stats().frames_observed, valid_before + 1);
}

TEST_F(SlaveTest, HostSendRespectsOutboxCapacity) {
  SlaveConfig tiny;
  tiny.outbox_capacity = 3;
  SlaveDevice small(sim_, 7, link_, tiny);
  const std::uint8_t payload[] = {1, 2, 3, 4, 5};
  EXPECT_EQ(small.host_send(payload), 3u);
  EXPECT_EQ(small.outbox_depth(), 3u);
}

TEST_F(SlaveTest, RejectsBroadcastNodeId) {
  EXPECT_THROW(SlaveDevice(sim_, kBroadcastNodeId, link_),
               util::PreconditionError);
}

TEST_F(SlaveTest, MmioReadHookOverridesMemory) {
  int reads = 0;
  slave_.map_io(0x20, [&] { ++reads; return std::uint8_t{0x99}; }, nullptr);
  slave_.set_memory(0x20, 0x11);  // underlying RAM is shadowed
  select_memory();
  set_address(0x20);
  auto rd = send(Command::kReadData, 0);
  ASSERT_TRUE(rd.has_value());
  EXPECT_EQ(rd->data, 0x99);
  EXPECT_EQ(reads, 1);
  // Writing a read-only device register NAKs.
  auto wr = send(Command::kWriteData, 0x42);
  EXPECT_EQ(wr->type, RxType::kNak);
}

TEST_F(SlaveTest, MmioWriteHookReceivesValue) {
  std::uint8_t latched = 0;
  slave_.map_io(0x21, nullptr, [&](std::uint8_t v) { latched = v; });
  select_memory();
  set_address(0x21);
  auto wr = send(Command::kWriteData, 0xAB);
  ASSERT_TRUE(wr.has_value());
  EXPECT_EQ(wr->type, RxType::kStatus);
  EXPECT_EQ(latched, 0xAB);
  // Reading a write-only device register NAKs.
  auto rd = send(Command::kReadData, 0);
  EXPECT_EQ(rd->type, RxType::kNak);
}

TEST_F(SlaveTest, MmioAutoIncrementWalksAcrossDeviceAndRam) {
  std::uint8_t dev = 0x55;
  slave_.map_io(0x10, [&] { return dev; },
                [&](std::uint8_t v) { dev = v; });
  slave_.set_memory(0x11, 0x66);
  select_memory();
  send(Command::kWriteCommand, cmdbits::kAutoIncrement);
  set_address(0x10);
  EXPECT_EQ(send(Command::kReadData, 0)->data, 0x55);  // device
  EXPECT_EQ(send(Command::kReadData, 0)->data, 0x66);  // RAM neighbour
}

TEST_F(SlaveTest, MmioRequiresSomeDirection) {
  EXPECT_THROW(slave_.map_io(0x10, nullptr, nullptr),
               util::PreconditionError);
}

TEST_F(SlaveTest, PingReportsInterruptStatus) {
  select_memory();
  auto quiet = send(Command::kPing, 0);
  EXPECT_FALSE(quiet->status_interrupt());
  slave_.raise_interrupt();
  auto pending = send(Command::kPing, 0);
  EXPECT_TRUE(pending->status_interrupt());
  send(Command::kWriteCommand, cmdbits::kClearInterrupt);
  auto cleared = send(Command::kPing, 0);
  EXPECT_FALSE(cleared->status_interrupt());
}

// --- the decoded observe path ---------------------------------------------

enum class Start { kSelectedMemory, kSelectedSystem, kUnselected, kBroadcast };

/// A fresh node 5 with three outbox bytes, brought into `start` by frames.
std::unique_ptr<SlaveDevice> prepared_slave(sim::Simulator& sim,
                                            const LinkConfig& link,
                                            Start start) {
  auto slave = std::make_unique<SlaveDevice>(sim, 5, link);
  const std::uint8_t outgoing[] = {1, 2, 3};
  slave->host_send(outgoing);
  auto send = [&](Command cmd, std::uint8_t data) {
    slave->observe_frame(TxFrame{cmd, data}.encode());
  };
  switch (start) {
    case Start::kSelectedMemory:
      send(Command::kSelect, memory_address(5));
      send(Command::kWriteCommand, cmdbits::kAutoIncrement);
      send(Command::kWriteAddress, 0x00);
      send(Command::kWriteAddress, 0x10);
      break;
    case Start::kSelectedSystem:
      send(Command::kSelect, system_address(5));
      send(Command::kWriteAddress, 0x00);
      send(Command::kWriteAddress,
           static_cast<std::uint8_t>(SysReg::kOutboxPort));
      break;
    case Start::kUnselected:
      send(Command::kSelect, memory_address(6));
      break;
    case Start::kBroadcast:
      send(Command::kSelect, memory_address(kBroadcastNodeId));
      break;
  }
  return slave;
}

void expect_same_slave(const SlaveDevice& a, const SlaveDevice& b) {
  const SlaveDevice::Stats& sa = a.stats();
  const SlaveDevice::Stats& sb = b.stats();
  EXPECT_EQ(sa.frames_observed, sb.frames_observed);
  EXPECT_EQ(sa.valid_frames, sb.valid_frames);
  EXPECT_EQ(sa.commands_executed, sb.commands_executed);
  EXPECT_EQ(sa.resets, sb.resets);
  EXPECT_EQ(sa.naks, sb.naks);
  EXPECT_EQ(a.selected(), b.selected());
  EXPECT_EQ(a.broadcast_selected(), b.broadcast_selected());
  EXPECT_EQ(a.address_pointer(), b.address_pointer());
  EXPECT_EQ(a.flags(), b.flags());
  EXPECT_EQ(a.pending_interrupt(), b.pending_interrupt());
  EXPECT_EQ(a.in_reset(), b.in_reset());
  EXPECT_EQ(a.outbox_depth(), b.outbox_depth());
  EXPECT_EQ(a.inbox_depth(), b.inbox_depth());
  EXPECT_EQ(a.memory_at(0x10), b.memory_at(0x10));
}

// The bus hands every slave a word decoded once per cycle; the raw-word
// overload decodes per call. Over every 16-bit word, corrupt ones included,
// from every kind of selection, both must leave a fresh slave in the same
// state with the same reply.
TEST(SlaveDecodedPath, EveryTxWordMatchesTheWordOverload) {
  sim::Simulator sim;
  LinkConfig link;
  for (Start start : {Start::kSelectedMemory, Start::kSelectedSystem,
                      Start::kUnselected, Start::kBroadcast}) {
    for (std::uint32_t w = 0; w <= 0xFFFF; ++w) {
      const auto word = static_cast<std::uint16_t>(w);
      auto by_word = prepared_slave(sim, link, start);
      auto by_frame = prepared_slave(sim, link, start);
      const std::optional<RxFrame> a = by_word->observe_frame(word);
      const std::optional<RxFrame> b =
          by_frame->observe_frame(TxFrame::decode(word), sim.now());
      ASSERT_EQ(a, b) << "word 0x" << std::hex << w;
      expect_same_slave(*by_word, *by_frame);
      if (::testing::Test::HasFailure()) {
        FAIL() << "word 0x" << std::hex << w << " start "
               << static_cast<int>(start);
      }
    }
  }
}

}  // namespace
}  // namespace tb::wire
