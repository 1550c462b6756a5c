// Determinism regression for the fault subsystem: a chaos run is a pure
// function of its seeds. The whole point of seed-driven injection is the
// one-line bug report ("seed 0xBAD1 violates invariant X"), which only
// holds if the same seed reproduces the same run byte for byte — checked
// here on the actual replay artifact, the trace file.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/cosim/scenario.hpp"
#include "src/net/trace.hpp"
#include "src/sim/process.hpp"

namespace tb {
namespace {

using namespace tb::sim::literals;

struct ChaosRun {
  std::string trace;
  std::uint64_t executed_events = 0;
  std::uint64_t bits_flipped = 0;
  int completed = 0;
};

ChaosRun run_chaos(std::uint64_t fault_seed, const std::string& trace_path) {
  cosim::ScenarioConfig config;
  config.link.bit_rate_hz = 500'000;
  config.relay.poll_period = sim::Time::ms(1);
  config.use_xml_codec = false;
  config.fault.seed = fault_seed;
  config.fault.bit_error_rate = 2e-4;
  config.fault.crashes.push_back({.slave_index = 3,
                                  .crash_at = sim::Time::sec(3),
                                  .restart_at = sim::Time::sec(4)});
  config.fault.delay_spikes = {.period = 2_s, .width = 50_ms, .extra = 2_ms};
  config.checker.op_deadline_factor = 20.0;
  cosim::WireScenario scenario(config);

  net::Tracer tracer(scenario.sim());
  tracer.attach(scenario.bus());

  mw::ClientConfig client_config;
  client_config.rpc_timeout = 5_s;
  client_config.rpc_retries = 8;
  mw::SpaceClient& client = scenario.add_client(0, client_config);
  scenario.start();

  ChaosRun out;
  sim::spawn([&]() -> sim::Task<void> {
    for (int round = 0; round < 10; ++round) {
      auto wr = co_await client.write(
          space::make_tuple("d", std::int64_t{round}), 60_s);
      EXPECT_TRUE(wr.ok);
      space::Template tmpl(
          std::string("d"),
          {space::FieldPattern::exact(space::Value(std::int64_t{round}))});
      auto taken = co_await client.take(std::move(tmpl), 30_s);
      if (taken.has_value()) ++out.completed;
      co_await sim::delay(scenario.sim(), 500_ms);
    }
  });
  scenario.sim().run_until(sim::Time::sec(120));

  scenario.checker().finish();
  EXPECT_TRUE(scenario.checker().ok()) << scenario.checker().report();
  EXPECT_TRUE(tracer.write_file(trace_path));
  out.trace = tracer.dump();
  out.executed_events = scenario.sim().executed_events();
  out.bits_flipped = scenario.fault_plan().stats().bits_flipped;
  return out;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(FaultDeterminism, SameSeedByteIdenticalTraceDifferentSeedDiverges) {
  const std::string dir = ::testing::TempDir();
  const ChaosRun first = run_chaos(0xBEEF, dir + "chaos_a.tr");
  const ChaosRun second = run_chaos(0xBEEF, dir + "chaos_b.tr");
  const ChaosRun other = run_chaos(0xF00D, dir + "chaos_c.tr");

  // The runs did something nontrivial and the faults actually fired.
  EXPECT_EQ(first.completed, 10);
  EXPECT_GT(first.bits_flipped, 0u);
  EXPECT_GT(first.trace.size(), 10'000u);

  // Same seed: the replay artifact is byte-identical, on disk and in memory.
  const std::string file_a = slurp(dir + "chaos_a.tr");
  const std::string file_b = slurp(dir + "chaos_b.tr");
  EXPECT_FALSE(file_a.empty());
  EXPECT_EQ(file_a, file_b);
  EXPECT_EQ(file_a, first.trace);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.executed_events, second.executed_events);
  EXPECT_EQ(first.bits_flipped, second.bits_flipped);

  // Different fault seed: a genuinely different run, not a reformatted one.
  EXPECT_NE(first.trace, other.trace);
}

}  // namespace
}  // namespace tb
