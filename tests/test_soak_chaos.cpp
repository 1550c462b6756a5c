// Chaos soak: the Figure 7 stack under a seeded mixed fault plan — frame
// bit errors at BER 1e-4, one slave power-cycle mid-run, periodic delay
// spikes and a small clock drift — with the invariant checker riding the
// trace streams. The stack must absorb everything: all client rounds
// complete, zero invariant violations, no stuck machinery at the end.
//
// The scenario runs once per seed through tb::par::SweepRunner (TB_JOBS
// workers). Worker threads never touch gtest: each run returns a plain
// outcome struct and every assertion happens on the main thread. Results
// are a pure function of the seed, so TB_JOBS only changes wall-clock.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cosim/scenario.hpp"
#include "src/net/tpwire_channel.hpp"
#include "src/par/sweep.hpp"
#include "src/sim/process.hpp"

namespace tb {
namespace {

using namespace tb::sim::literals;

constexpr int kRounds = 30;

struct SoakOutcome {
  std::uint64_t seed = 0;
  int a_completed = 0;
  int b_completed = 0;
  int write_failures = 0;
  int payload_mismatches = 0;
  std::uint64_t bits_flipped = 0;
  std::uint64_t retries = 0;
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  std::uint64_t sink_segments = 0;
  bool checker_ok = false;
  std::string checker_report;
  std::uint64_t cycles_checked = 0;
  std::size_t space_size = 0;
  std::uint64_t blocked_operations = 0;
  std::size_t max_inbox_depth = 0;

  bool operator==(const SoakOutcome&) const = default;
};

SoakOutcome run_chaos_soak(std::uint64_t seed, int shard_count = 1) {
  cosim::ScenarioConfig config;
  config.space.shard_count = shard_count;
  config.link.bit_rate_hz = 500'000;
  config.relay.poll_period = sim::Time::ms(1);
  config.use_xml_codec = false;  // binary codec keeps the soak cheap

  config.fault.seed = seed;
  config.fault.bit_error_rate = 1e-4;
  // Power-cycle the CBR sink's slave (hosts neither server nor clients):
  // one minute of darkness in the middle of the run.
  config.fault.crashes.push_back({.slave_index = 3,
                                  .crash_at = sim::Time::sec(600),
                                  .restart_at = sim::Time::sec(660)});
  // A 5 ms latency burst in the first 100 ms of every 10 s.
  config.fault.delay_spikes = {.period = 10_s, .width = 100_ms, .extra = 5_ms};
  config.fault.clock_drift = 1e-3;
  // Spiked cycles legitimately stretch far past the clean-run deadline.
  config.checker.op_deadline_factor = 25.0;

  cosim::WireScenario scenario(config);

  mw::ClientConfig client_config;
  client_config.rpc_timeout = 10_s;
  client_config.rpc_retries = 5;
  // De-phase retransmissions from the 10 s spike cadence: at 500 kHz the
  // 5 ms spikes outlast the slave watchdog (2048 bit periods ~ 4.1 ms), so
  // every spike window wipes mailboxes — a fixed 10 s retry cadence would
  // land every attempt in a wipe.
  client_config.rpc_backoff = 1.5;
  mw::SpaceClient& client_a = scenario.add_client(0, client_config);
  mw::SpaceClient& client_b = scenario.add_client(1, client_config);

  net::CbrParams cbr_params;
  cbr_params.rate_bytes_per_sec = 4.0;
  net::WireCbrSource cbr(scenario.sim(), scenario.slave(1),
                         scenario.node_id(3), cbr_params);
  net::WireSink sink(scenario.sim(), scenario.slave(3));

  scenario.start();
  cbr.start();

  SoakOutcome outcome;
  outcome.seed = seed;

  sim::spawn([&]() -> sim::Task<void> {
    for (int round = 0; round < kRounds; ++round) {
      const space::Tuple written =
          space::make_tuple("job", std::int64_t{round}, "chaos-payload");
      auto wr = co_await client_a.write(written, 40_s);
      if (!wr.ok) ++outcome.write_failures;
      space::Template tmpl(
          std::string("job"),
          {space::FieldPattern::exact(space::Value(std::int64_t{round})),
           space::FieldPattern::any()});
      auto taken = co_await client_a.take(std::move(tmpl), 30_s);
      if (taken.has_value()) {
        // Linearizability at the payload level: the taken tuple is exactly
        // the written one — never a corrupted or duplicated variant.
        if (*taken != written) ++outcome.payload_mismatches;
        ++outcome.a_completed;
      }
      co_await sim::delay(scenario.sim(), 60_s);
    }
  });

  sim::spawn([&]() -> sim::Task<void> {
    for (int round = 0; round < kRounds; ++round) {
      auto wr = co_await client_b.write(
          space::make_tuple("b-state", std::int64_t{round}), 40_s);
      if (!wr.ok) ++outcome.write_failures;
      space::Template tmpl(
          std::string("b-state"),
          {space::FieldPattern::exact(space::Value(std::int64_t{round}))});
      auto taken = co_await client_b.take(std::move(tmpl), 30_s);
      if (taken.has_value()) ++outcome.b_completed;
      co_await sim::delay(scenario.sim(), 60_s);
    }
  });

  scenario.sim().run_until(sim::Time::sec(3'600));

  outcome.bits_flipped = scenario.fault_plan().stats().bits_flipped;
  outcome.retries = scenario.master().stats().retries;
  outcome.kills = scenario.slave(3).stats().kills;
  outcome.restarts = scenario.slave(3).stats().restarts;
  outcome.sink_segments = sink.segments_received();

  scenario.checker().finish();
  outcome.checker_ok = scenario.checker().ok();
  if (!outcome.checker_ok) outcome.checker_report = scenario.checker().report();
  outcome.cycles_checked = scenario.checker().stats().cycles_checked;
  outcome.space_size = scenario.space().size();
  outcome.blocked_operations = scenario.space().blocked_operations();
  for (int i = 0; i < scenario.slave_count(); ++i) {
    outcome.max_inbox_depth =
        std::max(outcome.max_inbox_depth, scenario.slave(i).inbox_depth());
  }
  return outcome;
}

TEST(SoakChaos, Figure7StackSurvivesMixedFaultPlan) {
  const std::vector<std::uint64_t> seeds{0x50AC, 0x51AC};
  par::SweepRunner runner;
  const std::vector<SoakOutcome> outcomes = runner.run(
      seeds.size(), [&](std::size_t i) { return run_chaos_soak(seeds[i]); });

  for (const SoakOutcome& o : outcomes) {
    SCOPED_TRACE("seed=" + std::to_string(o.seed));

    // Eventual completion: every round finished despite the fault plan.
    EXPECT_EQ(o.a_completed, kRounds);
    EXPECT_EQ(o.b_completed, kRounds);
    EXPECT_EQ(o.write_failures, 0);
    EXPECT_EQ(o.payload_mismatches, 0);

    // The plan actually fired: bit errors, retries, the power cycle.
    EXPECT_GT(o.bits_flipped, 100u);
    EXPECT_GT(o.retries, 0u);
    EXPECT_EQ(o.kills, 1u);
    EXPECT_EQ(o.restarts, 1u);

    // Background traffic flowed around the outage.
    EXPECT_GT(o.sink_segments, 1'000u);

    // Zero invariant violations, and nothing left stuck.
    EXPECT_TRUE(o.checker_ok) << o.checker_report;
    EXPECT_GT(o.cycles_checked, 10'000u);
    EXPECT_LT(o.space_size, 5u);
    EXPECT_EQ(o.blocked_operations, 0u);
    EXPECT_LT(o.max_inbox_depth, 1'024u);
  }
}

TEST(SoakChaos, ShardedEngineIsByteIdenticalAndSweepDeterministic) {
  // DESIGN.md §10 determinism rules, both at once: shard_count must not
  // change anything observable (this workload uses named templates, whose
  // event schedule is shard-invariant), and every outcome must be a pure
  // function of its sweep point — TB_JOBS worker count included.
  const std::vector<int> shard_counts{1, 4};
  auto point = [&](std::size_t i) {
    return run_chaos_soak(0x50AC, shard_counts[i]);
  };
  const auto serial = par::SweepRunner(1).run(shard_counts.size(), point);
  const auto parallel = par::SweepRunner(4).run(shard_counts.size(), point);

  EXPECT_EQ(serial[0].a_completed, kRounds);
  EXPECT_TRUE(serial[0].checker_ok) << serial[0].checker_report;
  EXPECT_TRUE(serial[0] == serial[1]) << "shard_count changed the run";
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(serial[i] == parallel[i]) << "TB_JOBS changed point " << i;
  }
}

}  // namespace
}  // namespace tb
