#include "src/fed/cluster.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "co_gtest.hpp"
#include "src/cosim/federation.hpp"
#include "src/sim/process.hpp"
#include "src/space/oplog.hpp"
#include "src/util/status.hpp"

namespace tb::fed {
namespace {

using namespace tb::sim::literals;

class FedClusterTest : public ::testing::Test {
 protected:
  template <typename Fn>
  void drive(sim::Simulator& sim, Fn&& body) {
    bool done = false;
    sim::spawn([&]() -> sim::Task<void> {
      co_await body();
      done = true;
    });
    sim.run();
    ASSERT_TRUE(done);
  }
};

space::Template named_template(std::string name) {
  return space::Template(std::move(name),
                         {space::FieldPattern::typed(space::ValueType::kInt)});
}

space::Template wildcard_template() {
  return space::Template(std::nullopt,
                         {space::FieldPattern::typed(space::ValueType::kInt)});
}

// Acceptance leg 1: every write of a given name lands on exactly one node —
// the one the routing table owns the type_key to — proven from the per-node
// OpLogs and op counters.
TEST_F(FedClusterTest, NamedOpsRouteToExactlyOneNode) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 4});
  auto router = cluster.make_router();

  constexpr int kNames = 8;
  constexpr int kPerName = 5;
  drive(sim, [&]() -> sim::Task<void> {
    for (int n = 0; n < kNames; ++n) {
      for (int i = 0; i < kPerName; ++i) {
        const bool ok = co_await router->write(
            space::make_tuple("job-" + std::to_string(n),
                              static_cast<std::int64_t>(i)),
            space::kLeaseForever);
        CO_ASSERT_TRUE(ok);
      }
    }
  });

  // Each name appears in exactly one node's log, and it is the table owner.
  const RoutingTable& table = cluster.routing().current();
  std::map<std::string, std::uint32_t> seen_on;
  std::uint64_t named_ops = 0;
  for (std::size_t i = 0; i < cluster.node_count(); ++i) {
    named_ops += cluster.core(i).stats().named_ops;
    for (const space::OpRecord& record : cluster.core(i).oplog().sorted()) {
      if (record.kind != space::OpRecord::Kind::kWrite) continue;
      auto [it, inserted] =
          seen_on.emplace(record.tuple.name, cluster.node_id(i));
      EXPECT_TRUE(inserted || it->second == cluster.node_id(i))
          << record.tuple.name << " spread across nodes";
      EXPECT_EQ(table.owner_of(space::type_key(record.tuple.name,
                                               record.tuple.arity())),
                cluster.node_id(i));
    }
  }
  EXPECT_EQ(seen_on.size(), static_cast<std::size_t>(kNames));
  EXPECT_EQ(named_ops, static_cast<std::uint64_t>(kNames * kPerName));
  EXPECT_EQ(router->stats().routed_writes,
            static_cast<std::uint64_t>(kNames * kPerName));
}

// Wildcard take drains in global-ticket order: the federation-wide oldest
// first, interleaved across nodes exactly as written.
TEST_F(FedClusterTest, WildcardTakeMergesInTicketOrder) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3});
  auto router = cluster.make_router();

  constexpr int kJobs = 24;
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < kJobs; ++i) {
      // Names cycle so consecutive writes land on different nodes.
      const bool ok = co_await router->write(
          space::make_tuple("job-" + std::to_string(i % 6),
                            static_cast<std::int64_t>(i)),
          space::kLeaseForever);
      CO_ASSERT_TRUE(ok);
    }
    for (int i = 0; i < kJobs; ++i) {
      std::optional<space::Tuple> job =
          co_await router->take(wildcard_template(), sim::Time::zero());
      CO_ASSERT_TRUE(job.has_value());
      // Writes were issued one at a time, so ticket order == issue order.
      CO_ASSERT_EQ(job->fields[0].as_int(), i);
    }
    std::optional<space::Tuple> empty =
        co_await router->take(wildcard_template(), sim::Time::zero());
    CO_ASSERT_FALSE(empty.has_value());
  });
  EXPECT_GT(router->stats().wildcard_matches, 0u);
  EXPECT_EQ(router->stats().directed_takes, static_cast<std::uint64_t>(kJobs));
}

// Wildcard read peeks without consuming and sees the same winner.
TEST_F(FedClusterTest, WildcardReadIsNonDestructive) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 3});
  auto router = cluster.make_router();
  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < 6; ++i) {
      co_await router->write(space::make_tuple("job-" + std::to_string(i),
                                               static_cast<std::int64_t>(i)),
                             space::kLeaseForever);
    }
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::optional<space::Tuple> oldest =
          co_await router->read(wildcard_template(), sim::Time::zero());
      CO_ASSERT_TRUE(oldest.has_value());
      CO_ASSERT_EQ(oldest->fields[0].as_int(), 0);
    }
  });
}

// A router holding a stale table gets a typed kFailedPrecondition from the
// no-longer-owner, refreshes, and completes against the new owner — no
// blind retransmit, no dropped op.
TEST_F(FedClusterTest, StaleRouterRefreshesOnMisroute) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 4});
  auto router = cluster.make_router();

  // Find a name owned by node 4 so dropping node 4 from the table moves it.
  const RoutingTable& initial = cluster.routing().current();
  std::string moving_name;
  for (int n = 0; moving_name.empty(); ++n) {
    std::string candidate = "mis-" + std::to_string(n);
    if (initial.owner_of(space::type_key(candidate, 1)) == 4) {
      moving_name = std::move(candidate);
    }
  }

  const std::vector<std::uint32_t> shrunk{1, 2, 3};
  drive(sim, [&]() -> sim::Task<void> {
    // Warm the router's table at epoch 1.
    const bool warm = co_await router->write(
        space::make_tuple(moving_name, std::int64_t{0}), space::kLeaseForever);
    CO_ASSERT_TRUE(warm);
    CO_ASSERT_EQ(router->table_epoch(), 1u);

    // Authority shrinks the ring: node 4 no longer owns anything.
    cluster.routing().publish(table_from_members(2, shrunk, 64));
    cluster.refresh_ownership();

    // The router still routes to node 4, which rejects with its new epoch;
    // the router refreshes and lands the write on the new owner.
    const util::Status moved = co_await router->write_status(
        space::make_tuple(moving_name, std::int64_t{1}), space::kLeaseForever);
    CO_ASSERT_TRUE(moved.ok());
    CO_ASSERT_EQ(router->table_epoch(), 2u);

    // The tuple is takeable through the fresh route.
    std::optional<space::Tuple> taken = co_await router->take(
        named_template(moving_name), sim::Time::zero());
    CO_ASSERT_TRUE(taken.has_value());
  });

  EXPECT_GE(router->stats().misroute_refreshes, 1u);
  const mw::NodeCore::Stats& old_owner = cluster.core(3).stats();
  EXPECT_GE(old_owner.misroute_rejects, 1u);
}

// Satellite: an unknown frame kind gets a typed kUnimplemented reply with
// the request id preserved — the session survives.
TEST_F(FedClusterTest, UnknownFrameAnsweredUnimplemented) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 1});
  mw::SpaceClient& channel = cluster.channel(cluster.node_id(0));

  drive(sim, [&]() -> sim::Task<void> {
    mw::Message future_frame;
    future_frame.type = mw::MsgType::kUnknownFrame;  // encodes past our max
    std::optional<mw::Message> reply =
        co_await channel.rpc_async(std::move(future_frame));
    CO_ASSERT_TRUE(reply.has_value());
    CO_ASSERT_EQ(reply->type, mw::MsgType::kError);
    CO_ASSERT_EQ(static_cast<util::StatusCode>(reply->status),
                 util::StatusCode::kUnimplemented);

    // Same session still serves normal traffic afterwards.
    const auto wrote = co_await channel.write_async(
        space::make_tuple("alive", std::int64_t{1}), space::kLeaseForever);
    CO_ASSERT_TRUE(wrote.ok);
  });
  EXPECT_EQ(cluster.core(0).stats().unknown_frames, 1u);
}

// The router's retry bounds are constants: a named write whose owner never
// has a channel refreshes the table a fixed number of times (3) and then
// gives up with UNAVAILABLE instead of spinning.
TEST_F(FedClusterTest, NamedWriteWithNoChannelGivesUpAfterRetryBound) {
  sim::Simulator sim{1};
  SharedRoutingSource routing;
  routing.publish(table_from_members(1, {1, 2}));
  FederatedClient router(sim, routing,
                         [](std::uint32_t) -> mw::SpaceClient* {
                           return nullptr;
                         });

  util::Status status;
  drive(sim, [&]() -> sim::Task<void> {
    status = co_await router.write_status(
        space::make_tuple("orphan", std::int64_t{1}), space::kLeaseForever);
  });
  EXPECT_EQ(status.code(), util::StatusCode::kUnavailable);
  EXPECT_EQ(router.stats().routed_writes, 0u);
  EXPECT_EQ(router.stats().misroute_refreshes, 3u);
  EXPECT_EQ(router.stats().table_fetches, 4u);  // first fetch + 3 refreshes
}

// A blocking wildcard read cannot park on any one node, so it polls every
// 5 ms and stops once the next poll would pass its deadline. The last peek
// round may start just before the deadline, so on an empty cluster the
// nullopt arrives at most one peek round trip after it — the same slack a
// named blocking op has, whose server-side wait starts on arrival and whose
// reply still has to travel back.
TEST_F(FedClusterTest, BlockingWildcardReadPollsUntilDeadline) {
  const ClusterConfig config{.nodes = 2};
  const sim::Time poll_interval = 5_ms;
  const sim::Time round_trip =
      config.one_way_delay * 2 + config.server.service_delay;
  for (sim::Time timeout = 100_us; timeout <= 20_ms; timeout += 100_us) {
    sim::Simulator sim{1};
    SimCluster cluster(sim, config);
    auto router = cluster.make_router();

    std::optional<space::Tuple> result;
    sim::Time deadline;
    sim::Time returned_at;
    drive(sim, [&]() -> sim::Task<void> {
      deadline = sim.now() + timeout;
      result = co_await router->read(wildcard_template(), timeout);
      returned_at = sim.now();
    });
    SCOPED_TRACE(::testing::Message() << "timeout " << timeout.count_ns()
                                      << " ns");
    EXPECT_FALSE(result.has_value());
    EXPECT_LE(returned_at.count_ns(), (deadline + round_trip).count_ns());
    // No early give-up: it stopped only because the next poll would land
    // past the deadline.
    EXPECT_GT((returned_at + poll_interval).count_ns(), deadline.count_ns());
    if (timeout >= round_trip + poll_interval) {
      EXPECT_GT(router->stats().polls, 0u);
    }
  }
}

// Acceptance leg 2: the 4-node run drains in exactly the order the 1-node
// run drains — the scatter/merge is equivalent to one big space.
TEST_F(FedClusterTest, FourNodeDrainMatchesSingleNodeOrder) {
  cosim::FederationConfig config;
  config.producers = 1;
  config.consumers = 1;
  config.jobs = 60;
  config.job_names = 7;

  config.nodes = 1;
  cosim::FederationReport single = cosim::run_federation_scenario(config);
  config.nodes = 4;
  cosim::FederationReport four = cosim::run_federation_scenario(config);

  ASSERT_TRUE(single.drained);
  ASSERT_TRUE(four.drained);
  EXPECT_EQ(single.consumed, static_cast<std::uint64_t>(config.jobs));
  EXPECT_EQ(four.consumed, static_cast<std::uint64_t>(config.jobs));
  EXPECT_EQ(single.drain_order, four.drain_order);
  EXPECT_TRUE(single.oracle.equivalent) << single.oracle.divergence;
  EXPECT_TRUE(four.oracle.equivalent) << four.oracle.divergence;
  // Spread proof: more than one node did named work.
  int serving = 0;
  for (std::uint64_t ops : four.named_ops_per_node) serving += ops > 0;
  EXPECT_GT(serving, 1);
}

// Acceptance leg 3: kill the primary mid-run; the StandbyGuard promotes the
// replication standby and the merged per-node OpLogs replay through the
// deterministic oracle with zero acked writes lost.
TEST_F(FedClusterTest, KillPrimaryLosesNoAckedWrite) {
  cosim::FederationConfig config;
  config.nodes = 4;
  config.producers = 2;
  config.consumers = 2;
  config.jobs = 150;
  config.job_names = 8;
  config.produce_gap = sim::Time::ms(2);
  config.kill_at = sim::Time::ms(120);

  cosim::FederationReport report = cosim::run_federation_scenario(config);

  ASSERT_TRUE(report.promoted);
  EXPECT_GT(report.promoted_at, config.kill_at);
  EXPECT_TRUE(report.drained);
  EXPECT_EQ(report.residual_tuples, 0u);
  // Every acked job was taken. The consumer-side count may trail by at most
  // one swallowed take ack per consumer (applied + replicated by the dying
  // primary, ack lost in the crash) — those jobs are gone legitimately and
  // the oracle below balances them.
  EXPECT_GE(report.consumed + static_cast<std::uint64_t>(config.consumers),
            report.acked_writes);
  EXPECT_TRUE(report.oracle.equivalent) << report.oracle.divergence;
  EXPECT_GT(report.oracle.ops_replayed, 0u);
  EXPECT_GT(report.heartbeats_consumed, 0u);
}

// Quiescent promotion: everything the primary acked is takeable from the
// promoted standby, in order.
TEST_F(FedClusterTest, PromotionPreservesPrimaryState) {
  sim::Simulator sim{1};
  SimCluster cluster(sim, {.nodes = 2, .with_standby = true});
  auto router = cluster.make_router();

  // A name owned by the primary (node 1).
  const RoutingTable& table = cluster.routing().current();
  std::string primary_name;
  for (int n = 0; primary_name.empty(); ++n) {
    std::string candidate = "p-" + std::to_string(n);
    if (table.owner_of(space::type_key(candidate, 1)) == cluster.primary_id()) {
      primary_name = std::move(candidate);
    }
  }

  drive(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < 10; ++i) {
      const bool ok = co_await router->write(
          space::make_tuple(primary_name, static_cast<std::int64_t>(i)),
          space::kLeaseForever);
      CO_ASSERT_TRUE(ok);
    }
    const std::size_t applied = cluster.kill_primary();
    CO_ASSERT_EQ(applied, 10u);
    for (int i = 0; i < 10; ++i) {
      std::optional<space::Tuple> got = co_await router->take(
          named_template(primary_name), sim::Time::zero());
      CO_ASSERT_TRUE(got.has_value());
      CO_ASSERT_EQ(got->fields[0].as_int(), i);
    }
  });

  EXPECT_GT(cluster.core(0).stats().replication_forwards, 0u);
  EXPECT_GE(router->stats().misroute_refreshes, 1u);

  space::OpLog merged;
  cluster.merge_oplogs(merged);
  const space::ReplayReport verdict = space::replay_against_oracle(
      merged, space::SpaceConfig{}, cluster.merged_final_state());
  EXPECT_TRUE(verdict.equivalent) << verdict.divergence;
}

}  // namespace
}  // namespace tb::fed
