// fed_mix — a federated middleware mix over loopback.
//
// Four space nodes on one sim kernel, each a SpaceEngine behind a
// LoopbackHub and an mw::NodeCore speaking the binary codec, owning a
// consistent-hash slice of the tuple names and drawing global tickets.
// Eight in-sim FederatedClient routers each run a closed loop over their own
// pre-generated script: named writes beside named reads and takes (a Zipf
// draw over 32 names), plus 5 % wildcard takes that scatter a peek to every
// node and take the min-ticket winner. Each node serves one request at a
// time (max_service_slots = 1), so hot names queue at their owner; seeded
// think times between ops make those waits vary. The wire layer is not on
// this path.
//
// The stack is assembled from its public pieces (as fed::SimCluster does)
// so that the codec and the transports can be wrapped for tracing; every
// router has its own channel to every node, which lets a traced run tie
// each rpc to the op that issued it. Set-up is building the cluster and
// writing a resident population through the routers.
#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "src/fed/client.hpp"
#include "src/fed/routing.hpp"
#include "src/mw/loopback.hpp"
#include "src/mw/node_core.hpp"
#include "src/sim/process.hpp"
#include "src/space/oplog.hpp"
#include "src/util/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tb;

constexpr int kNodes = 4;
constexpr int kRouters = 8;
constexpr int kNames = 32;
constexpr int kResident = 512;
constexpr int kOpsPerRouter = 10'000;
constexpr double kZipfS = 0.8;
constexpr sim::Time kOneWay = sim::Time::us(200);
constexpr sim::Time kHorizon = sim::Time::sec(100'000);  // watchdog only

enum class Kind : std::uint8_t { kWrite, kRead, kTake, kWildcardTake };

struct Op {
  Kind kind = Kind::kWrite;
  std::uint8_t name = 0;
  std::int64_t key = 0;   ///< unique per write
  sim::Time think;        ///< pause before the op
};

struct Inputs {
  std::vector<std::string> names;
  std::vector<space::Tuple> resident;
  std::vector<std::vector<Op>> scripts;  ///< per router
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  for (int n = 0; n < kNames; ++n) in.names.push_back("fed-" + std::to_string(n));
  std::vector<double> cdf(kNames);
  double total = 0.0;
  for (int n = 0; n < kNames; ++n) {
    total += 1.0 / std::pow(static_cast<double>(n + 1), kZipfS);
    cdf[static_cast<std::size_t>(n)] = total;
  }
  util::Xoshiro256 rng(seed);
  auto zipf = [&] {
    const double u = rng.next_double() * total;
    return static_cast<std::uint8_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  };
  std::int64_t key = 0;
  for (int i = 0; i < kResident; ++i) {
    in.resident.push_back(
        space::make_tuple(in.names[zipf()], key++, std::int64_t{-1}));
  }
  in.scripts.resize(kRouters);
  for (auto& script : in.scripts) {
    for (int i = 0; i < kOpsPerRouter; ++i) {
      Op op;
      const std::uint64_t roll = rng.uniform(0, 99);
      op.kind = roll < 35   ? Kind::kWrite
                : roll < 65 ? Kind::kRead
                : roll < 95 ? Kind::kTake
                            : Kind::kWildcardTake;
      op.name = zipf();
      op.key = key++;
      op.think = sim::Time::ns(static_cast<std::int64_t>(rng.exponential(3e6)));
      script.push_back(op);
    }
  }
  return in;
}

space::Template named_template(const std::string& name) {
  std::vector<space::FieldPattern> fields;
  fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
  fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
  return space::Template(name, std::move(fields));
}

space::Template wildcard_template() {
  std::vector<space::FieldPattern> fields;
  fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
  fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
  return space::Template(std::nullopt, std::move(fields));
}

struct Rig {
  struct Node {
    std::uint32_t id;
    space::SpaceEngine engine;
    mw::LoopbackHub hub;
    std::unique_ptr<TracedServerTransport> traced;
    std::unique_ptr<mw::NodeCore> core;

    Node(sim::Simulator& sim, std::uint32_t node_id)
        : id(node_id), engine(sim), hub(sim, kOneWay) {}
  };
  struct Channel {
    std::unique_ptr<TracedClientTransport> traced;
    std::unique_ptr<mw::SpaceClient> client;
  };

  sim::Simulator sim;
  mw::BinaryCodec binary;
  std::unique_ptr<SpanBook> book;
  CodecTimes codec_times;
  std::vector<std::unique_ptr<TracedCodec>> codecs;
  std::shared_ptr<std::uint64_t> tickets = std::make_shared<std::uint64_t>(0);
  fed::SharedRoutingSource routing;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<Channel> channels;  ///< router * kNodes + node index
  std::vector<std::unique_ptr<fed::FederatedClient>> routers;

  Rig(bool traced, std::uint64_t seed) : sim(seed) {
    if (traced) book = std::make_unique<SpanBook>(sim);
    std::vector<std::uint32_t> members;
    for (int n = 0; n < kNodes; ++n) members.push_back(static_cast<std::uint32_t>(n + 1));
    routing.publish(fed::table_from_members(1, members));

    for (int n = 0; n < kNodes; ++n) {
      auto node = std::make_unique<Node>(sim, members[static_cast<std::size_t>(n)]);
      mw::ServerTransport* transport = &node->hub;
      const mw::Codec* codec = &binary;
      if (traced) {
        node->traced = std::make_unique<TracedServerTransport>(node->hub, *book, n);
        transport = node->traced.get();
        codecs.push_back(std::make_unique<TracedCodec>(binary, *book, codec_times, -1, n));
        codec = codecs.back().get();
      }
      mw::ServerConfig server;
      server.node_id = node->id;
      server.max_service_slots = 1;  // one request in service per node
      node->core = std::make_unique<mw::NodeCore>(node->engine, *transport,
                                                  *codec, server);
      node->core->set_ticket_counter(tickets);
      node->core->set_ownership(
          [this, id = node->id](std::uint64_t type_key) {
            return routing.current().owner_of(type_key) == id;
          },
          routing.current().epoch);
      nodes.push_back(std::move(node));
    }

    // Router r's channel to node n is session r on node n's hub.
    for (int r = 0; r < kRouters; ++r) {
      for (int n = 0; n < kNodes; ++n) {
        const int endpoint = r * kNodes + n;
        mw::ClientTransport* transport = &nodes[static_cast<std::size_t>(n)]->hub.create_client();
        const mw::Codec* codec = &binary;
        Channel channel;
        if (traced) {
          book->route(n, static_cast<std::uint64_t>(r), endpoint);
          channel.traced = std::make_unique<TracedClientTransport>(*transport, *book, endpoint);
          transport = channel.traced.get();
          codecs.push_back(std::make_unique<TracedCodec>(binary, *book, codec_times, endpoint, -1));
          codec = codecs.back().get();
        }
        channel.client = std::make_unique<mw::SpaceClient>(sim, *transport, *codec);
        channels.push_back(std::move(channel));
      }
      routers.push_back(std::make_unique<fed::FederatedClient>(
          sim, routing, [this, r](std::uint32_t node_id) -> mw::SpaceClient* {
            return channels[static_cast<std::size_t>(r * kNodes) + node_id - 1].client.get();
          }));
    }
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
};

/// Keys of the tuples a run saw come and go, for the no-lost-write check.
struct Ledger {
  std::vector<std::int64_t> acked;
  std::vector<std::int64_t> consumed;
};

struct RunOut {
  std::vector<SimOp> ops;
  Ledger ledger;
  bool loaded = false;
  std::int64_t sim_ns = 0;
  std::uint64_t events = 0;
  double setup_s = 0.0;
  double host_s = 0.0;  ///< measured phase, host clock
  bool finished = false;
};

sim::Task<void> load(Rig& rig, const Inputs& in, RunOut& out) {
  for (const space::Tuple& tuple : in.resident) {
    const util::Status status =
        co_await rig.routers[0]->write_status(tuple, space::kLeaseForever);
    if (!status.ok()) co_return;
    out.ledger.acked.push_back(tuple.fields[0].as_int());
  }
  out.loaded = true;
  rig.sim.stop();
}

sim::Task<void> router_flow(Rig& rig, const Inputs& in, int r, RunOut& out,
                            int& active) {
  fed::FederatedClient& router = *rig.routers[static_cast<std::size_t>(r)];
  for (const Op& op : in.scripts[static_cast<std::size_t>(r)]) {
    co_await sim::delay(rig.sim, op.think);
    SimOp done;
    done.client = r;
    done.start = rig.sim.now().count_ns();
    Outcome outcome = Outcome::kOk;
    const std::string& name = in.names[op.name];
    // Arguments are built as named locals first, and no braced-init
    // temporaries appear: GCC 12 miscompiles both inside coroutines.
    switch (op.kind) {
      case Kind::kWrite: {
        space::Tuple tuple = space::make_tuple(name, op.key, std::int64_t{r});
        const util::Status status =
            co_await router.write_status(std::move(tuple), space::kLeaseForever);
        outcome = outcome_of(status, true);
        if (status.ok()) out.ledger.acked.push_back(op.key);
        break;
      }
      case Kind::kRead: {
        space::Template tmpl = named_template(name);
        const std::optional<space::Tuple> seen =
            co_await router.read(std::move(tmpl), sim::Time::zero());
        outcome = seen ? Outcome::kOk : Outcome::kMiss;
        break;
      }
      case Kind::kTake:
      case Kind::kWildcardTake: {
        space::Template tmpl = wildcard_template();
        if (op.kind == Kind::kTake) tmpl = named_template(name);
        const std::optional<space::Tuple> taken =
            co_await router.take(std::move(tmpl), sim::Time::zero());
        outcome = taken ? Outcome::kOk : Outcome::kMiss;
        if (taken) out.ledger.consumed.push_back(taken->fields[0].as_int());
        break;
      }
    }
    done.end = rig.sim.now().count_ns();
    done.outcome = outcome;
    out.ops.push_back(done);
  }
  if (--active == 0) rig.sim.stop();
}

/// Counters read off the stack after a traced repetition.
struct Layers {
  std::vector<std::uint64_t> node_requests;
  std::uint64_t codec_bytes = 0;
  std::uint64_t admission_queued = 0;
  std::uint64_t pipeline_queued = 0;
  std::uint64_t overload_rejects = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rpc_timeouts = 0;
  std::uint64_t scan_steps = 0;
  std::uint64_t matches = 0;
  std::uint64_t misses = 0;
  fed::FederatedClient::Stats fed;
  SpanSamples spans;
  CodecTimes codec_times;
  std::uint64_t span_anomalies = 0;
};

/// Sums the counters of every node, channel and router.
Layers read_counters(const Rig& rig) {
  Layers l;
  for (const auto& node : rig.nodes) {
    const mw::NodeCore::Stats& s = node->core->stats();
    l.node_requests.push_back(s.requests);
    l.codec_bytes += s.bytes_encoded;
    l.admission_queued += s.admission_queued;
    l.pipeline_queued += s.pipeline_queued;
    l.overload_rejects += s.overload_rejects;
    const space::SpaceEngine::Stats& e = node->engine.stats();
    l.scan_steps += e.scan_steps;
    l.matches += e.reads + e.takes;
    l.misses += e.misses;
  }
  for (const Rig::Channel& c : rig.channels) {
    l.codec_bytes += c.client->stats().bytes_encoded;
    l.retransmissions += c.client->stats().retransmissions;
    l.rpc_timeouts += c.client->stats().rpc_timeouts;
  }
  for (const auto& router : rig.routers) {
    const fed::FederatedClient::Stats& s = router->stats();
    l.fed.wildcard_matches += s.wildcard_matches;
    l.fed.peeks_sent += s.peeks_sent;
    l.fed.directed_takes += s.directed_takes;
    l.fed.directed_take_misses += s.directed_take_misses;
    l.fed.misroute_refreshes += s.misroute_refreshes;
    l.fed.polls += s.polls;
  }
  return l;
}

/// Counters accrued between two reads (the measured phase only).
Layers delta(Layers after, const Layers& before) {
  for (std::size_t i = 0; i < after.node_requests.size(); ++i) {
    after.node_requests[i] -= before.node_requests[i];
  }
  after.codec_bytes -= before.codec_bytes;
  after.admission_queued -= before.admission_queued;
  after.pipeline_queued -= before.pipeline_queued;
  after.overload_rejects -= before.overload_rejects;
  after.retransmissions -= before.retransmissions;
  after.rpc_timeouts -= before.rpc_timeouts;
  after.scan_steps -= before.scan_steps;
  after.matches -= before.matches;
  after.misses -= before.misses;
  after.fed.wildcard_matches -= before.fed.wildcard_matches;
  after.fed.peeks_sent -= before.fed.peeks_sent;
  after.fed.directed_takes -= before.fed.directed_takes;
  after.fed.directed_take_misses -= before.fed.directed_take_misses;
  after.fed.misroute_refreshes -= before.fed.misroute_refreshes;
  after.fed.polls -= before.fed.polls;
  return after;
}

struct Checked {
  space::ReplayReport oracle;
  bool ledger_ok = false;
  std::string ledger_detail;
  std::uint64_t rpc_failures = 0;
};

/// The merged per-node OpLogs replayed through the deterministic oracle,
/// and the ledger: every acked write was consumed exactly once or is live.
Checked check_run(const Rig& rig, const RunOut& out) {
  Checked c;
  space::OpLog merged;
  std::vector<std::pair<std::uint64_t, space::Tuple>> ticketed;
  for (const auto& node : rig.nodes) {
    for (space::OpRecord& record : node->core->oplog().sorted()) {
      merged.append(std::move(record));
    }
    for (auto& entry : node->core->ticketed_snapshot()) {
      ticketed.push_back(std::move(entry));
    }
  }
  std::sort(ticketed.begin(), ticketed.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<space::Tuple> final_state;
  std::multiset<std::int64_t> gone;
  for (auto& [ticket, tuple] : ticketed) {
    gone.insert(tuple.fields[0].as_int());
    final_state.push_back(std::move(tuple));
  }
  c.oracle = space::replay_against_oracle(merged, space::SpaceConfig{}, final_state);

  gone.insert(out.ledger.consumed.begin(), out.ledger.consumed.end());
  std::multiset<std::int64_t> acked(out.ledger.acked.begin(), out.ledger.acked.end());
  c.ledger_ok = gone == acked;
  c.ledger_detail = std::to_string(acked.size()) + " acked, " +
                    std::to_string(out.ledger.consumed.size()) + " consumed, " +
                    std::to_string(final_state.size()) + " live";
  for (const Rig::Channel& ch : rig.channels) {
    c.rpc_failures += ch.client->stats().rpc_failures;
  }
  return c;
}

RunOut run_once(const Inputs& in, std::uint64_t seed, Layers* layers,
                Checked* checked) {
  RunOut out;
  const double s0 = wall_s();
  Rig rig(layers != nullptr, seed);
  sim::spawn(load(rig, in, out));
  rig.sim.run_until(kHorizon);
  out.setup_s = wall_s() - s0;

  const Layers before = read_counters(rig);
  const std::int64_t sim0 = rig.sim.now().count_ns();
  const std::uint64_t events0 = rig.sim.executed_events();
  out.ops.reserve(static_cast<std::size_t>(kRouters * kOpsPerRouter));
  int active = kRouters;
  for (int r = 0; r < kRouters; ++r) {
    sim::spawn(router_flow(rig, in, r, out, active));
  }
  const double t0 = wall_s();
  rig.sim.run_until(kHorizon);
  out.host_s = wall_s() - t0;
  out.finished = active == 0;
  out.sim_ns = rig.sim.now().count_ns() - sim0;
  out.events = rig.sim.executed_events() - events0;

  if (layers != nullptr) {
    *layers = delta(read_counters(rig), before);
    std::vector<OpWindow> windows;
    windows.reserve(out.ops.size());
    for (const SimOp& op : out.ops) {
      OpWindow w{{}, op.start, op.end};
      for (int n = 0; n < kNodes; ++n) w.endpoints.push_back(op.client * kNodes + n);
      windows.push_back(std::move(w));
    }
    layers->spans = check_spans(*rig.book, windows);
    layers->codec_times = std::move(rig.codec_times);
    layers->span_anomalies = rig.book->anomalies();
    rig.book->write_json("fed_mix");
  }
  if (checked != nullptr) *checked = check_run(rig, out);
  return out;
}

}  // namespace

Result run_fed_mix(const Options& options) {
  Result result;
  const Inputs in = make_inputs(options.seed);

  std::vector<double> host, traced_host, setup_s;
  RunOut first;
  Checked checked;
  Layers layers;
  bool have_layers = false;
  bool deterministic = true;
  int reps = 0;
  double measured = 0.0;
  while (more_reps(reps, measured, options.seconds, options.trace ? 4 : 5)) {
    const bool traced_rep = options.trace && reps % 2 == 1;
    Layers rep_layers;
    RunOut run = run_once(in, options.seed, traced_rep ? &rep_layers : nullptr,
                          reps == 0 ? &checked : nullptr);
    if (reps == 0) {
      first = run;
    } else {
      deterministic = deterministic && first.sim_ns == run.sim_ns &&
                      same_ops(first.ops, run.ops);
    }
    if (traced_rep) {
      traced_host.push_back(run.host_s);
      if (!have_layers) {
        layers = std::move(rep_layers);
        have_layers = true;
      }
    } else {
      host.push_back(run.host_s);
      setup_s.push_back(run.setup_s);
    }
    measured += run.setup_s + run.host_s;
    ++reps;
  }

  for (const SimOp& op : first.ops) result.tally.add(op.outcome);
  result.check(first.loaded && first.finished,
               "fed_mix: the population load or a router script did not finish");
  result.check(deterministic,
               "fed_mix: simulated results differ between repetitions");
  result.check(checked.oracle.equivalent,
               "fed_mix: merged-OpLog replay diverged: " + checked.oracle.divergence);
  result.check(checked.ledger_ok,
               "fed_mix: an acked write was neither consumed once nor live (" +
                   checked.ledger_detail + ")");
  result.check(checked.rpc_failures == 0,
               "fed_mix: rpcs failed underneath the router's results");
  result.line("oracle_replay_ops", static_cast<double>(checked.oracle.ops_replayed),
              "count", "equivalent; " + checked.ledger_detail);

  const Summary lat = summarize(latencies_ms(first.ops));
  const double host_s = median(host);
  const double ops = static_cast<double>(first.ops.size());
  const std::string reps_note =
      "median of " + std::to_string(host.size()) + " reps";
  result.latency_lines("sim_op", lat, "ms");
  result.line("sim_s_per_host_s", static_cast<double>(first.sim_ns) * 1e-9 / host_s,
              "sim s/s", reps_note);
  result.line("host_ops_per_s", ops / host_s, "1/s", reps_note);
  result.e2e("op_p50_ms", lat.p50, "ms");
  result.e2e("op_p99_ms", lat.tail, "ms");
  result.e2e("host_ops_per_s", ops / host_s, "1/s");
  result.e2e("setup_s", median(setup_s), "s");
  if (!options.trace) return result;

  const Layers& l = layers;
  const double events = static_cast<double>(first.events);
  double max_requests = 0.0, sum_requests = 0.0;
  for (std::uint64_t r : l.node_requests) {
    max_requests = std::max(max_requests, static_cast<double>(r));
    sum_requests += static_cast<double>(r);
  }
  const double matches = static_cast<double>(l.matches);
  auto ratio = [](std::uint64_t a, std::uint64_t b) {
    return b == 0 ? 0.0 : static_cast<double>(a) / static_cast<double>(b);
  };
  result.layer("sim.events_per_op", events / ops, "count");
  result.layer("sim.host_ns_per_event", host_s * 1e9 / events, "ns");
  result.layer("mw.codec.bytes_per_op", static_cast<double>(l.codec_bytes) / ops, "B");
  result.layer("mw.client.retransmissions", static_cast<double>(l.retransmissions), "count");
  result.layer("mw.client.rpc_timeouts", static_cast<double>(l.rpc_timeouts), "count");
  result.layer("mw.node.admission_queued", static_cast<double>(l.admission_queued), "count");
  result.layer("mw.node.pipeline_queued", static_cast<double>(l.pipeline_queued), "count");
  result.layer("mw.node.overload_rejects", static_cast<double>(l.overload_rejects), "count");
  result.layer("space.scan_steps_per_op", static_cast<double>(l.scan_steps) / ops, "count");
  result.layer("space.hit_ratio", matches / (matches + static_cast<double>(l.misses)), "ratio");
  result.layer("fed.peeks_per_wildcard", ratio(l.fed.peeks_sent, l.fed.wildcard_matches), "count");
  result.layer("fed.directed_take_miss_ratio",
               ratio(l.fed.directed_take_misses, l.fed.directed_takes), "ratio");
  result.layer("fed.misroute_refreshes", static_cast<double>(l.fed.misroute_refreshes), "count");
  result.layer("fed.polls", static_cast<double>(l.fed.polls), "count");
  result.layer("fed.node_ops_max_over_mean",
               max_requests / (sum_requests / static_cast<double>(kNodes)), "ratio");
  report_spans(result, l.spans, l.codec_times);
  result.check(l.spans.broken_ops == 0 && l.span_anomalies == 0,
               "fed_mix: simulated spans do not sum to the round trip (" +
                   l.spans.first_break + ", " +
                   std::to_string(l.span_anomalies) + " stray stamps)");
  result.line("trace.rpcs", static_cast<double>(l.spans.rpcs), "count");
  result.layer("trace.overhead_pct",
               (median(traced_host) / host_s - 1.0) * 100.0, "%");
  return result;
}

}  // namespace pb
