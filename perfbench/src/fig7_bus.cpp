// fig7_bus — the paper's Figure 7 stack at Table 4 calibration.
//
// A bit-accurate 1-wire TpWIRE bus at 6 kbit/s, the XML codec, and the space
// server on Slave3. Two C++ clients (Slave1 and Slave5) each run a closed
// loop of write -> take of their own Table-4-sized entry, with a think time
// between pairs, while a 0.3 B/s CBR source loads the bus from Slave2 to
// Slave4. A fifth slave is added so that no client shares a mailbox with the
// CBR source or the sink. The seed draws every entry's payload size and
// every think time; set-up is generating those inputs and building the
// stack. Host time goes almost entirely to kernel and bus events.
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "src/cosim/impact.hpp"
#include "src/cosim/scenario.hpp"
#include "src/mw/client.hpp"
#include "src/mw/node_core.hpp"
#include "src/mw/wire_transport.hpp"
#include "src/net/tpwire_channel.hpp"
#include "src/sim/process.hpp"
#include "src/util/rng.hpp"
#include "src/wire/bus_model.hpp"
#include "src/wire/master.hpp"
#include "src/wire/relay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tb;

constexpr int kSlaves = 5;
constexpr int kServerSlave = 2;  // Slave3
constexpr int kCbrSlave = 1;     // Slave2
constexpr int kSinkSlave = 3;    // Slave4
constexpr int kClientSlaves[] = {0, 4};  // Slave1, Slave5
constexpr int kClients = 2;
constexpr int kPairsPerClient = 260;  // 1040 ops: ten beyond p99
constexpr double kCbrRateBps = 0.3;
// Table 4's 160 s lease expires every entry once two clients share the bus
// (a write alone takes ~110 s); the single-client lease race is what
// table4_err_pct covers. Here every take must find its entry.
constexpr sim::Time kLease = sim::Time::sec(600);
constexpr sim::Time kTakeTimeout = sim::Time::sec(5);
constexpr int kSetupSamples = 100;
constexpr sim::Time kHorizon = sim::Time::sec(500'000);  // watchdog only

struct Pair {
  std::int64_t seq = 0;
  std::size_t payload = 0;  ///< blob bytes; Table 4 ships 480
  sim::Time think;
};
using Script = std::vector<std::vector<Pair>>;

Script make_script(std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Script script(kClients);
  for (auto& pairs : script) {
    for (int i = 0; i < kPairsPerClient; ++i) {
      pairs.push_back({i, static_cast<std::size_t>(448 + rng.uniform(0, 64)),
                       sim::Time::ms(static_cast<std::int64_t>(
                           500 + rng.uniform(0, 2000)))});
    }
  }
  return script;
}

space::Tuple entry_of(int client, const Pair& pair) {
  std::vector<std::uint8_t> blob(pair.payload);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 31 + pair.seq * 7 + client * 13);
  }
  return space::make_tuple("entry-" + std::to_string(client), pair.seq,
                           std::move(blob));
}

/// Matches the entry exactly, so the take carries the write's payload
/// burden, as in Table 4.
space::Template exact_template(const space::Tuple& tuple) {
  std::vector<space::FieldPattern> fields;
  for (const space::Value& v : tuple.fields) {
    fields.push_back(space::FieldPattern::exact(v));
  }
  return space::Template(tuple.name, std::move(fields));
}

/// The Figure 7 stack, assembled from the public pieces so that the codec
/// and the transports can be wrapped for tracing. Mirrors
/// cosim::WireScenario with one more slave.
struct Rig {
  struct Client {
    std::unique_ptr<mw::WireClientTransport> wire;
    std::unique_ptr<TracedClientTransport> traced;
    std::unique_ptr<mw::SpaceClient> client;
  };

  const cosim::ScenarioConfig defaults;  ///< slaves keep a reference to its link
  sim::Simulator sim;
  std::unique_ptr<wire::BusModel> bus;
  std::vector<std::unique_ptr<wire::SlaveDevice>> slaves;
  std::unique_ptr<wire::Master> master;
  std::unique_ptr<wire::MasterRelay> relay;
  mw::XmlCodec xml;
  std::unique_ptr<SpanBook> book;
  CodecTimes codec_times;
  std::vector<std::unique_ptr<TracedCodec>> codecs;
  std::unique_ptr<space::SpaceEngine> space;
  std::unique_ptr<mw::WireServerTransport> server_wire;
  std::unique_ptr<TracedServerTransport> server_traced;
  std::unique_ptr<mw::NodeCore> node;
  std::vector<Client> clients;
  std::unique_ptr<net::WireCbrSource> cbr;
  std::unique_ptr<net::WireSink> sink;

  Rig(wire::BusModelLevel level, bool traced, std::uint64_t seed) : sim(seed) {
    bus = wire::make_bus_model(level, sim, defaults.link, defaults.faults);
    std::vector<std::uint8_t> ids;
    for (int i = 0; i < kSlaves; ++i) {
      const auto id = static_cast<std::uint8_t>(i + 1);
      slaves.push_back(
          std::make_unique<wire::SlaveDevice>(sim, id, defaults.link));
      bus->attach(*slaves.back());
      ids.push_back(id);
    }
    master = std::make_unique<wire::Master>(*bus, defaults.master);
    relay = std::make_unique<wire::MasterRelay>(*master, ids, defaults.relay);
    space = std::make_unique<space::SpaceEngine>(sim, defaults.space);
    server_wire = std::make_unique<mw::WireServerTransport>(
        sim, *slaves[kServerSlave], defaults.transport);

    mw::ServerTransport* server_transport = server_wire.get();
    const mw::Codec* server_codec = &xml;
    if (traced) {
      book = std::make_unique<SpanBook>(sim);
      server_traced =
          std::make_unique<TracedServerTransport>(*server_wire, *book, 0);
      server_transport = server_traced.get();
      codecs.push_back(
          std::make_unique<TracedCodec>(xml, *book, codec_times, -1, 0));
      server_codec = codecs.back().get();
    }
    node = std::make_unique<mw::NodeCore>(*space, *server_transport,
                                          *server_codec, defaults.server);

    for (int c = 0; c < kClients; ++c) {
      const int slave = kClientSlaves[c];
      Client client;
      client.wire = std::make_unique<mw::WireClientTransport>(
          sim, *slaves[slave], static_cast<std::uint8_t>(kServerSlave + 1),
          defaults.transport);
      mw::ClientTransport* transport = client.wire.get();
      const mw::Codec* codec = &xml;
      if (traced) {
        // The wire server's sessions are the clients' node ids.
        book->route(0, static_cast<std::uint64_t>(slave + 1), c);
        client.traced =
            std::make_unique<TracedClientTransport>(*client.wire, *book, c);
        transport = client.traced.get();
        codecs.push_back(
            std::make_unique<TracedCodec>(xml, *book, codec_times, c, -1));
        codec = codecs.back().get();
      }
      client.client = std::make_unique<mw::SpaceClient>(sim, *transport, *codec);
      clients.push_back(std::move(client));
    }

    net::CbrParams cbr_params;
    cbr_params.rate_bytes_per_sec = kCbrRateBps;
    cbr_params.packet_size = 1;
    cbr = std::make_unique<net::WireCbrSource>(
        sim, *slaves[kCbrSlave], static_cast<std::uint8_t>(kSinkSlave + 1),
        cbr_params);
    sink = std::make_unique<net::WireSink>(sim, *slaves[kSinkSlave]);
    relay->start();
    cbr->start();
  }

  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  ~Rig() {
    // Let the relay's poll coroutine see the stop flag and finish, so no
    // suspended frame outlives the simulator.
    cbr->stop();
    relay->stop();
    sim.run_until(sim.now() + sim::Time::sec(5));
  }
};

struct RunOut {
  std::vector<SimOp> ops;
  bool takes_match = true;  ///< every take returned exactly the tuple written
  std::int64_t sim_ns = 0;
  std::uint64_t events = 0;
  double host_s = 0.0;  ///< measured phase, host clock
  bool finished = false;
};

sim::Task<void> client_flow(Rig& rig, int c, const std::vector<Pair>& pairs,
                            RunOut& out, int& active) {
  mw::SpaceClient& client = *rig.clients[static_cast<std::size_t>(c)].client;
  // No braced-init temporaries here: GCC 12 miscompiles them in coroutines.
  for (const Pair& pair : pairs) {
    space::Tuple entry = entry_of(c, pair);
    space::Template tmpl = exact_template(entry);
    SimOp write_op;
    write_op.client = c;
    write_op.start = rig.sim.now().count_ns();
    mw::SpaceClient::WriteResult wrote = co_await client.write(entry, kLease);
    write_op.end = rig.sim.now().count_ns();
    write_op.outcome = outcome_of(wrote.status, wrote.lease.id != 0);
    out.ops.push_back(write_op);
    SimOp take_op;
    take_op.client = c;
    take_op.start = write_op.end;
    mw::SpaceClient::MatchResult taken =
        co_await client.take_match(std::move(tmpl), kTakeTimeout);
    take_op.end = rig.sim.now().count_ns();
    take_op.outcome = outcome_of(taken.status, taken.tuple.has_value());
    out.ops.push_back(take_op);
    if (!taken.tuple.has_value() || !(*taken.tuple == entry)) {
      out.takes_match = false;
    }
    co_await sim::delay(rig.sim, pair.think);
  }
  if (--active == 0) rig.sim.stop();
}

/// Everything a traced rep reads off the stack before it is torn down.
struct Layers {
  wire::BusModel::Stats bus;
  double utilization = 0.0;
  wire::Master::Stats master;
  wire::MasterRelay::Stats relay;
  std::uint64_t codec_bytes = 0;
  std::uint64_t fragments = 0;
  std::uint64_t partials_evicted = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t rpc_timeouts = 0;
  mw::NodeCore::Stats node;
  space::SpaceEngine::Stats space;
  SpanSamples spans;
  CodecTimes codec_times;
  std::uint64_t span_anomalies = 0;
};

RunOut run_once(const Script& script, std::uint64_t seed,
                wire::BusModelLevel level, Layers* layers) {
  RunOut out;
  Rig rig(level, layers != nullptr, seed);
  out.ops.reserve(kClients * kPairsPerClient * 2);

  const std::uint64_t events0 = rig.sim.executed_events();
  int active = kClients;
  for (int c = 0; c < kClients; ++c) {
    sim::spawn(client_flow(rig, c, script[static_cast<std::size_t>(c)], out,
                           active));
  }
  const double t0 = wall_s();
  rig.sim.run_until(kHorizon);
  out.host_s = wall_s() - t0;
  out.finished = active == 0;
  out.sim_ns = rig.sim.now().count_ns();
  out.events = rig.sim.executed_events() - events0;

  if (layers != nullptr) {
    layers->bus = rig.bus->stats();
    layers->utilization = rig.bus->utilization();
    layers->master = rig.master->stats();
    layers->relay = rig.relay->stats();
    layers->node = rig.node->stats();
    layers->space = rig.space->stats();
    layers->codec_bytes = rig.node->stats().bytes_encoded;
    layers->fragments = rig.server_wire->endpoint_stats().fragments_sent;
    layers->partials_evicted =
        rig.server_wire->endpoint_stats().partials_evicted;
    std::vector<OpWindow> windows;
    for (const SimOp& op : out.ops) windows.push_back({{op.client}, op.start, op.end});
    for (const Rig::Client& client : rig.clients) {
      layers->codec_bytes += client.client->stats().bytes_encoded;
      layers->fragments += client.wire->endpoint_stats().fragments_sent;
      layers->partials_evicted += client.wire->endpoint_stats().partials_evicted;
      layers->retransmissions += client.client->stats().retransmissions;
      layers->rpc_timeouts += client.client->stats().rpc_timeouts;
    }
    layers->spans = check_spans(*rig.book, windows);
    layers->codec_times = std::move(rig.codec_times);
    layers->span_anomalies = rig.book->anomalies();
    rig.book->write_json("fig7_bus");
  }
  return out;
}

/// Table 4 as the paper prints it: seconds per (CBR rate, wire count) cell,
/// or "Out of Time" (nullopt) when the lease ran out before the take.
struct PaperCell {
  double cbr = 0.0;
  int wires = 1;
  std::optional<double> seconds;
};
const PaperCell kTable4[] = {
    {0.0, 1, 140.0}, {0.0, 2, 116.0}, {0.3, 1, 151.0},
    {0.3, 2, 122.0}, {1.0, 1, std::nullopt}, {1.0, 2, 129.0},
};

/// Mean absolute % error of the six cells. Outcomes are compared first:
/// a cell that completed where the paper ran out of time (or the reverse)
/// counts as 100 %.
double table4_err_pct(Result& result) {
  double sum = 0.0;
  for (const PaperCell& cell : kTable4) {
    cosim::ImpactConfig config;
    config.set_wires(cell.wires);
    config.cbr_rate_bps = cell.cbr;
    const cosim::ImpactResult r = cosim::run_impact(config);
    const bool completed = r.completed && !r.out_of_time;
    double err = 100.0;
    if (completed == cell.seconds.has_value()) {
      err = completed ? 100.0 * std::abs(r.total.seconds() - *cell.seconds) /
                            *cell.seconds
                      : 0.0;
    }
    char name[64];
    std::snprintf(name, sizeof name, "table4.cbr%.1f.%dwire", cell.cbr,
                  cell.wires);
    result.line(name, completed ? r.total.seconds() : 0.0, "s",
                std::string(completed ? "completed" : "out of time") +
                    (cell.seconds ? ", paper " + std::to_string(static_cast<int>(*cell.seconds)) + " s"
                                  : ", paper out of time") +
                    ", error " + std::to_string(err) + " %");
    sum += err;
  }
  return sum / static_cast<double>(std::size(kTable4));
}

}  // namespace

Result run_fig7_bus(const Options& options) {
  Result result;
  const auto bit = wire::BusModelLevel::kBitAccurate;
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupSamples; ++i) {
    const double t0 = wall_s();
    const Script inputs = make_script(options.seed);
    const Rig rig(bit, false, options.seed);
    setup_s.push_back(wall_s() - t0);
  }
  const Script script = make_script(options.seed);

  std::vector<double> host, traced_host;
  RunOut first;
  Layers layers;
  bool have_layers = false;
  bool deterministic = true;
  int reps = 0;
  double measured = 0.0;
  while (more_reps(reps, measured, options.seconds, options.trace ? 4 : 3)) {
    const bool traced_rep = options.trace && reps % 2 == 1;
    Layers rep_layers;
    RunOut run = run_once(script, options.seed, bit,
                          traced_rep ? &rep_layers : nullptr);
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
    }
    measured += run.host_s;
    ++reps;
  }

  for (const SimOp& op : first.ops) result.tally.add(op.outcome);
  result.check(first.finished, "fig7_bus: clients did not finish their script");
  result.check(first.takes_match,
               "fig7_bus: a take did not return exactly the tuple written");
  result.check(deterministic,
               "fig7_bus: simulated results differ between repetitions");

  const Summary lat = summarize(latencies_ms(first.ops));
  const double host_s = median(host);
  const double ops = static_cast<double>(first.ops.size());
  const double sim_s = static_cast<double>(first.sim_ns) * 1e-9;

  result.latency_lines("sim_op", lat, "ms");
  result.e2e("op_p50_ms", lat.p50, "ms");
  result.e2e("op_p99_ms", lat.tail, "ms");
  result.e2e("host_ops_per_s", ops / host_s, "1/s");
  result.e2e("setup_s", median(setup_s), "s");
  const std::string reps_note =
      "median of " + std::to_string(host.size()) + " reps";
  result.line("sim_s_per_host_s", sim_s / host_s, "sim s/s", reps_note);
  result.line("host_ops_per_s", ops / host_s, "1/s", reps_note);

  if (!options.trace) {
    result.line("table4_err_pct", table4_err_pct(result), "%");
    return result;
  }

  // Traced run: per-layer numbers from the traced repetition, host rates
  // from the untraced ones.
  const Layers& l = layers;
  const double events = static_cast<double>(first.events);
  result.layer("sim.events_per_op", events / ops, "count");
  result.layer("sim.host_ns_per_event", host_s * 1e9 / events, "ns");
  result.layer("wire.bus.cycles_per_op", static_cast<double>(l.bus.cycles) / ops, "count");
  result.layer("wire.bus.busy_ms_per_op", l.bus.busy_time.seconds() * 1e3 / ops, "ms");
  result.layer("wire.bus.utilization", l.utilization, "ratio");
  result.layer("wire.master.frames_per_op", static_cast<double>(l.master.frames_sent) / ops, "count");
  result.layer("wire.master.retries", static_cast<double>(l.master.retries), "count");
  result.layer("wire.master.select_skips", static_cast<double>(l.master.select_skips), "count");
  result.layer("wire.master.address_skips", static_cast<double>(l.master.address_skips), "count");
  result.layer("wire.relay.probes_per_op", static_cast<double>(l.relay.probes) / ops, "count");
  result.layer("wire.relay.forward_ratio",
               l.relay.probes == 0 ? 0.0
                                   : static_cast<double>(l.relay.segments_forwarded) /
                                         static_cast<double>(l.relay.probes),
               "ratio");
  result.layer("wire.relay.segments_dropped", static_cast<double>(l.relay.segments_dropped), "count");
  result.layer("mw.codec.bytes_per_op", static_cast<double>(l.codec_bytes) / ops, "B");
  result.layer("mw.transport.fragments_per_op", static_cast<double>(l.fragments) / ops, "count");
  result.layer("mw.transport.partials_evicted", static_cast<double>(l.partials_evicted), "count");
  result.layer("mw.client.retransmissions", static_cast<double>(l.retransmissions), "count");
  result.layer("mw.client.rpc_timeouts", static_cast<double>(l.rpc_timeouts), "count");
  result.layer("mw.node.admission_queued", static_cast<double>(l.node.admission_queued), "count");
  result.layer("mw.node.pipeline_queued", static_cast<double>(l.node.pipeline_queued), "count");
  result.layer("mw.node.overload_rejects", static_cast<double>(l.node.overload_rejects), "count");
  const double matches = static_cast<double>(l.space.reads + l.space.takes);
  result.layer("space.scan_steps_per_op", static_cast<double>(l.space.scan_steps) / ops, "count");
  result.layer("space.hit_ratio",
               matches + static_cast<double>(l.space.misses) == 0.0
                   ? 0.0
                   : matches / (matches + static_cast<double>(l.space.misses)),
               "ratio");
  report_spans(result, l.spans, l.codec_times);
  result.check(l.spans.broken_ops == 0 && l.span_anomalies == 0,
               "fig7_bus: simulated spans do not sum to the round trip (" +
                   l.spans.first_break + ", " +
                   std::to_string(l.span_anomalies) + " stray stamps)");
  result.line("trace.rpcs", static_cast<double>(l.spans.rpcs), "count");
  result.layer("trace.overhead_pct",
               (median(traced_host) / host_s - 1.0) * 100.0, "%");

  // Bus-level parity probe (DESIGN.md §13 promises equal simulated times):
  // the same script at kFrameLevel, op by op. Information only.
  const RunOut frame = run_once(script, options.seed,
                                wire::BusModelLevel::kFrameLevel, nullptr);
  std::uint64_t mismatched = 0;
  const std::size_t n = std::min(frame.ops.size(), first.ops.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (frame.ops[i].end - frame.ops[i].start !=
        first.ops[i].end - first.ops[i].start) {
      ++mismatched;
    }
  }
  mismatched += std::max(frame.ops.size(), first.ops.size()) - n;
  result.layer("wire.level_parity.mismatched_ops", static_cast<double>(mismatched), "count");
  result.line("wire.level_parity.frame_level_op_p50_ms",
              summarize(latencies_ms(frame.ops)).p50, "ms");
  return result;
}

}  // namespace pb
