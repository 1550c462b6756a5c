// threaded_space — ThreadedSpaceEngine on real cores.
//
// Two shards (two worker threads) and two client threads: four threads in
// all. Each client runs a closed loop over its own pre-generated op stream:
// a Zipf draw over 64 tuple names picks the name of every named op, and the
// mix is named writes and named take_if_exists beside named read_if_exists,
// plus ~1 % wildcard read_all (all-shard sequence points). The space holds a
// resident population written during set-up. No sim, wire or mw code runs.
//
// Set-up is starting the engine and writing the resident population. The
// OpLog differential replay runs in a separate check pass after the
// measured repetitions, because logging costs host time.
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>

#include "src/obs/metrics.hpp"
#include "src/space/oplog.hpp"
#include "src/space/threaded.hpp"
#include "src/util/rng.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

using namespace tb;

constexpr int kShards = 2;
constexpr int kClients = 2;
constexpr int kNames = 64;
constexpr int kTags = 16;
constexpr int kResident = 1024;
constexpr std::size_t kOpsPerClient = 200'000;
constexpr std::size_t kCheckOpsPerClient = 40'000;
constexpr double kZipfS = 0.99;

enum class Kind : std::uint8_t { kWrite, kTake, kRead, kReadAll };
constexpr int kKinds = 4;
const char* const kKindNames[kKinds] = {"write", "take", "read", "read_all"};

struct Op {
  Kind kind = Kind::kWrite;
  std::uint8_t name = 0;
  std::uint8_t tag = 0;
  std::int32_t key = 0;
};

struct Inputs {
  std::vector<std::string> names;
  std::vector<space::Template> named;     ///< per name: (name, int, int)
  std::vector<space::Template> wildcard;  ///< per tag: (*, int, tag)
  std::vector<space::Tuple> resident;
  std::vector<std::vector<Op>> streams;   ///< per client
};

Inputs make_inputs(std::uint64_t seed) {
  Inputs in;
  for (int n = 0; n < kNames; ++n) {
    in.names.push_back("name-" + std::to_string(n));
    std::vector<space::FieldPattern> fields;
    fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
    fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
    in.named.emplace_back(in.names.back(), std::move(fields));
  }
  for (int t = 0; t < kTags; ++t) {
    std::vector<space::FieldPattern> fields;
    fields.push_back(space::FieldPattern::typed(space::ValueType::kInt));
    fields.push_back(space::FieldPattern::exact(space::Value(std::int64_t{t})));
    in.wildcard.emplace_back(std::nullopt, std::move(fields));
  }

  // Zipf over names by inverse CDF.
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
  std::int32_t key = 0;
  for (int i = 0; i < kResident; ++i) {
    const std::uint8_t name = zipf();
    in.resident.push_back(space::make_tuple(
        in.names[name], std::int64_t{key++},
        static_cast<std::int64_t>(rng.uniform(0, kTags - 1))));
  }
  in.streams.resize(kClients);
  for (auto& stream : in.streams) {
    stream.reserve(kOpsPerClient);
    for (std::size_t i = 0; i < kOpsPerClient; ++i) {
      Op op;
      const std::uint64_t roll = rng.uniform(0, 999);
      op.kind = roll < 300   ? Kind::kWrite
                : roll < 600 ? Kind::kTake
                : roll < 990 ? Kind::kRead
                             : Kind::kReadAll;
      op.name = zipf();
      op.tag = static_cast<std::uint8_t>(rng.uniform(0, kTags - 1));
      op.key = key++;
      stream.push_back(op);
    }
  }
  return in;
}

/// Fixed core placement: the engine's workers share the first two of the
/// process's CPUs and each client thread owns one of the next two, so every
/// run measures the same placement. Empty (no pinning) with fewer than four.
std::vector<int> placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE && cpus.size() < kShards + kClients; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  if (cpus.size() < kShards + kClients) cpus.clear();
  return cpus;
}

void pin_self(const std::vector<int>& cpus, std::size_t first, std::size_t count) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (std::size_t i = first; i < first + count; ++i) CPU_SET(cpus[i], &set);
  pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

struct ClientOut {
  std::vector<float> ns;  ///< per-op host latency
  std::array<std::vector<float>, kKinds> by_kind;
  OutcomeTally tally;
  std::int64_t writes = 0;
  std::int64_t takes = 0;
};

struct RepOut {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t ops = 0;
  bool conserved = true;
  std::vector<ClientOut> clients;
  space::ThreadedSpaceEngine::Stats stats;
  double inbox_peak = 0.0;
  space::ReplayReport replay;
};

void client_loop(space::ThreadedSpaceEngine& engine, const Inputs& in,
                 const std::vector<Op>& stream, std::size_t count,
                 bool by_kind, const std::vector<int>& cpus, int client,
                 const std::atomic<bool>& go, ClientOut& out) {
  if (!cpus.empty()) pin_self(cpus, kShards + static_cast<std::size_t>(client), 1);
  out.ns.reserve(count);
  while (!go.load(std::memory_order_acquire)) {
  }
  for (std::size_t i = 0; i < count; ++i) {
    const Op& op = stream[i];
    const std::int64_t t0 = host_ns();
    Outcome outcome = Outcome::kOk;
    switch (op.kind) {
      case Kind::kWrite: {
        const space::Lease lease = engine.write(space::make_tuple(
            in.names[op.name], std::int64_t{op.key}, std::int64_t{op.tag}));
        outcome = lease.valid() ? Outcome::kOk : Outcome::kError;
        out.writes += lease.valid() ? 1 : 0;
        break;
      }
      case Kind::kTake: {
        const bool hit = engine.take_if_exists(in.named[op.name]).has_value();
        outcome = hit ? Outcome::kOk : Outcome::kMiss;
        out.takes += hit ? 1 : 0;
        break;
      }
      case Kind::kRead:
        outcome = engine.read_if_exists(in.named[op.name]).has_value()
                      ? Outcome::kOk
                      : Outcome::kMiss;
        break;
      case Kind::kReadAll:
        outcome = engine.read_all(in.wildcard[op.tag], 8).empty()
                      ? Outcome::kMiss
                      : Outcome::kOk;
        break;
    }
    const float ns = static_cast<float>(host_ns() - t0);
    out.ns.push_back(ns);
    if (by_kind) out.by_kind[static_cast<std::size_t>(op.kind)].push_back(ns);
    out.tally.add(outcome);
  }
}

/// One repetition: fresh engine, resident population, both clients over
/// `count` ops each. `traced` times each call by kind and reads the
/// engine's gauges; `log` turns on the OpLog and replays it at the end.
RepOut run_rep(const Inputs& in, std::size_t count, bool traced, bool log) {
  RepOut out;
  space::SpaceConfig config;
  config.execution_mode = space::ExecutionMode::kThreaded;
  config.shard_count = kShards;
  space::OpLog oplog;      // both must outlive the engine
  obs::Registry registry;

  const std::vector<int> cpus = placement();
  cpu_set_t all;
  pthread_getaffinity_np(pthread_self(), sizeof all, &all);
  const double s0 = wall_s();
  // Workers inherit the affinity of the thread that starts them.
  if (!cpus.empty()) pin_self(cpus, 0, kShards);
  auto engine = std::make_unique<space::ThreadedSpaceEngine>(
      config, log ? &oplog : nullptr);
  pthread_setaffinity_np(pthread_self(), sizeof all, &all);
  if (traced) engine->bind_metrics(registry);
  for (const space::Tuple& tuple : in.resident) engine->write(tuple);
  out.setup_s = wall_s() - s0;

  std::atomic<bool> go{false};
  out.clients.resize(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back(client_loop, std::ref(*engine), std::cref(in),
                         std::cref(in.streams[static_cast<std::size_t>(c)]),
                         count, traced, std::cref(cpus), c, std::cref(go),
                         std::ref(out.clients[static_cast<std::size_t>(c)]));
  }
  const double c0 = cpu_s();
  const double w0 = wall_s();
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  out.wall_s = wall_s() - w0;
  out.cpu_s = cpu_s() - c0;
  out.ops = count * kClients;

  std::int64_t expected = kResident;
  for (const ClientOut& c : out.clients) expected += c.writes - c.takes;
  out.conserved = static_cast<std::int64_t>(engine->size()) == expected;
  if (traced) {
    out.stats = engine->stats();
    registry.snapshot();
    for (int s = 0; s < kShards; ++s) {
      out.inbox_peak = std::max(
          out.inbox_peak,
          registry.gauge("space.shard" + std::to_string(s) + ".inbox_peak").value());
    }
  }
  if (log) {
    const std::vector<space::Tuple> final_state = engine->snapshot();
    engine->shutdown();
    out.replay = space::replay_against_oracle(oplog, config, final_state);
  }
  return out;
}

std::vector<double> pooled(const RepOut& rep) {
  std::vector<double> all;
  for (const ClientOut& c : rep.clients) all.insert(all.end(), c.ns.begin(), c.ns.end());
  return all;
}

}  // namespace

Result run_threaded_space(const Options& options) {
  Result result;
  const Inputs in = make_inputs(options.seed);

  std::vector<double> rate, p50, p99, setup, traced_rate;
  RepOut traced;
  bool have_traced = false;
  bool conserved = true;
  int reps = 0;
  double measured = 0.0;
  while (more_reps(reps, measured, options.seconds, options.trace ? 4 : 5)) {
    const bool traced_rep = options.trace && reps % 2 == 1;
    RepOut rep = run_rep(in, kOpsPerClient, traced_rep, false);
    conserved = conserved && rep.conserved;
    const double ops_per_s = static_cast<double>(rep.ops) / rep.wall_s;
    if (traced_rep) {
      traced_rate.push_back(ops_per_s);
      if (!have_traced) {
        traced = std::move(rep);
        have_traced = true;
      }
    } else {
      const Summary s = summarize(pooled(rep));
      rate.push_back(ops_per_s);
      p50.push_back(s.p50);
      p99.push_back(s.tail);
      setup.push_back(rep.setup_s);
      if (reps == 0) {
        for (const ClientOut& c : rep.clients) {
          for (std::size_t k = 0; k < c.tally.count.size(); ++k) {
            result.tally.count[k] += c.tally.count[k];
          }
        }
      }
    }
    measured += rep.wall_s + rep.setup_s;
    ++reps;
  }

  // Check pass: the OpLog replay through the deterministic SpaceEngine.
  const RepOut check = run_rep(in, kCheckOpsPerClient, false, true);
  result.check(check.replay.equivalent,
               "threaded_space: OpLog replay diverged: " + check.replay.divergence);
  result.check(conserved && check.conserved,
               "threaded_space: live tuples != resident + writes - takes");
  result.line("oplog_replay_ops", static_cast<double>(check.replay.ops_replayed),
              "count", "equivalent");

  // Medians over repetitions, not the best one: how the VM's vCPUs sit on
  // physical cores can double a repetition's rate for a while (cross-core
  // hand-offs dominate this workload), and a best-of would report that luck.
  const std::string n = "median of " + std::to_string(rate.size()) +
                        " reps, n=" + std::to_string(kOpsPerClient * kClients) +
                        " per rep";
  result.line("host_ops_per_s", median(rate), "1/s",
              n + ", range " +
                  std::to_string(*std::min_element(rate.begin(), rate.end())) +
                  " to " +
                  std::to_string(*std::max_element(rate.begin(), rate.end())));
  result.line("host_op_p50_us", median(p50) * 1e-3, "us", n);
  result.line("host_op_p99_us", median(p99) * 1e-3, "us", n);
  result.e2e("op_p50_ms", median(p50) * 1e-6, "ms");
  result.e2e("op_p99_ms", median(p99) * 1e-6, "ms");
  result.e2e("host_ops_per_s", median(rate), "1/s");
  result.e2e("setup_s", median(setup), "s");
  if (!options.trace) return result;

  for (int k = 0; k < kKinds; ++k) {
    std::vector<double> all;
    for (const ClientOut& c : traced.clients) {
      all.insert(all.end(), c.by_kind[static_cast<std::size_t>(k)].begin(),
                 c.by_kind[static_cast<std::size_t>(k)].end());
    }
    std::sort(all.begin(), all.end());
    const std::string name = std::string("space.call_host_ns.") + kKindNames[k];
    result.layer(name + "_p50", percentile_sorted(all, 50.0), "ns");
    result.layer(name + "_p99", percentile_sorted(all, 99.0), "ns");
  }
  const space::ThreadedSpaceEngine::Stats& st = traced.stats;
  const double ops = static_cast<double>(traced.ops);
  const double matches = static_cast<double>(st.reads + st.takes);
  result.layer("space.inbox_peak", traced.inbox_peak, "count");
  result.layer("space.cpu_per_wall",
               traced.cpu_s / (traced.wall_s * (kShards + kClients)), "ratio");
  result.layer("space.scan_steps_per_op", static_cast<double>(st.scan_steps) / ops,
               "count");
  result.layer("space.hit_ratio",
               matches / (matches + static_cast<double>(st.misses)), "ratio");
  result.layer("trace.overhead_pct",
               (median(rate) / median(traced_rate) - 1.0) * 100.0, "%");
  return result;
}

}  // namespace pb
