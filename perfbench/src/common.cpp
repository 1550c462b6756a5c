#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace pb {

Outcome outcome_of(const tb::util::Status& status, bool has_result) {
  using tb::util::StatusCode;
  switch (status.code()) {
    case StatusCode::kOk:
      return has_result ? Outcome::kOk : Outcome::kMiss;
    case StatusCode::kDeadlineExceeded:
      return Outcome::kMiss;
    case StatusCode::kUnavailable:
      return Outcome::kTimeout;
    case StatusCode::kResourceExhausted:
    case StatusCode::kFailedPrecondition:
      return Outcome::kRefused;
    default:
      return Outcome::kError;
  }
}

std::uint64_t OutcomeTally::attempted() const {
  std::uint64_t total = 0;
  for (std::uint64_t n : count) total += n;
  return total;
}

std::uint64_t OutcomeTally::failed() const {
  return of(Outcome::kTimeout) + of(Outcome::kRefused) + of(Outcome::kError);
}

bool same_ops(const std::vector<SimOp>& a, const std::vector<SimOp>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].client != b[i].client || a[i].outcome != b[i].outcome ||
        a[i].start != b[i].start || a[i].end != b[i].end) {
      return false;
    }
  }
  return true;
}

std::vector<double> latencies_ms(const std::vector<SimOp>& ops) {
  std::vector<double> ms;
  ms.reserve(ops.size());
  for (const SimOp& op : ops) {
    ms.push_back(static_cast<double>(op.end - op.start) * 1e-6);
  }
  return ms;
}

double percentile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = percentile_sorted(values, 50.0);
  // Ten samples beyond the tail percentile: q <= 100 * (1 - 10 / n).
  const double n = static_cast<double>(values.size());
  const double limit = n > 10.0 ? 100.0 * (1.0 - 10.0 / n) : 50.0;
  s.tail_pct = std::min(99.0, std::floor(limit * 10.0) / 10.0);
  s.tail = percentile_sorted(values, s.tail_pct);
  return s;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void Result::latency_lines(const std::string& name, const Summary& s,
                           const std::string& unit) {
  const std::string n = "n=" + std::to_string(s.n);
  line(name + "_p50", s.p50, unit, n);
  if (s.tail_pct >= 99.0) {
    line(name + "_p99", s.tail, unit, n);
  } else {
    char pct[32];
    std::snprintf(pct, sizeof pct, "p%.1f", s.tail_pct);
    line(name + "_p99", s.tail, unit,
         n + ", too few samples for p99: reporting " + pct);
  }
}

const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      {"op_p50_ms", "ms"},     {"op_p99_ms", "ms"},   {"host_ops_per_s", "1/s"},
      {"setup_s", "s"},        {"peak_rss_mb", "MiB"},
  };
  return names;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> names = {
      // sim: the event kernel
      {"sim.events_per_op", "count"},
      {"sim.host_ns_per_event", "ns"},
      // wire: bus model, master, relay
      {"wire.bus.cycles_per_op", "count"},
      {"wire.bus.busy_ms_per_op", "ms"},
      {"wire.bus.utilization", "ratio"},
      {"wire.master.frames_per_op", "count"},
      {"wire.master.retries", "count"},
      {"wire.master.select_skips", "count"},
      {"wire.master.address_skips", "count"},
      {"wire.relay.probes_per_op", "count"},
      {"wire.relay.forward_ratio", "ratio"},
      {"wire.relay.segments_dropped", "count"},
      {"wire.level_parity.mismatched_ops", "count"},
      // mw: codec, transports, SpaceClient, NodeCore
      {"mw.codec.bytes_per_op", "B"},
      {"mw.codec.encode_host_ns_p50", "ns"},
      {"mw.codec.encode_host_ns_p99", "ns"},
      {"mw.codec.decode_host_ns_p50", "ns"},
      {"mw.codec.decode_host_ns_p99", "ns"},
      {"mw.transport.fragments_per_op", "count"},
      {"mw.transport.partials_evicted", "count"},
      {"mw.client.retransmissions", "count"},
      {"mw.client.rpc_timeouts", "count"},
      {"mw.node.admission_queued", "count"},
      {"mw.node.pipeline_queued", "count"},
      {"mw.node.overload_rejects", "count"},
      {"span.request_transit_ms_p50", "ms"},
      {"span.request_transit_ms_p99", "ms"},
      {"span.node_service_ms_p50", "ms"},
      {"span.node_service_ms_p99", "ms"},
      {"span.reply_transit_ms_p50", "ms"},
      {"span.reply_transit_ms_p99", "ms"},
      // space: SpaceEngine and ThreadedSpaceEngine
      {"space.call_host_ns.write_p50", "ns"},
      {"space.call_host_ns.write_p99", "ns"},
      {"space.call_host_ns.take_p50", "ns"},
      {"space.call_host_ns.take_p99", "ns"},
      {"space.call_host_ns.read_p50", "ns"},
      {"space.call_host_ns.read_p99", "ns"},
      {"space.call_host_ns.read_all_p50", "ns"},
      {"space.call_host_ns.read_all_p99", "ns"},
      {"space.inbox_peak", "count"},
      {"space.cpu_per_wall", "ratio"},
      {"space.scan_steps_per_op", "count"},
      {"space.hit_ratio", "ratio"},
      // fed: FederatedClient and the cluster around it
      {"fed.peeks_per_wildcard", "count"},
      {"fed.directed_take_miss_ratio", "ratio"},
      {"fed.misroute_refreshes", "count"},
      {"fed.polls", "count"},
      {"fed.node_ops_max_over_mean", "ratio"},
      // cost of the tracing itself
      {"trace.overhead_pct", "%"},
  };
  return names;
}

}  // namespace pb
