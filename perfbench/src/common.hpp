// Shared plumbing of the end-to-end benchmark: typed op outcomes, sample
// summaries, host clocks, and the result a workload hands back to main.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.hpp"

namespace pb {

/// What one client operation came to. Misses are reported on their own;
/// timeouts, refusals and errors count as failed.
enum class Outcome : std::uint8_t { kOk, kMiss, kTimeout, kRefused, kError };

/// Classifies a status-typed reply: OK with a result is kOk, OK without one
/// (or a blocking match whose own wait ran out) is kMiss, an rpc that never
/// got an answer is kTimeout, load shedding and mis-route rejects are
/// kRefused, anything else is kError.
Outcome outcome_of(const tb::util::Status& status, bool has_result);

struct OutcomeTally {
  std::array<std::uint64_t, 5> count{};

  void add(Outcome outcome) { ++count[static_cast<std::size_t>(outcome)]; }
  std::uint64_t of(Outcome outcome) const {
    return count[static_cast<std::size_t>(outcome)];
  }
  std::uint64_t attempted() const;
  std::uint64_t failed() const;
};

/// One client op of a simulated workload, on the simulated clock (ns).
struct SimOp {
  int client = 0;
  Outcome outcome = Outcome::kOk;
  std::int64_t start = 0;
  std::int64_t end = 0;
};

/// True when two runs timed every op identically, bit for bit.
bool same_ops(const std::vector<SimOp>& a, const std::vector<SimOp>& b);
std::vector<double> latencies_ms(const std::vector<SimOp>& ops);

/// Median and tail of a sample. The tail is p99 when at least ten samples
/// lie beyond it, else the highest percentile that still has ten.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 99.0;
};

Summary summarize(std::vector<double> values);
/// Nearest-rank percentile (q in [0, 100]) of an ascending sample.
double percentile_sorted(const std::vector<double>& sorted, double q);
double median(std::vector<double> values);

double wall_s();     ///< steady clock, seconds
double cpu_s();      ///< CPU time of the whole process, seconds
std::int64_t host_ns();  ///< steady clock, nanoseconds
double peak_rss_mb();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
  std::string note;
};

/// Everything a workload reports. `report` lines carry the workload's own
/// metric names for people; `end_to_end` and `layers` are the fixed,
/// workload-neutral key sets of the machine-readable last line.
struct Result {
  std::vector<std::pair<std::string, Metric>> report;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> layers;
  OutcomeTally tally;
  std::vector<std::string> failures;  ///< failed correctness checks

  void line(const std::string& name, double value, const std::string& unit,
            const std::string& note = "") {
    report.push_back({name, Metric{value, unit, note}});
  }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit, ""};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    layers[name] = Metric{value, unit, ""};
  }
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
  /// Reports a latency summary as `<name>_p50` / `<name>_p99` lines, naming
  /// the percentile actually used when the sample is too small for p99.
  void latency_lines(const std::string& name, const Summary& s,
                     const std::string& unit);
};

/// The end-to-end metric names every workload reports (BENCHMARK.json).
const std::vector<std::pair<std::string, std::string>>& end_to_end_metrics();
/// The per-layer metric names every traced run reports (BENCHMARK.json).
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Measured phase loop: keep repeating while fewer than `min_reps` are done
/// or the measured time is under the budget.
inline bool more_reps(int reps, double measured_s, double budget_s,
                      int min_reps = 3) {
  return reps < min_reps || measured_s < budget_s;
}

}  // namespace pb
