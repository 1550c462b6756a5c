// tbbench — one benchmark for TupleBus.
//
//   tbbench --workload <fig7_bus|threaded_space|fed_mix> --seed <n>
//           --seconds <s> --trace <0|1> [--commit <id>]
//
// Prints a human-readable report, then, as the last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end set, with --trace 1 the per-layer set. A failed
// correctness check prints no numbers and exits 1.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.hpp"
#include "workloads.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: tbbench --workload <fig7_bus|threaded_space|fed_mix> "
               "--seed <n> --seconds <s> --trace <0|1> [--commit <id>]\n");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void print_line(const std::string& name, const pb::Metric& m) {
  std::printf("  %-42s %18.6f %-8s %s\n", name.c_str(), m.value, m.unit.c_str(),
              m.note.empty() ? "" : ("(" + m.note + ")").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options options;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 2;
    }
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--commit") {
      commit = value;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || !(options.seconds > 0.0)) {
    usage();
    return 2;
  }

#ifndef __OPTIMIZE__
  std::fprintf(stderr,
               "tbbench: built without optimisation (%s); refusing to report "
               "host metrics. Build with CMAKE_BUILD_TYPE=Release.\n",
               TBBENCH_BUILD_TYPE);
  return 3;
#endif

  std::printf("tbbench %s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("  record: host_cpus=%u build_type=%s compiler=\"%s\" commit=%s\n",
              std::thread::hardware_concurrency(), TBBENCH_BUILD_TYPE,
              TBBENCH_COMPILER, commit.c_str());
  std::fflush(stdout);

  pb::Result result;
  if (options.workload == "fig7_bus") {
    result = pb::run_fig7_bus(options);
  } else if (options.workload == "threaded_space") {
    result = pb::run_threaded_space(options);
  } else if (options.workload == "fed_mix") {
    result = pb::run_fed_mix(options);
  } else {
    std::fprintf(stderr, "tbbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  result.e2e("peak_rss_mb", pb::peak_rss_mb(), "MiB");

  const pb::OutcomeTally& t = result.tally;
  const double attempted = static_cast<double>(t.attempted());
  result.line("failed_op_share",
              attempted == 0.0 ? 0.0 : static_cast<double>(t.failed()) / attempted,
              "ratio",
              "timeout=" + std::to_string(t.of(pb::Outcome::kTimeout)) +
                  " refused=" + std::to_string(t.of(pb::Outcome::kRefused)) +
                  " error=" + std::to_string(t.of(pb::Outcome::kError)));
  result.line("miss_share",
              attempted == 0.0 ? 0.0 : static_cast<double>(t.of(pb::Outcome::kMiss)) / attempted,
              "ratio", "misses=" + std::to_string(t.of(pb::Outcome::kMiss)));
  result.line("setup_s", result.end_to_end["setup_s"].value, "s");
  result.line("peak_rss_mb", result.end_to_end["peak_rss_mb"].value, "MiB");

  std::printf("%s report:\n", options.workload.c_str());
  for (const auto& [name, metric] : result.report) print_line(name, metric);
  if (options.trace) {
    std::printf("%s per-layer (traced run):\n", options.workload.c_str());
    for (const auto& [name, unit] : pb::layer_metrics()) {
      auto it = result.layers.find(name);
      if (it == result.layers.end()) {
        // Layer not on this workload's path: its counts are genuinely zero.
        result.layer(name, 0.0, unit);
        it = result.layers.find(name);
      }
      print_line(name, it->second);
    }
  }

  if (t.attempted() == 0) result.failures.push_back("no operation attempted");
  if (!options.trace) {
    for (const auto& [name, unit] : pb::end_to_end_metrics()) {
      const auto it = result.end_to_end.find(name);
      if (it == result.end_to_end.end() || !std::isfinite(it->second.value) ||
          it->second.value <= 0.0) {
        result.failures.push_back("end-to-end metric " + name + " missing");
      }
    }
  }
  if (!result.failures.empty()) {
    for (const std::string& f : result.failures) {
      std::printf("CHECK FAILED: %s\n", f.c_str());
    }
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(t.attempted()),
                static_cast<unsigned long long>(t.failed()));
    return 1;
  }

  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(t.attempted()) +
                     ", \"failed\": " + std::to_string(t.failed()) +
                     ", \"metrics\": {";
  const auto& names = options.trace ? pb::layer_metrics() : pb::end_to_end_metrics();
  const auto& values = options.trace ? result.layers : result.end_to_end;
  bool first = true;
  for (const auto& [name, unit] : names) {
    char number[64];
    std::snprintf(number, sizeof number, "%.17g", values.at(name).value);
    json += std::string(first ? "" : ", ") + "\"" + json_escape(name) +
            "\": {\"value\": " + number + ", \"unit\": \"" + json_escape(unit) +
            "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
