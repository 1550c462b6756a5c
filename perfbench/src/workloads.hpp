// The benchmark's three workloads. Each takes the run options, generates its
// inputs from the seed, measures for the requested seconds, checks its own
// outputs and returns everything it measured.
#pragma once

#include "common.hpp"

namespace pb {

Result run_fig7_bus(const Options& options);
Result run_threaded_space(const Options& options);
Result run_fed_mix(const Options& options);

}  // namespace pb
