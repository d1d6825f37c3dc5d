// Single-scenario observability driver: the rapid_bench mode behind
// --run / --profile / --trace / --metrics. Unlike the figure catalog (which
// sweeps grids and prints summary tables), this runs one (scenario,
// protocol, load) cell end to end and surfaces what the observability layer
// saw: the per-phase wall-clock breakdown, the binary event trace exported
// as Chrome trace_event JSON, and the final metrics-registry snapshot.
#pragma once

#include "util/strings.h"

namespace rapid::runner {

// Flags (all --key=value):
//   --scenario=NAME      registry scenario (default powerlaw-stream)
//   --protocol=NAME      rapid | maxprop | spray-wait | prophet | ...
//   --load=F             workload load (default 0.25, bench_record pr5's stream point)
//   --runs=N             trace days / synthetic seeds to run (default 1)
//   --threads=N          run seeds in parallel (results independent of N)
//   --profile            print the per-phase wall-clock table
//   --trace=PATH         write Chrome trace JSON (chrome://tracing, Perfetto)
//   --trace-capacity=N   trace ring size in events (default 1M)
//   --metrics=PATH       write per-run metrics-registry snapshots as JSON
//   --metric=NAME        routing metric: avg-delay | max-delay | missed-deadlines
// Returns a process exit code.
int run_observed_main(const Options& options);

}  // namespace rapid::runner
