// The benchmark's workloads, driven through the library's public API.
//
// One call runs one repetition of one workload in the calling process and
// returns its raw measurements; run.py starts one process per repetition
// (so each repetition's peak RSS is its own) and aggregates medians.
//
//   fleet-2k      the powerlaw-stream operating point: 2000 nodes, 600 s,
//                 streamed mobility, RAPID, load 0.25, one serial run.
//   figure-sweep  the full Fig 4 grid (trace scenario, RAPID / MaxProp /
//                 SprayAndWait / Random x loads {2,6,12,20,30,40} x 6 days)
//                 through SweepExecutor with two threads.
//   service-live  an open-loop ServiceEngine run with RAPID on a generated
//                 300-node power-law contact stream, then a closed-loop drain.
//
// Modes: kRun measures the end-to-end metrics untraced; kSetup stops after
// set-up (extra set-up samples at little cost); kTraced records spans, the
// phase profile and the counters for the per-layer metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dtn/metrics.h"

namespace perfbench {

enum class Mode { kRun, kSetup, kTraced };

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 0;
  int rep = 0;
  Mode mode = Mode::kRun;
  // Reduced-size inputs that finish in seconds (tests and quick checks).
  bool smoke = false;
  // Worker threads of figure-sweep's executor.
  int threads = 2;
  // Directory for the run's own files (service snapshots); must exist.
  std::string scratch_dir = ".";
  // Where a traced run writes its spans ("" = keep them in memory only).
  std::string spans_path;
};

// One repetition's measurements, in insertion order. A NaN value is a
// metric this build cannot measure (counters stripped by RAPID_OBS=OFF);
// it is written as null.
struct RepResult {
  std::vector<std::pair<std::string, double>> values;
  // Digest of everything the run computed that must repeat exactly.
  std::string digest;
  // Operations attempted (runs, queries, restores, checks) and the ones that
  // failed: thrown runs/queries, failed restores, correctness-check misses.
  std::uint64_t attempted = 0;
  std::vector<std::string> failures;

  void set(const std::string& name, double value);
  double get(const std::string& name) const;  // NaN when absent
  // Records one check; a miss appends `what` to failures.
  void check(bool ok, const std::string& what);
  std::string to_json() const;
};

// The scenario seed used when the caller gives none (every scenario in the
// registry carries the same default).
std::uint64_t default_seed();

// How a run's seed reaches its inputs. Mobility is always the scenario's
// own (the default seed's trace or contact process), so every seed runs the
// same contacts and the same amount of work; the seed draws the packet
// workload instead. The library keys each run's workload stream on
// (scenario seed, run, load x 1000), so shifting a load by a few
// thousandths draws an independent workload at practically the same load.
// The default seed keeps the load exactly, reproducing the scenario.
// `slot` tells apart the loads of one grid.
double seeded_load(double load, std::uint64_t seed, std::size_t slot);

RepResult run_fleet(const RepOptions& options);
RepResult run_sweep(const RepOptions& options);
RepResult run_service(const RepOptions& options);
// Dispatches on options.workload; throws std::invalid_argument on an
// unknown name.
RepResult run_rep(const RepOptions& options);

// Process CPU time (all threads) and peak resident set size.
double process_cpu_s();
double peak_rss_mb();

// FNV-1a over the fields of a SimResult that must repeat bit for bit.
class Digest {
 public:
  void add_u64(std::uint64_t v);
  void add_double(double v);
  void add_result(const rapid::SimResult& r);
  std::string hex() const;
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

// Allocation counting through the benchmark binary's global operator new
// (alloc_hook.cpp). While counting is on, every thread adds its allocations
// to its own running totals; a window is the difference of two readings on
// one thread.
struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  AllocTotals operator-(const AllocTotals& o) const { return {count - o.count, bytes - o.bytes}; }
};
void alloc_counting(bool on);
AllocTotals alloc_totals();  // the calling thread's running totals

// Per-layer helpers shared by the workloads.
double percentile(std::vector<float> values, double q);  // q in [0,1]; NaN when empty
// True when the library was built with the observability layer.
bool obs_enabled();
// Build context line: build type, compiler, RAPID_OBS, nproc.
std::string build_context_json();

}  // namespace perfbench
