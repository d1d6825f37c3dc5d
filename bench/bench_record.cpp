// Perf-trajectory probes: one binary, one probe per committed BENCH_prN.json.
//
// Usage: bench_record <probe> [--json PATH] [--runs N] [probe flags]
//
// Each probe runs one fixed operating point end to end and prints one JSON
// record (also written to --json PATH). tools/bench_compare.py gates that
// record against the committed baseline: `packets`, `meetings`, `delivered`
// and every key listed in "exact_extra" must match exactly; `wall_clock_ms`,
// `peak_rss_kb`, `allocations` and every key listed in "tracked_extra" may
// not regress past the tolerance. Every record carries:
//
//   wall_clock_ms — best-of-N wall time of the probe's headline run
//   peak_rss_kb   — getrusage(RUSAGE_SELF).ru_maxrss after all runs. It is
//                   process-wide, so each process runs exactly one probe.
//   allocations   — best-of-N operator-new count during the headline run,
//                   from the counting hook below (exactly reproducible)
//
// The probes, the operating point each one prices, and their extra keys:
//
//   pr4   powerlaw-large, RAPID, load 3.0 (the flat-state memory layout).
//   pr5   powerlaw-stream, RAPID, load 0.25, contacts pulled lazily from the
//         MobilityModel. `meeting_bytes_avoided` (report only) is what a
//         materialized schedule of those contacts would hold resident.
//         --materialized runs the legacy materialize-then-simulate path.
//         --stretch F multiplies the mobility horizon by F with workload,
//         fleet and priors fixed, so the contact stream grows ~F-fold.
//         --protocol rapid|random|direct picks the router. CI pairs
//         --stretch 4 with --protocol direct, whose router state is
//         contact-free, and asserts peak RSS stays flat: the mobility layer
//         holds no per-meeting state.
//   pr6   powerlaw-large, RAPID, load 0.25, profiling and tracing off: the
//         always-on cost of the compiled-in observability probes. CI builds
//         it with RAPID_OBS=ON and OFF (`obs_enabled`) and gates the wall
//         ratio at 3%. --profile fills `phases` from one extra profiled run,
//         kept apart so its clock reads never touch the measured region.
//   pr7   one ServiceEngine serve cycle on a synthetic 30-node,
//         20000-contact stream: ingest and advance to the midpoint, a query
//         sweep over every packet, finish, snapshot. Tracks `ingest_wall_ms`,
//         `query_wall_ms` and `snapshot_wall_ms`; `snapshot_bytes` is exact.
//   pr8   powerlaw-stream at sim-thread widths 1, 2, 4 and 8.
//         `results_identical` (exact) is 1 iff every width reproduced the
//         serial run bit for bit. `wall_clock_ms_t{2,4,8}` are tracked,
//         `speedup_t{2,4,8}` report only. Allocations count the serial width
//         only: worker threads would make the count scheduling-dependent.
//   pr9   powerlaw-stream three ways: clean; zero fault rates with
//         non-default fault seeds; and the powerlaw-stream-faulty point.
//         `zero_fault_identical` (exact) is 1 iff the zero-rate run
//         reproduced the clean run bit for bit. The faulted run's counters
//         are exact and its wall is tracked. `fault_overhead_per_meeting_pct`
//         (report only) compares cost per dispatched meeting, because
//         crashes suppress meetings and shrink the faulted run's work.
//   pr10  powerlaw-stream with a 60 s dispatch batch. `batch_identical`
//         (exact) is 1 iff it reproduced per-event dispatch bit for bit.
//
// Exit status: 0; 1 if an identity check failed or --json could not be
// written; 2 on a usage error (an unknown probe prints the probe list).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <new>
#include <optional>
#include <string>
#include <system_error>
#include <tuple>
#include <utility>
#include <vector>

#include "dtn/workload.h"
#include "obs/obs.h"
#include "runner/scenario_registry.h"
#include "service/service_engine.h"
#include "sim/experiment.h"
#include "sim/protocols.h"
#include "util/rng.h"

namespace {

std::atomic<unsigned long long> g_allocations{0};
std::atomic<bool> g_counting{false};

}  // namespace

// Counting allocator hook: global operator new/delete for this binary only
// (the library is untouched). Counting is gated so set-up and teardown stay
// out of the number.
void* operator new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed))
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using rapid::Instance;
using rapid::ProtocolKind;
using rapid::RunSpec;
using rapid::Scenario;
using rapid::ScenarioConfig;
using rapid::SimResult;
using Clock = std::chrono::steady_clock;

constexpr int kUsageError = 2;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

ScenarioConfig registry(const char* name) {
  return rapid::runner::ScenarioRegistry::global().make(name);
}

// --- shared harness ----------------------------------------------------------

struct Best {
  double ms = 1e300;
  unsigned long long allocations = ~0ULL;
};

// Runs `body` `runs` times and keeps the best wall time and, when
// `count_allocs`, the best operator-new count. `after` runs outside the
// measured region after every run (result checks, teardown).
Best measure(int runs, bool count_allocs, const std::function<void()>& body,
             const std::function<void()>& after = {}) {
  Best best;
  for (int r = 0; r < runs; ++r) {
    if (count_allocs) {
      g_allocations.store(0, std::memory_order_relaxed);
      g_counting.store(true, std::memory_order_relaxed);
    }
    const auto t0 = Clock::now();
    body();
    const auto t1 = Clock::now();
    if (count_allocs) {
      g_counting.store(false, std::memory_order_relaxed);
      best.allocations =
          std::min(best.allocations, g_allocations.load(std::memory_order_relaxed));
    }
    best.ms = std::min(best.ms, ms_between(t0, t1));
    if (after) after();
  }
  return best;
}

// One scenario point measured best-of-N. The instance is built inside the
// measured region: on the streaming path mobility is generated during the
// run, so every configuration pays the same setup. `check` sees each run's
// result outside the measured region.
struct Point {
  Best best;
  SimResult result;  // the last run's
  std::size_t packets = 0;
};

Point measure_point(const Scenario& scenario, double load, const RunSpec& spec, int runs,
                    bool count_allocs,
                    const std::function<void(const SimResult&)>& check = {}) {
  Point p;
  p.best = measure(
      runs, count_allocs,
      [&] {
        const Instance inst = scenario.instance(0, load);
        p.result = run_instance(scenario, inst, spec);
        p.packets = inst.workload.size();
      },
      [&] {
        if (check) check(p.result);
      });
  return p;
}

// Bit identity of two runs: every counter any identity gate compares, and
// the per-packet delivery-time vector element-wise.
bool same_result(const SimResult& a, const SimResult& b) {
  const auto fields = [](const SimResult& r) {
    return std::tie(r.total_packets, r.delivered, r.delivery_rate, r.avg_delay,
                    r.avg_delay_with_undelivered, r.max_delay, r.deadline_rate,
                    r.data_bytes, r.metadata_bytes, r.capacity_bytes, r.drops,
                    r.ack_purges, r.meetings, r.partial_transfers, r.partial_bytes,
                    r.crashes, r.corrupted_transfers, r.delivery_time);
  };
  return fields(a) == fields(b);
}

long long peak_rss_kb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);  // ru_maxrss is in kilobytes on Linux
  return usage.ru_maxrss;
}

// One JSON record in the bench_compare.py dialect. Keys keep insertion
// order; values are stored already rendered as JSON.
struct Record {
  std::vector<std::pair<std::string, std::string>> fields;
  Best headline;                           // wall_clock_ms and allocations
  std::vector<std::string> exact_extra;    // extra exact-match keys
  std::vector<std::string> tracked_extra;  // extra lower-is-better keys

  void raw(const std::string& key, std::string json) {
    fields.emplace_back(key, std::move(json));
  }
  void text(const std::string& key, const std::string& value) {
    raw(key, "\"" + value + "\"");
  }
  void num(const std::string& key, double value) { raw(key, std::to_string(value)); }
  void count(const std::string& key, unsigned long long value) {
    raw(key, std::to_string(value));
  }
  // The determinism trio every probe reports.
  void trio(std::size_t packets, std::size_t meetings, std::size_t delivered) {
    count("packets", packets);
    count("meetings", meetings);
    count("delivered", delivered);
  }
};

std::string json_list(const std::vector<std::string>& keys) {
  std::string out = "[";
  for (std::size_t i = 0; i < keys.size(); ++i)
    out += (i > 0 ? ", \"" : "\"") + keys[i] + "\"";
  return out + "]";
}

// Renders the record. Peak RSS is read here, after every run of the probe.
std::string render(const Record& rec) {
  std::vector<std::pair<std::string, std::string>> fields = rec.fields;
  fields.emplace_back("wall_clock_ms", std::to_string(rec.headline.ms));
  fields.emplace_back("peak_rss_kb", std::to_string(peak_rss_kb()));
  fields.emplace_back("allocations", std::to_string(rec.headline.allocations));
  if (!rec.exact_extra.empty()) fields.emplace_back("exact_extra", json_list(rec.exact_extra));
  if (!rec.tracked_extra.empty())
    fields.emplace_back("tracked_extra", json_list(rec.tracked_extra));
  std::string out = "{\n";
  for (std::size_t i = 0; i < fields.size(); ++i)
    out += "  \"" + fields[i].first + "\": " + fields[i].second +
           (i + 1 < fields.size() ? ",\n" : "\n");
  return out + "}\n";
}

struct Options {
  std::string json_path;
  int runs = 1;
  bool materialized = false;            // pr5
  double stretch = 1.0;                 // pr5
  std::string protocol_name = "rapid";  // pr5
  bool profile = false;                 // pr6
};

// --- probes ------------------------------------------------------------------

int probe_pr4(const Options& opt, Record& rec) {
  const Scenario scenario(registry("powerlaw-large"));
  const Instance inst = scenario.instance(0, 3.0);
  const RunSpec spec{};  // RAPID, avg-delay
  SimResult result;
  rec.headline = measure(opt.runs, true, [&] { result = run_instance(scenario, inst, spec); });

  rec.text("scenario", "powerlaw-large");
  rec.text("protocol", "rapid");
  rec.num("load", 3.0);
  rec.trio(inst.workload.size(), inst.schedule.size(), result.delivered);
  return 0;
}

int probe_pr5(const Options& opt, Record& rec) {
  std::optional<ProtocolKind> protocol;
  if (opt.protocol_name == "rapid") protocol = ProtocolKind::kRapid;
  if (opt.protocol_name == "random") protocol = ProtocolKind::kRandom;
  if (opt.protocol_name == "direct") protocol = ProtocolKind::kDirect;
  if (!protocol) {
    std::fprintf(stderr, "bench_record pr5: unknown --protocol %s\n",
                 opt.protocol_name.c_str());
    return kUsageError;
  }
  if (opt.materialized && opt.stretch > 1.0) {
    std::fprintf(stderr,
                 "bench_record pr5: --stretch runs the streaming path by "
                 "construction; drop --materialized\n");
    return kUsageError;
  }

  ScenarioConfig config = registry("powerlaw-stream");
  config.stream_mobility = !opt.materialized;
  const Scenario scenario(config);
  // The stretched scenario differs only in its mobility horizon; workload,
  // priors and buffers come from the base scenario either way.
  ScenarioConfig stretched_config = config;
  stretched_config.powerlaw.duration *= opt.stretch;
  const Scenario stretched_scenario(stretched_config);
  const double load = 0.25;
  RunSpec spec;
  spec.protocol = *protocol;

  SimResult result;
  std::size_t packets = 0;
  rec.headline = measure(opt.runs, true, [&] {
    // Built inside the measured region on purpose: on the streaming path
    // mobility is generated during the run, so instance construction is part
    // of what the materialized path pays for.
    Instance inst = scenario.instance(0, load);
    packets = inst.workload.size();
    // Same workload, priors and buffers; only the contact stream is longer.
    if (opt.stretch > 1.0) inst.make_model = [&] { return stretched_scenario.model(0); };
    result = run_instance(scenario, inst, spec);
  });

  rec.text("scenario", "powerlaw-stream");
  rec.text("protocol", opt.protocol_name);
  rec.text("mode", opt.materialized ? "materialized" : "streaming");
  rec.num("stretch", opt.stretch);
  rec.num("load", load);
  rec.trio(packets, result.meetings, result.delivered);
  rec.count("meeting_bytes_avoided",
            opt.materialized ? 0ULL
                             : static_cast<unsigned long long>(result.meetings) *
                                   sizeof(rapid::Meeting));
  return 0;
}

int probe_pr6(const Options& opt, Record& rec) {
  const Scenario scenario(registry("powerlaw-large"));
  const double load = 0.25;
  const RunSpec spec{};  // RAPID, avg-delay, obs knobs off: the always-on probe cost
  const Point run = measure_point(scenario, load, spec, opt.runs, true);
  rec.headline = run.best;

  std::string phases = "null";
  if (opt.profile) {
    RunSpec profiled = spec;
    profiled.obs.profile = true;
    const Instance inst = scenario.instance(0, load);
    const SimResult result = run_instance(scenario, inst, profiled);
    if (result.obs != nullptr) phases = rapid::obs::phase_table_json(result.obs->profile, 4);
  }

  rec.text("scenario", "powerlaw-large");
  rec.text("protocol", "rapid");
  rec.num("load", load);
  rec.raw("obs_enabled", RAPID_OBS_ENABLED ? "true" : "false");
  rec.trio(run.packets, run.result.meetings, run.result.delivered);
  rec.raw("phases", phases);
  return 0;
}

// Deterministic rotating contact pattern: every node keeps meeting rotating
// partners at a fixed cadence, capacities cycle so transfer queues truncate
// differently contact to contact. A stand-in for a live feed's steady drip.
std::vector<rapid::ContactEvent> synth_contacts(int nodes, int count, rapid::Time horizon) {
  std::vector<rapid::ContactEvent> out;
  out.reserve(static_cast<std::size_t>(count));
  const rapid::Time step = horizon / (count + 1);
  for (int i = 0; i < count; ++i) {
    rapid::ContactEvent c;
    c.a = i % nodes;
    c.b = static_cast<rapid::NodeId>((c.a + 1 + i % (nodes - 1)) % nodes);
    c.time = step * (i + 1);
    c.capacity = 16 * 1024 + (i % 7) * 4 * 1024;
    out.push_back(c);
  }
  return out;
}

int probe_pr7(const Options& opt, Record& rec) {
  const int nodes = 30;
  const int contacts = 20000;
  const double load = 0.6;
  const rapid::Time horizon = 4 * rapid::kSecondsPerHour;
  const std::vector<rapid::ContactEvent> stream = synth_contacts(nodes, contacts, horizon);

  rapid::ServiceConfig config;
  config.num_nodes = nodes;
  config.horizon = horizon;  // protocol: RAPID, avg-delay — the query-capable path
  rapid::WorkloadConfig wl;
  wl.packets_per_period_per_pair = load;
  wl.duration = horizon;
  // Per-process path: concurrent probes never share a snapshot file.
  const std::string snapshot_path = std::filesystem::temp_directory_path().string() +
                                    "/bench_record_pr7_" + std::to_string(::getpid()) + ".bin";

  double best_ingest = 1e300, best_query = 1e300, best_snapshot = 1e300;
  std::uint64_t snapshot_bytes = 0;
  std::size_t packets = 0, meetings = 0, delivered = 0;
  std::optional<rapid::ServiceEngine> engine;
  rec.headline = measure(
      opt.runs, true,
      [&] {
        // Ingest + advance: the whole stream queues up, the clock chases it
        // to the midpoint (live buffers, half the contacts still pending).
        const auto t0 = Clock::now();
        rapid::Rng rng(1);
        engine.emplace(config, generate_workload(wl, nodes, rng));
        for (const rapid::ContactEvent& c : stream) engine->ingest(c);
        engine->advance_to(horizon / 2);
        const auto t1 = Clock::now();

        // Mid-stream sweep: every query the serve surface offers, per packet.
        double delay_sum = 0;
        int replica_sum = 0;
        const auto n_packets = static_cast<rapid::PacketId>(engine->workload().size());
        for (rapid::PacketId id = 0; id < n_packets; ++id) {
          delay_sum += engine->query_utility(id);
          delay_sum += engine->query_delay(id);
          replica_sum += engine->query_status(id).replicas;
        }
        const rapid::FleetStats mid = engine->stats();
        const SimResult interim = engine->report();
        const auto t2 = Clock::now();

        // Finish the run and checkpoint the final state.
        engine->advance_to(horizon);
        const auto t3 = Clock::now();
        snapshot_bytes = engine->snapshot(snapshot_path);
        const auto t4 = Clock::now();

        // Keep the sweep's results observable so it cannot be optimized away.
        if (delay_sum < -1e300 || replica_sum < 0 || mid.meetings < 0 ||
            interim.total_packets == 0)
          std::fprintf(stderr, "bench_record pr7: degenerate sweep\n");
        best_ingest = std::min(best_ingest, ms_between(t0, t1) + ms_between(t2, t3));
        best_query = std::min(best_query, ms_between(t1, t2));
        best_snapshot = std::min(best_snapshot, ms_between(t3, t4));
      },
      [&] {
        const SimResult result = engine->report();
        packets = engine->workload().size();
        meetings = result.meetings;
        delivered = result.delivered;
        engine.reset();
      });
  std::error_code ignored;
  std::filesystem::remove(snapshot_path, ignored);

  rec.text("scenario", "service-synth");
  rec.text("protocol", "rapid");
  rec.count("nodes", nodes);
  rec.count("contacts", contacts);
  rec.num("load", load);
  rec.trio(packets, meetings, delivered);
  rec.count("snapshot_bytes", snapshot_bytes);
  rec.num("ingest_wall_ms", best_ingest);
  rec.num("query_wall_ms", best_query);
  rec.num("snapshot_wall_ms", best_snapshot);
  rec.exact_extra = {"snapshot_bytes"};
  rec.tracked_extra = {"ingest_wall_ms", "query_wall_ms", "snapshot_wall_ms"};
  return 0;
}

int probe_pr8(const Options& opt, Record& rec) {
  const Scenario scenario(registry("powerlaw-stream"));
  const double load = 0.25;
  const int kWidths[] = {1, 2, 4, 8};
  double best_ms[4] = {};
  Point serial;
  bool identical = true;
  for (int w = 0; w < 4; ++w) {
    RunSpec spec;
    spec.sim_threads = kWidths[w];
    Point p = measure_point(scenario, load, spec, opt.runs, w == 0, [&](const SimResult& r) {
      if (w > 0 && !same_result(serial.result, r)) {
        identical = false;
        std::fprintf(stderr, "bench_record pr8: sim_threads=%d diverged from the serial run\n",
                     kWidths[w]);
      }
    });
    best_ms[w] = p.best.ms;
    std::fprintf(stderr, "bench_record pr8: sim_threads=%d wall=%.1f ms\n", kWidths[w],
                 best_ms[w]);
    if (w == 0) serial = std::move(p);
  }
  rec.headline = serial.best;

  rec.text("scenario", "powerlaw-stream");
  rec.text("protocol", "rapid");
  rec.num("load", load);
  rec.trio(serial.packets, serial.result.meetings, serial.result.delivered);
  rec.count("results_identical", identical ? 1 : 0);
  for (int w = 1; w < 4; ++w) {
    rec.num("wall_clock_ms_t" + std::to_string(kWidths[w]), best_ms[w]);
    rec.num("speedup_t" + std::to_string(kWidths[w]), best_ms[0] / best_ms[w]);
  }
  rec.exact_extra = {"results_identical"};
  rec.tracked_extra = {"wall_clock_ms_t2", "wall_clock_ms_t4", "wall_clock_ms_t8"};
  return identical ? 0 : 1;
}

int probe_pr9(const Options& opt, Record& rec) {
  const ScenarioConfig clean_config = registry("powerlaw-stream");
  // Zero rates, non-default seeds and spread: enabled() stays false, so this
  // must not shift the run by a single RNG draw.
  ScenarioConfig zeroed_config = clean_config;
  zeroed_config.link_fault.seed = 0xDEAD;
  zeroed_config.link_fault.loss_spread = 0.7;
  zeroed_config.node_faults.seed = 0xBEEF;
  const Scenario clean_scenario(clean_config);
  const Scenario zeroed_scenario(zeroed_config);
  const Scenario faulty_scenario(registry("powerlaw-stream-faulty"));
  const double load = 0.25;
  const RunSpec spec{};  // serial RAPID; the sharded widths are pr8's contract

  const Point clean = measure_point(clean_scenario, load, spec, opt.runs, true);
  std::fprintf(stderr, "bench_record pr9: clean wall=%.1f ms\n", clean.best.ms);
  const Point zeroed = measure_point(zeroed_scenario, load, spec, 1, false);
  const bool zero_identical = same_result(clean.result, zeroed.result);
  if (!zero_identical)
    std::fprintf(stderr, "bench_record pr9: zero-rate fault config perturbed the run\n");
  const Point faulted = measure_point(faulty_scenario, load, spec, opt.runs, false);
  const SimResult& f = faulted.result;
  std::fprintf(stderr, "bench_record pr9: faulted wall=%.1f ms (crashes=%zu corrupted=%zu)\n",
               faulted.best.ms, f.crashes, f.corrupted_transfers);
  rec.headline = clean.best;

  const std::size_t clean_dispatched = clean.result.meetings - clean.result.meetings_suppressed;
  const std::size_t faulted_dispatched = f.meetings - f.meetings_suppressed;
  const double clean_per_meeting =
      clean_dispatched > 0 ? clean.best.ms / static_cast<double>(clean_dispatched) : 0.0;
  const double faulted_per_meeting =
      faulted_dispatched > 0 ? faulted.best.ms / static_cast<double>(faulted_dispatched) : 0.0;
  const double overhead_pct =
      clean_per_meeting > 0.0
          ? 100.0 * (faulted_per_meeting - clean_per_meeting) / clean_per_meeting
          : 0.0;

  rec.text("scenario", "powerlaw-stream(-faulty)");
  rec.text("protocol", "rapid");
  rec.num("load", load);
  rec.trio(clean.packets, clean.result.meetings, clean.result.delivered);
  rec.count("zero_fault_identical", zero_identical ? 1 : 0);
  rec.count("delivered_faulted", f.delivered);
  rec.count("crashes", f.crashes);
  rec.count("recoveries", f.recoveries);
  rec.count("meetings_suppressed", f.meetings_suppressed);
  rec.count("fault_lost_packets", f.fault_lost_packets);
  rec.count("corrupted_transfers", f.corrupted_transfers);
  rec.count("corrupted_bytes", static_cast<unsigned long long>(f.corrupted_bytes));
  rec.count("meetings_dispatched_faulted", faulted_dispatched);
  rec.num("wall_clock_ms_faulted", faulted.best.ms);
  rec.num("fault_overhead_per_meeting_pct", overhead_pct);
  rec.text("fault_overhead_note",
           "per-dispatched-meeting cost of the faulted run vs clean (ms / (meetings - "
           "meetings_suppressed)); raw wall ratios mislead because crashes suppress "
           "meetings and shrink the faulted run's work");
  rec.exact_extra = {"zero_fault_identical", "delivered_faulted",   "crashes",
                     "recoveries",           "meetings_suppressed", "meetings_dispatched_faulted",
                     "fault_lost_packets",   "corrupted_transfers", "corrupted_bytes"};
  rec.tracked_extra = {"wall_clock_ms_faulted"};
  return zero_identical ? 0 : 1;
}

int probe_pr10(const Options& opt, Record& rec) {
  const Scenario scenario(registry("powerlaw-stream"));
  const double load = 0.25;
  const rapid::Time kBatchSpan = 60.0;  // one simulated minute per dispatch batch
  RunSpec spec;
  spec.dispatch_batch = kBatchSpan;
  const Point batched = measure_point(scenario, load, spec, opt.runs, true);
  std::fprintf(stderr, "bench_record pr10: batched wall=%.1f ms\n", batched.best.ms);
  spec.dispatch_batch = 0.0;
  const Point unbatched = measure_point(scenario, load, spec, opt.runs, false);
  std::fprintf(stderr, "bench_record pr10: unbatched wall=%.1f ms\n", unbatched.best.ms);
  const bool batch_identical = same_result(batched.result, unbatched.result);
  if (!batch_identical)
    std::fprintf(stderr, "bench_record pr10: batched dispatch diverged from per-event dispatch\n");
  rec.headline = batched.best;

  rec.text("scenario", "powerlaw-stream");
  rec.text("protocol", "rapid");
  rec.num("load", load);
  rec.num("dispatch_batch_s", kBatchSpan);
  rec.trio(batched.packets, batched.result.meetings, batched.result.delivered);
  rec.count("batch_identical", batch_identical ? 1 : 0);
  rec.num("wall_clock_ms_unbatched", unbatched.best.ms);
  rec.exact_extra = {"batch_identical"};
  rec.tracked_extra = {"wall_clock_ms_unbatched"};
  return batch_identical ? 0 : 1;
}

// --- probe table and command line ------------------------------------------

// Probe-specific flags; --json and --runs are accepted by every probe.
enum ProbeFlag : unsigned {
  kMaterialized = 1u << 0,
  kStretch = 1u << 1,
  kProtocol = 1u << 2,
  kProfile = 1u << 3,
};

struct Probe {
  const char* name;
  int (*run)(const Options&, Record&);
  int default_runs;
  unsigned flags;
  const char* what;
};

constexpr Probe kProbes[] = {
    {"pr4", probe_pr4, 3, 0, "powerlaw-large, load 3.0: flat-state layout"},
    {"pr5", probe_pr5, 3, kMaterialized | kStretch | kProtocol,
     "powerlaw-stream, streamed contacts: streaming mobility"},
    {"pr6", probe_pr6, 3, kProfile, "powerlaw-large, load 0.25: observability cost"},
    {"pr7", probe_pr7, 3, 0, "synthetic serve cycle: online service mode"},
    {"pr8", probe_pr8, 1, 0, "powerlaw-stream at sim-thread widths 1/2/4/8"},
    {"pr9", probe_pr9, 1, 0, "powerlaw-stream clean vs faulted: fault injection"},
    {"pr10", probe_pr10, 1, 0, "powerlaw-stream, batched vs per-event dispatch"},
};

std::string usage(const Probe& probe) {
  std::string u = std::string("bench_record ") + probe.name + " [--json PATH] [--runs N]";
  if (probe.flags & kMaterialized) u += " [--materialized]";
  if (probe.flags & kStretch) u += " [--stretch F]";
  if (probe.flags & kProtocol) u += " [--protocol rapid|random|direct]";
  if (probe.flags & kProfile) u += " [--profile]";
  return u;
}

void print_probes() {
  std::fprintf(stderr, "usage: bench_record <probe> [--json PATH] [--runs N] [probe flags]\n"
                       "probes:\n");
  for (const Probe& probe : kProbes)
    std::fprintf(stderr, "  %-5s %s\n        %s\n", probe.name, probe.what, usage(probe).c_str());
}

// Parses the flags after the probe name; false on anything the probe does
// not take.
bool parse_flags(const Probe& probe, int argc, char** argv, Options& opt) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--json" && has_value) {
      opt.json_path = argv[++i];
    } else if (arg == "--runs" && has_value) {
      opt.runs = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--materialized" && (probe.flags & kMaterialized)) {
      opt.materialized = true;
    } else if (arg == "--stretch" && has_value && (probe.flags & kStretch)) {
      opt.stretch = std::max(1.0, std::atof(argv[++i]));
    } else if (arg == "--protocol" && has_value && (probe.flags & kProtocol)) {
      opt.protocol_name = argv[++i];
    } else if (arg == "--profile" && (probe.flags & kProfile)) {
      opt.profile = true;
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Probe* probe = nullptr;
  for (const Probe& p : kProbes)
    if (argc > 1 && std::string(argv[1]) == p.name) probe = &p;
  if (probe == nullptr) {
    if (argc > 1) std::fprintf(stderr, "bench_record: unknown probe '%s'\n", argv[1]);
    print_probes();
    return kUsageError;
  }
  Options opt;
  opt.runs = probe->default_runs;
  if (!parse_flags(*probe, argc, argv, opt)) {
    std::fprintf(stderr, "usage: %s\n", usage(*probe).c_str());
    return kUsageError;
  }

  Record rec;
  const int status = probe->run(opt, rec);
  if (status == kUsageError) return status;
  const std::string json = render(rec);
  std::fputs(json.c_str(), stdout);
  if (!opt.json_path.empty()) {
    std::FILE* f = std::fopen(opt.json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_record: cannot write %s\n", opt.json_path.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
  }
  return status;
}
