// figure-sweep: the full Fig 4 grid through SweepExecutor.
//
// The untraced run calls SweepExecutor::load_sweep, the path `rapid_bench
// --figure 4` takes. SweepExecutor keeps its pool private, so the traced run
// walks the same grid in the same cell order through runner::parallel_for on
// a ThreadPool of the same width (the primitive SweepExecutor is built on);
// that exposes the pool's counters and lets each cell carry spans. The two
// passes must produce the same digest.
#include <algorithm>
#include <limits>
#include <memory>
#include <vector>

#include "batch.h"
#include "runner/scenario_registry.h"
#include "runner/sweep_executor.h"
#include "runner/thread_pool.h"

namespace perfbench {
namespace {

struct Grid {
  std::vector<double> loads;
  std::vector<rapid::RunSpec> specs;
};

Grid make_grid(bool smoke, bool profile, std::uint64_t seed) {
  Grid grid;
  const std::vector<double> fig4_loads =
      smoke ? std::vector<double>{2, 20} : std::vector<double>{2, 6, 12, 20, 30, 40};
  for (std::size_t x = 0; x < fig4_loads.size(); ++x)
    grid.loads.push_back(seeded_load(fig4_loads[x], seed, x));
  for (rapid::ProtocolKind kind :
       {rapid::ProtocolKind::kRapid, rapid::ProtocolKind::kMaxProp,
        rapid::ProtocolKind::kSprayWait, rapid::ProtocolKind::kRandom}) {
    rapid::RunSpec spec;
    spec.protocol = kind;
    spec.metric = rapid::RoutingMetric::kAvgDelay;
    spec.obs.profile = profile;
    grid.specs.push_back(spec);
  }
  return grid;
}

const char* run_s_key(rapid::ProtocolKind kind) {
  switch (kind) {
    case rapid::ProtocolKind::kRapid: return "core.run_s.rapid";
    case rapid::ProtocolKind::kMaxProp: return "baselines.run_s.maxprop";
    case rapid::ProtocolKind::kSprayWait: return "baselines.run_s.spray-wait";
    default: return "baselines.run_s.random";
  }
}

// One cell of the traced pass: run_instance, spelled out with spans.
rapid::SimResult run_cell(const rapid::Scenario& scenario, int run, double load,
                          const rapid::RunSpec& spec, Tracer* tr, AllocTotals& build,
                          AllocTotals& steady) {
  const Tracer::Scope cell_span(tr, SpanName::kCell);
  rapid::Instance instance;
  {
    const Tracer::Scope span(tr, SpanName::kScenarioInstance);
    instance = scenario.instance(run, load);
  }
  const rapid::RouterFactory factory = factory_for(scenario, spec);
  const rapid::SimConfig config = sim_config_for(scenario, instance, spec);
  const AllocTotals before_build = alloc_totals();
  std::unique_ptr<rapid::Simulation> sim;
  {
    const Tracer::Scope span(tr, SpanName::kSimConstruct);
    sim = std::make_unique<rapid::Simulation>(instance.schedule, instance.workload, factory,
                                              config);
  }
  const AllocTotals before_run = alloc_totals();
  build = before_run - before_build;
  {
    const Tracer::Scope span(tr, SpanName::kSimRun);
    run_steps(*sim, tr);
  }
  steady = alloc_totals() - before_run;
  const Tracer::Scope span(tr, SpanName::kFinish);
  return sim->finish();
}

}  // namespace

RepResult run_sweep(const RepOptions& options) {
  const bool traced = options.mode == Mode::kTraced;
  std::unique_ptr<Tracer> tracer = traced ? std::make_unique<Tracer>() : nullptr;
  Tracer* tr = tracer.get();
  RepResult out;
  {
    const Tracer::Scope rep_span(tr, SpanName::kRep);
    const std::uint64_t setup_start = now_ns();
    rapid::ScenarioConfig config = rapid::runner::ScenarioRegistry::global().make("trace");
    if (options.smoke) config.days = 2;
    std::unique_ptr<rapid::Scenario> scenario;
    {
      const Tracer::Scope span(tr, SpanName::kScenario);
      scenario = std::make_unique<rapid::Scenario>(config);
    }
    const Grid grid = make_grid(options.smoke, traced, options.seed);
    const int days = scenario->runs();
    // The grid's inputs, built once: every (day, load) workload the sweep's
    // cells generate again for each protocol.
    for (int day = 0; day < days; ++day)
      for (double load : grid.loads) {
        const Tracer::Scope span(tr, SpanName::kScenarioInstance);
        (void)scenario->instance(day, load);
      }
    std::unique_ptr<rapid::runner::SweepExecutor> executor;
    std::unique_ptr<rapid::runner::ThreadPool> pool;
    if (traced && options.threads > 1)
      pool = std::make_unique<rapid::runner::ThreadPool>(options.threads);
    else if (!traced)
      executor = std::make_unique<rapid::runner::SweepExecutor>(options.threads);
    out.set("setup_s", static_cast<double>(now_ns() - setup_start) / 1e9);
    if (options.mode == Mode::kSetup) return out;

    // results[(spec * loads + x) * days + day], SweepExecutor's cell order.
    const std::size_t n_loads = grid.loads.size();
    std::vector<rapid::SimResult> results(grid.specs.size() * n_loads *
                                          static_cast<std::size_t>(days));
    std::vector<AllocTotals> build(results.size());
    std::vector<AllocTotals> steady(results.size());
    const double cpu_start = process_cpu_s();
    const std::uint64_t run_start = now_ns();
    if (traced) {
      const Tracer::Scope span(tr, SpanName::kSweep);
      const SpanId sweep_id = tr->current();
      alloc_counting(true);
      rapid::runner::parallel_for(pool.get(), results.size(), [&](std::size_t i) {
        tr->adopt(sweep_id);
        const std::size_t day = i % static_cast<std::size_t>(days);
        const std::size_t x = (i / static_cast<std::size_t>(days)) % n_loads;
        const std::size_t s = i / (static_cast<std::size_t>(days) * n_loads);
        results[i] = run_cell(*scenario, static_cast<int>(day), grid.loads[x], grid.specs[s],
                              tr, build[i], steady[i]);
      });
      alloc_counting(false);
    } else {
      const std::vector<rapid::Series> swept =
          executor->load_sweep(*scenario, grid.loads, grid.specs);
      std::size_t i = 0;
      for (const rapid::Series& series : swept)
        for (const std::vector<rapid::SimResult>& cell : series.cells)
          for (const rapid::SimResult& r : cell) results.at(i++) = r;
      out.check(i == results.size(), "sweep returned a grid of the wrong shape");
    }
    const double run_s = static_cast<double>(now_ns() - run_start) / 1e9;
    const double cpu_s = process_cpu_s() - cpu_start;
    out.attempted += results.size();  // one run per cell

    Digest digest;
    double meetings = 0;
    double packets = 0;
    double rapid_generated = 0;
    double rapid_delivered = 0;
    double rapid_metadata = 0;
    double rapid_capacity = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
      const rapid::SimResult& r = results[i];
      digest.add_result(r);
      meetings += static_cast<double>(r.meetings);
      packets += static_cast<double>(r.total_packets);
      if (i / (static_cast<std::size_t>(days) * n_loads) == 0) {  // the RAPID series
        rapid_generated += static_cast<double>(r.total_packets);
        rapid_delivered += static_cast<double>(r.delivered);
        rapid_metadata += static_cast<double>(r.metadata_bytes);
        rapid_capacity += static_cast<double>(r.capacity_bytes);
      }
    }
    out.digest = digest.hex();
    out.set("contacts_per_s", meetings / run_s);
    out.set("cpu_s", cpu_s);
    out.set("delivery_rate", rapid_delivered / rapid_generated);
    out.set("metadata_share", rapid_metadata / rapid_capacity);
    out.set("meetings", meetings);
    out.set("packets", packets);
    out.check(meetings > 0 && rapid_generated > 0, "sweep dispatched no work");

    if (traced) {
      const rapid::runner::PoolStats pool_stats =
          pool ? pool->stats() : rapid::runner::PoolStats{};
      ObsTotals totals;
      std::vector<float> cell_s;
      std::vector<double> protocol_s(grid.specs.size(), 0.0);
      AllocTotals build_sum;
      AllocTotals steady_sum;
      for (std::size_t i = 0; i < results.size(); ++i) {
        totals.add(results[i]);
        // The cell's profile total; unavailable when the build strips the
        // profile (RAPID_OBS=OFF).
        const double total =
            results[i].obs != nullptr && obs_enabled()
                ? static_cast<double>(results[i].obs->profile.attributed_ns()) / 1e9
                : std::numeric_limits<double>::quiet_NaN();
        cell_s.push_back(static_cast<float>(total));
        protocol_s[i / (static_cast<std::size_t>(days) * n_loads)] += total;
        build_sum.count += build[i].count;
        build_sum.bytes += build[i].bytes;
        steady_sum.count += steady[i].count;
        steady_sum.bytes += steady[i].bytes;
      }
      for (std::size_t s = 0; s < grid.specs.size(); ++s)
        out.set(run_s_key(grid.specs[s].protocol), protocol_s[s]);
      const double nan = std::numeric_limits<double>::quiet_NaN();
      out.set("runner.cell_s_p50", obs_enabled() ? percentile(cell_s, 0.5) : nan);
      out.set("runner.cell_s_p99", obs_enabled() ? percentile(cell_s, 0.99) : nan);
      out.set("runner.pool_steals", static_cast<double>(pool_stats.steals));
      out.set("runner.pool_max_queue_depth", static_cast<double>(pool_stats.max_queue_depth));
      out.set("runner.parallel_efficiency",
              cpu_s / (static_cast<double>(std::max(1, options.threads)) * run_s));
      out.set("dtn.packets", packets);
      out.set("sim.router_build_mb", static_cast<double>(build_sum.bytes) / (1 << 20));
      out.set("sim.run_alloc_count", static_cast<double>(steady_sum.count));
      out.set("sim.run_alloc_mb", static_cast<double>(steady_sum.bytes) / (1 << 20));
      add_obs_layers(out, totals);
    }
  }
  out.set("peak_rss_mb", peak_rss_mb());
  if (traced) {
    add_step_layers(out, *tracer);
    if (!options.spans_path.empty())
      out.check(tracer->write_tsv(options.spans_path),
                "cannot write spans to " + options.spans_path);
  }
  return out;
}

}  // namespace perfbench
