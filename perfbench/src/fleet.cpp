// fleet-2k: the powerlaw-stream operating point, one serial RAPID run.
#include <memory>

#include "batch.h"
#include "runner/scenario_registry.h"

namespace perfbench {
namespace {

constexpr double kLoad = 0.25;
// The exact trio of the default seed (BENCH_pr9.json: packets, meetings,
// delivered).
constexpr std::size_t kTrioPackets = 5928;
constexpr std::size_t kTrioMeetings = 30797;
constexpr std::size_t kTrioDelivered = 247;

}  // namespace

RepResult run_fleet(const RepOptions& options) {
  const bool traced = options.mode == Mode::kTraced;
  std::unique_ptr<Tracer> tracer = traced ? std::make_unique<Tracer>() : nullptr;
  Tracer* tr = tracer.get();
  RepResult out;
  {
    const Tracer::Scope rep_span(tr, SpanName::kRep);
    const std::uint64_t setup_start = now_ns();

    rapid::ScenarioConfig config =
        rapid::runner::ScenarioRegistry::global().make("powerlaw-stream");
    if (options.smoke) config.powerlaw.num_nodes = 200;
    std::unique_ptr<rapid::Scenario> scenario;
    {
      const Tracer::Scope span(tr, SpanName::kScenario);
      scenario = std::make_unique<rapid::Scenario>(config);
    }
    rapid::Instance instance;
    {
      const Tracer::Scope span(tr, SpanName::kScenarioInstance);
      instance = scenario->instance(0, seeded_load(kLoad, options.seed, 0));
    }
    rapid::RunSpec spec;
    spec.protocol = rapid::ProtocolKind::kRapid;
    spec.obs.profile = traced;
    TimedModel model(instance.make_model(), tr);
    const rapid::RouterFactory factory = factory_for(*scenario, spec);
    const rapid::SimConfig sim_config = sim_config_for(*scenario, instance, spec);

    alloc_counting(traced);
    const AllocTotals before_build = alloc_totals();
    std::unique_ptr<rapid::Simulation> sim;
    {
      const Tracer::Scope span(tr, SpanName::kSimConstruct);
      sim = std::make_unique<rapid::Simulation>(
          rapid::SimBounds{model.num_nodes(), model.duration()}, instance.workload, factory,
          sim_config);
    }
    const AllocTotals build_allocs = alloc_totals() - before_build;
    sim->add_event_source(rapid::make_mobility_source(model));
    out.set("setup_s", static_cast<double>(now_ns() - setup_start) / 1e9);
    if (options.mode == Mode::kSetup) return out;

    const AllocTotals before_run = alloc_totals();
    const double cpu_start = process_cpu_s();
    const std::uint64_t run_start = now_ns();
    {
      const Tracer::Scope span(tr, SpanName::kSimRun);
      if (traced)
        run_steps(*sim, tr);
      else
        sim->run();
    }
    const double run_s = static_cast<double>(now_ns() - run_start) / 1e9;
    const double cpu_s = process_cpu_s() - cpu_start;
    const AllocTotals run_allocs = alloc_totals() - before_run;
    alloc_counting(false);

    rapid::SimResult result;
    {
      const Tracer::Scope span(tr, SpanName::kFinish);
      result = sim->finish();
    }
    ++out.attempted;  // the run itself

    const double meetings = static_cast<double>(result.meetings);
    out.set("contacts_per_s", meetings / run_s);
    out.set("cpu_s", cpu_s);
    out.set("delivery_rate", static_cast<double>(result.delivered) /
                                 static_cast<double>(result.total_packets));
    out.set("metadata_share", static_cast<double>(result.metadata_bytes) /
                                  static_cast<double>(result.capacity_bytes));
    out.set("packets", static_cast<double>(result.total_packets));
    out.set("meetings", meetings);
    out.set("delivered", static_cast<double>(result.delivered));

    out.check(model.contacts() == result.meetings,
              "mobility wrapper saw " + std::to_string(model.contacts()) +
                  " contacts but the run reports " + std::to_string(result.meetings) +
                  " meetings");
    out.check(result.total_packets == instance.workload.size(),
              "run reports a different packet count than the workload holds");
    if (!options.smoke)
      out.check(result.meetings == kTrioMeetings,
                "the scenario's contact process changed: " + std::to_string(result.meetings) +
                    " meetings, expected 30797");
    if (options.seed == default_seed() && !options.smoke)
      out.check(result.total_packets == kTrioPackets && result.meetings == kTrioMeetings &&
                    result.delivered == kTrioDelivered,
                "default-seed trio is " + std::to_string(result.total_packets) + "/" +
                    std::to_string(result.meetings) + "/" +
                    std::to_string(result.delivered) + ", expected 5928/30797/247");
    Digest digest;
    digest.add_result(result);
    out.digest = digest.hex();

    if (traced) {
      const SpanStats peek = tracer->stats(SpanName::kMobilityPeek);
      const SpanStats pop = tracer->stats(SpanName::kMobilityPop);
      out.set("mobility.contacts", static_cast<double>(model.contacts()));
      out.set("mobility.pull_ns", model.contacts() > 0
                                      ? static_cast<double>(peek.total_ns + pop.total_ns) /
                                            static_cast<double>(model.contacts())
                                      : 0.0);
      out.set("dtn.packets", static_cast<double>(instance.workload.size()));
      out.set("sim.router_build_mb", static_cast<double>(build_allocs.bytes) / (1 << 20));
      out.set("sim.run_alloc_count", static_cast<double>(run_allocs.count));
      out.set("sim.run_alloc_mb", static_cast<double>(run_allocs.bytes) / (1 << 20));
      ObsTotals totals;
      totals.add(result);
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
