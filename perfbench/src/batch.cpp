#include "batch.h"

#include <limits>

namespace perfbench {

using rapid::obs::Phase;

rapid::RouterFactory factory_for(const rapid::Scenario& scenario, const rapid::RunSpec& spec) {
  rapid::ProtocolParams params = scenario.protocol_params();
  params.metric = spec.metric;
  params.rapid_incremental_cache = spec.rapid_incremental_cache;
  const rapid::Bytes buffer = spec.buffer_override != -2 ? spec.buffer_override
                                                         : scenario.config().buffer_capacity;
  return rapid::make_protocol_factory(spec.protocol, params, buffer);
}

rapid::SimConfig sim_config_for(const rapid::Scenario& scenario,
                                const rapid::Instance& instance,
                                const rapid::RunSpec& spec) {
  rapid::SimConfig sim;
  sim.contact.metadata_cap_fraction = spec.metadata_cap_fraction;
  sim.contact.charge_metadata = true;
  sim.contact.link = scenario.config().link;
  sim.contact.link.seed ^= instance.link_seed;
  sim.contact.fault = scenario.config().link_fault;
  sim.node_faults = scenario.config().node_faults;
  if (sim.contact.fault.enabled() || sim.node_faults.enabled()) {
    sim.contact.fault.seed ^= instance.fault_seed;
    sim.node_faults.seed ^= instance.fault_seed;
  }
  sim.obs = spec.obs;
  sim.sim_threads = spec.sim_threads;
  sim.dispatch_batch = spec.dispatch_batch;
  return sim;
}

void run_steps(rapid::Simulation& sim, Tracer* tracer) {
  bool dispatched = false;
  rapid::SimEvent::Kind kind = rapid::SimEvent::Kind::kPacket;
  sim.add_tap([&](const rapid::SimEvent& event, const rapid::MetricsCollector&) {
    dispatched = true;
    kind = event.kind;
  });
  while (true) {
    Tracer::Scope span(tracer, SpanName::kStepOther);
    dispatched = false;
    const bool more = sim.step();
    if (dispatched && kind == rapid::SimEvent::Kind::kMeeting)
      span.rename(SpanName::kStepMeeting);
    else if (dispatched && kind == rapid::SimEvent::Kind::kPacket)
      span.rename(SpanName::kStepPacket);
    if (!more) break;
  }
}

void ObsTotals::add(const rapid::SimResult& result) {
  if (result.obs == nullptr) return;
  profile.merge(result.obs->profile);
  for (const rapid::obs::MetricSample& s : result.obs->metrics.samples) {
    std::uint64_t& slot = metrics[s.name];
    if (s.name == "utility.tracked_packets")
      slot = std::max(slot, s.value);
    else
      slot += s.value;
  }
}

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double ratio(double num, double den) { return den > 0 ? num / den : kNaN; }

}  // namespace

void add_step_layers(RepResult& out, const Tracer& tracer) {
  out.set("sim.contact_us_p50",
          percentile(tracer.stats(SpanName::kStepMeeting).durations_ns, 0.5) / 1e3);
  out.set("sim.contact_us_p99",
          percentile(tracer.stats(SpanName::kStepMeeting).durations_ns, 0.99) / 1e3);
  out.set("sim.packet_us_p50",
          percentile(tracer.stats(SpanName::kStepPacket).durations_ns, 0.5) / 1e3);
  out.set("dtn.workload_gen_s",
          static_cast<double>(tracer.stats(SpanName::kScenarioInstance).total_ns) / 1e9);
  out.set("sim.router_build_s",
          static_cast<double>(tracer.stats(SpanName::kSimConstruct).total_ns) / 1e9);
}

void add_obs_layers(RepResult& out, const ObsTotals& totals) {
  const bool on = obs_enabled();
  const double attributed = static_cast<double>(totals.profile.attributed_ns());
  const auto share = [&](Phase p) {
    return on ? ratio(static_cast<double>(totals.profile.ns[static_cast<std::size_t>(p)]),
                      attributed)
              : kNaN;
  };
  out.set("core.routing_share", share(Phase::kRouting));
  out.set("dtn.transfer_share", share(Phase::kTransfer));
  out.set("dtn.packet_gen_share", share(Phase::kPacketGen));
  out.set("sim.dispatch_share", share(Phase::kDispatch));
  out.set("sim.wheel_share", share(Phase::kWheelAdvance));

  const auto value = [&](const char* name) {
    if (!on) return kNaN;
    const auto it = totals.metrics.find(name);
    return it == totals.metrics.end() ? 0.0 : static_cast<double>(it->second);
  };
  out.set("utility.delay_hit_ratio",
          ratio(value("utility.delay_hits"),
                value("utility.delay_hits") + value("utility.delay_recomputes")));
  out.set("utility.rate_hit_ratio",
          ratio(value("utility.rate_hits"),
                value("utility.rate_hits") + value("utility.rate_recomputes")));
  out.set("utility.tracked_packets", value("utility.tracked_packets"));
  out.set("contact.metadata_bytes", value("contact.metadata_bytes"));
  out.set("contact.data_bytes", value("contact.data_bytes"));
  out.set("contact.capacity_bytes", value("contact.capacity_bytes.sum"));
  out.set("contact.transfers", value("contact.transfers"));
  out.set("router.drops", value("router.drops"));
  out.set("wheel.advances", value("wheel.advances"));
  out.set("wheel.cascades", value("wheel.cascades"));
}

}  // namespace perfbench
