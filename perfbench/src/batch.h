// Pieces shared by the two batch workloads (fleet-2k, figure-sweep): the
// run_instance set-up spelled out so set-up and run can be timed apart, the
// mobility timing wrapper, the traced step loop, and the per-layer metrics
// read from a run's phase profile and counters.
#pragma once

#include <map>
#include <memory>
#include <string>

#include "obs/obs.h"
#include "perfbench.h"
#include "sim/experiment.h"
#include "sim/simulation.h"
#include "tracer.h"

namespace perfbench {

// What run_instance builds before it runs: the router factory and the
// simulation config for one (scenario, instance, spec). Kept equal to
// run_instance; the traced figure-sweep's digest check (which must match the
// SweepExecutor pass) catches any drift.
rapid::RouterFactory factory_for(const rapid::Scenario& scenario, const rapid::RunSpec& spec);
rapid::SimConfig sim_config_for(const rapid::Scenario& scenario,
                                const rapid::Instance& instance,
                                const rapid::RunSpec& spec);

// Forwards a MobilityModel, counting the contacts it hands out and timing
// peek/pop as spans when a tracer is attached.
class TimedModel final : public rapid::MobilityModel {
 public:
  TimedModel(std::unique_ptr<rapid::MobilityModel> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  int num_nodes() const override { return inner_->num_nodes(); }
  rapid::Time duration() const override { return inner_->duration(); }
  const rapid::Meeting* peek() override {
    const Tracer::Scope span(tracer_, SpanName::kMobilityPeek);
    return inner_->peek();
  }
  void pop() override {
    const Tracer::Scope span(tracer_, SpanName::kMobilityPop);
    inner_->pop();
    ++contacts_;
  }
  std::uint64_t contacts() const { return contacts_; }

 private:
  std::unique_ptr<rapid::MobilityModel> inner_;
  Tracer* tracer_;
  std::uint64_t contacts_ = 0;
};

// Drains `sim` one Simulation::step() at a time, each step a span named by
// the kind of event it dispatched (a tap reports the kind).
void run_steps(rapid::Simulation& sim, Tracer* tracer);

// Sums of the observability output of one or more runs.
// Counters sum over runs; the tracked-packets gauge keeps its maximum.
struct ObsTotals {
  rapid::obs::PhaseProfile profile;
  std::map<std::string, std::uint64_t> metrics;
  void add(const rapid::SimResult& result);
};

// Per-layer metrics every batch workload reports from its traced run:
// span-derived step latencies, the phase profile as shares of attributed
// wall time, and the counters named in README.md.
void add_step_layers(RepResult& out, const Tracer& tracer);
void add_obs_layers(RepResult& out, const ObsTotals& totals);

}  // namespace perfbench
