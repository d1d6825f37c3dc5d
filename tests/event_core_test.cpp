// The event-core determinism matrix: SimConfig::dispatch_batch (batched
// contact dispatch) must be a pure execution-shape knob — every span, alone
// or with sharding, produces the byte-identical SimResult AND the
// byte-identical engine snapshot of the serial per-event run, the way
// shard_matrix_test.cpp pins --sim-threads.
//
// Coverage: exact ties across source kinds (workload packets created at
// the exact times meetings fire), events exactly on batch/window
// boundaries, run_until() stopping mid-batch, the fault source's
// parked-beyond-duration head (and its re-admission when the horizon
// grows), and sharded execution with batching on.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "dtn/workload.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/protocols.h"
#include "util/binio.h"
#include "util/rng.h"

namespace rapid {
namespace {

struct CoreKnobs {
  Time dispatch_batch = 0;
  int sim_threads = 1;
};

struct RunOutput {
  SimResult result;
  std::string snapshot;
};

RunOutput finish_and_snapshot(Simulation& sim) {
  RunOutput out;
  out.result = sim.finish();
  std::ostringstream bytes;
  BinWriter writer(bytes);
  sim.save_state(writer);
  out.snapshot = bytes.str();
  return out;
}

RunOutput run_case(const Scenario& scenario, const Instance& instance, ProtocolKind protocol,
                   const CoreKnobs& knobs) {
  ProtocolParams params = scenario.protocol_params();
  const RouterFactory factory =
      make_protocol_factory(protocol, params, scenario.config().buffer_capacity);

  SimConfig sim;
  sim.contact.charge_metadata = true;
  sim.contact.link = scenario.config().link;
  sim.contact.link.seed ^= instance.link_seed;
  sim.contact.fault = scenario.config().link_fault;
  sim.contact.fault.seed ^= instance.fault_seed;
  sim.node_faults = scenario.config().node_faults;
  sim.node_faults.seed ^= instance.fault_seed;
  sim.dispatch_batch = knobs.dispatch_batch;
  sim.sim_threads = knobs.sim_threads;
  if (knobs.sim_threads > 1) sim.shard_window = 61;

  if (instance.make_model) {
    Simulation simulation(SimBounds{instance.num_nodes, instance.duration}, instance.workload,
                          factory, sim);
    simulation.add_event_source(make_mobility_source(instance.make_model()));
    simulation.run();
    return finish_and_snapshot(simulation);
  }
  Simulation simulation(instance.schedule, instance.workload, factory, sim);
  simulation.run();
  return finish_and_snapshot(simulation);
}

void expect_bit_identical(const RunOutput& baseline, const RunOutput& other,
                          const std::string& label) {
  EXPECT_EQ(baseline.result.total_packets, other.result.total_packets) << label;
  EXPECT_EQ(baseline.result.delivered, other.result.delivered) << label;
  EXPECT_EQ(baseline.result.avg_delay, other.result.avg_delay) << label;
  EXPECT_EQ(baseline.result.max_delay, other.result.max_delay) << label;
  EXPECT_EQ(baseline.result.deadline_rate, other.result.deadline_rate) << label;
  EXPECT_EQ(baseline.result.data_bytes, other.result.data_bytes) << label;
  EXPECT_EQ(baseline.result.metadata_bytes, other.result.metadata_bytes) << label;
  EXPECT_EQ(baseline.result.capacity_bytes, other.result.capacity_bytes) << label;
  EXPECT_EQ(baseline.result.drops, other.result.drops) << label;
  EXPECT_EQ(baseline.result.meetings, other.result.meetings) << label;
  EXPECT_EQ(baseline.result.crashes, other.result.crashes) << label;
  EXPECT_EQ(baseline.result.recoveries, other.result.recoveries) << label;
  EXPECT_EQ(baseline.result.meetings_suppressed, other.result.meetings_suppressed) << label;
  EXPECT_EQ(baseline.result.fault_lost_packets, other.result.fault_lost_packets) << label;
  EXPECT_EQ(baseline.result.corrupted_transfers, other.result.corrupted_transfers) << label;
  EXPECT_EQ(baseline.result.delivery_time, other.result.delivery_time) << label;
  ASSERT_FALSE(baseline.snapshot.empty()) << label;
  EXPECT_EQ(baseline.snapshot == other.snapshot, true)
      << label << ": engine snapshot bytes diverged";
}

struct ScenarioCase {
  const char* name;
  ScenarioConfig config;
};

// Trace (dense real meeting times), streamed power-law (lazy mobility
// generation inside peek), and the trace under crash + corruption faults
// (the fault source's clipped/parked head and its mid-window mask flips are
// the hardest ordering clients of the pump).
std::vector<ScenarioCase> scenario_cases() {
  std::vector<ScenarioCase> cases;
  ScenarioConfig trace = make_trace_scenario();
  trace.days = 1;
  cases.push_back({"trace", trace});

  ScenarioConfig powerlaw = make_powerlaw_scenario();
  powerlaw.stream_mobility = true;
  powerlaw.synthetic_runs = 1;
  cases.push_back({"powerlaw-stream", powerlaw});

  ScenarioConfig faulty = make_trace_scenario();
  faulty.days = 1;
  faulty.node_faults.mean_uptime = 1.5 * kSecondsPerHour;
  faulty.node_faults.mean_downtime = 0.4 * kSecondsPerHour;
  faulty.node_faults.drop_buffers = true;
  faulty.link_fault.loss_rate = 0.1;
  faulty.link_fault.loss_spread = 0.5;
  faulty.link_fault.meta_degrade_rate = 0.2;
  cases.push_back({"trace-faulty", faulty});
  return cases;
}

TEST(EventCore, BatchedDispatchMatchesPerEventForAnySpan) {
  const Time kSpans[] = {1.0, 61.0, 3600.0, 1.0e9};
  for (const ScenarioCase& sc : scenario_cases()) {
    const Scenario scenario(sc.config);
    const Instance instance = scenario.instance(0, 2.0);
    const RunOutput baseline = run_case(scenario, instance, ProtocolKind::kRapid, CoreKnobs{});
    EXPECT_GT(baseline.result.meetings, 0u) << sc.name;
    if (sc.config.node_faults.enabled()) EXPECT_GT(baseline.result.crashes, 0u) << sc.name;
    for (const Time span : kSpans) {
      CoreKnobs batched;
      batched.dispatch_batch = span;
      const RunOutput got = run_case(scenario, instance, ProtocolKind::kRapid, batched);
      expect_bit_identical(baseline, got,
                           std::string(sc.name) + "/span=" + std::to_string(span));
    }
  }
}

// Sharded windows with batching on must reproduce the serial per-event run.
// The id predates the single event core; it is kept so the test's history
// stays continuous.
TEST(EventCore, ShardedWheelWithBatchingMatchesSerialPoll) {
  ScenarioConfig config = make_powerlaw_scenario();
  config.stream_mobility = true;
  config.synthetic_runs = 1;
  const Scenario scenario(config);
  const Instance instance = scenario.instance(0, 2.0);
  const RunOutput baseline = run_case(scenario, instance, ProtocolKind::kRapid, CoreKnobs{});
  for (const int threads : {2, 4}) {
    CoreKnobs sharded;
    sharded.dispatch_batch = 61.0;
    sharded.sim_threads = threads;
    const RunOutput got = run_case(scenario, instance, ProtocolKind::kRapid, sharded);
    expect_bit_identical(baseline, got, "threads=" + std::to_string(threads));
  }
}

// --- Synthetic tie/boundary worlds ----------------------------------------

// A hand-built world where every ordering hazard is exact by construction:
// meetings at integer multiples of the batch span (events exactly ON batch
// boundaries), several meetings sharing one timestamp (ties between
// schedule entries), and packets created at exactly those same times (ties
// ACROSS source kinds — the workload source registers before the schedule
// source, so it must win every such tie at every batch span).
struct TieWorld {
  MeetingSchedule schedule;
  PacketPool workload;
};

TieWorld make_tie_world() {
  TieWorld world;
  world.schedule.num_nodes = 6;
  world.schedule.duration = 600;
  for (int k = 1; k <= 11; ++k) {
    const Time t = static_cast<Time>(k) * 50.0;  // exactly on span boundaries
    world.schedule.add(0, 1, t, 16_KB);
    world.schedule.add(2, 3, t, 16_KB);  // exact tie with the previous meeting
    if (k % 2 == 0) world.schedule.add(4, 5, t, 16_KB);
    world.schedule.add(1, 2, t + 25.0, 16_KB);  // mid-span event
  }
  world.schedule.sort();
  for (int k = 0; k <= 11; ++k) {
    const Time t = static_cast<Time>(k) * 50.0;  // created exactly at meeting times
    Packet p;
    p.src = static_cast<NodeId>(k % 6);
    p.dst = static_cast<NodeId>((k + 3) % 6);
    p.size = 1_KB;
    p.created = t;
    world.workload.add(p);
  }
  return world;
}

RouterFactory tie_factory() {
  ProtocolParams params;
  params.rapid_prior_meeting_time = 600;
  params.rapid_prior_opportunity = 16_KB;
  params.rapid_delay_cap = 1200;
  return make_protocol_factory(ProtocolKind::kRapid, params, -1);
}

SimResult run_tie_world(const TieWorld& world, const CoreKnobs& knobs) {
  SimConfig sim;
  sim.dispatch_batch = knobs.dispatch_batch;
  Simulation simulation(world.schedule, world.workload, tie_factory(), sim);
  simulation.run();
  return simulation.finish();
}

void expect_same_result(const SimResult& a, const SimResult& b, const std::string& label) {
  EXPECT_EQ(a.delivered, b.delivered) << label;
  EXPECT_EQ(a.data_bytes, b.data_bytes) << label;
  EXPECT_EQ(a.metadata_bytes, b.metadata_bytes) << label;
  EXPECT_EQ(a.meetings, b.meetings) << label;
  EXPECT_EQ(a.drops, b.drops) << label;
  EXPECT_EQ(a.delivery_time, b.delivery_time) << label;
}

TEST(EventCore, ExactTiesAndBatchBoundariesAreCoreInvariant) {
  const TieWorld world = make_tie_world();
  const SimResult baseline = run_tie_world(world, CoreKnobs{});
  EXPECT_GT(baseline.meetings, 0u);
  EXPECT_GT(baseline.delivered, 0u);

  // Spans exactly the meeting spacing, half of it (every mid-span event on
  // a boundary), one that divides nothing, and one covering the whole run —
  // ties and boundary events must never reorder.
  for (const Time span : {50.0, 25.0, 7.0, 1.0e9}) {
    CoreKnobs batched;
    batched.dispatch_batch = span;
    const SimResult got = run_tie_world(world, batched);
    expect_same_result(baseline, got, "span=" + std::to_string(span));
  }
}

TEST(EventCore, RunUntilStopsMidBatchAndResumesSeamlessly) {
  const TieWorld world = make_tie_world();
  const SimResult baseline = run_tie_world(world, CoreKnobs{});

  SimConfig sim;
  sim.dispatch_batch = 50.0;
  Simulation stepped(world.schedule, world.workload, tie_factory(), sim);
  // Stop times deliberately straddle batch spans (75 is mid-span, 100 lands
  // exactly on a boundary burst, 130 is just past one): run_until must not
  // dispatch any event past its limit even when a batch was mid-flight.
  for (const Time stop : {30.0, 75.0, 100.0, 130.0, 333.0}) {
    stepped.run_until(stop);
    EXPECT_LE(stepped.now(), stop);
  }
  stepped.run();
  expect_same_result(baseline, stepped.finish(), "stepped mid-batch");
}

// A one-event-per-step walk under batching: step() drains exactly one batch,
// and the count of steps shrinks as the span grows, while results stay
// identical — the batch really is coalescing dispatch, not just renaming it.
TEST(EventCore, StepDrainsWholeBatchesAndFewerOfThem) {
  const TieWorld world = make_tie_world();
  std::size_t steps_unbatched = 0, steps_batched = 0;
  SimResult unbatched, batched;
  {
    SimConfig sim;
    Simulation s(world.schedule, world.workload, tie_factory(), sim);
    while (s.step()) ++steps_unbatched;
    unbatched = s.finish();
  }
  {
    SimConfig sim;
    sim.dispatch_batch = 50.0;
    Simulation s(world.schedule, world.workload, tie_factory(), sim);
    while (s.step()) ++steps_batched;
    batched = s.finish();
  }
  EXPECT_GT(steps_unbatched, 0u);
  EXPECT_LT(steps_batched, steps_unbatched)
      << "a positive span must coalesce multiple events per step";
  expect_same_result(unbatched, batched, "stepped batching");
}

// The fault stream is unbounded, so the core clips its head at the current
// horizon instead of popping crash events forever. An open-ended driver
// (the service engine) grows the horizon with set_duration(); the parked
// head must then be re-admitted, and nothing may ever run past the horizon
// in force. Run per event with a tap that sees every dispatch, and batched
// + sharded without one: both must agree.
TEST(EventCore, ParkedFaultHeadIsReadmittedWhenTheHorizonGrows) {
  constexpr Time kFirstHorizon = 1000.0;
  constexpr Time kSecondHorizon = 3000.0;
  const TieWorld world = make_tie_world();
  MeetingSchedule meetings;  // a contact every 10 s, past both horizons
  meetings.num_nodes = world.schedule.num_nodes;
  for (int k = 1; k <= 400; ++k)
    meetings.add(static_cast<NodeId>(k % 6), static_cast<NodeId>((k + 1) % 6),
                 static_cast<Time>(k) * 10.0, 16_KB);
  SimConfig base;
  base.node_faults.mean_uptime = 200.0;
  base.node_faults.mean_downtime = 50.0;

  struct Variant {
    const char* name;
    Time dispatch_batch;
    int sim_threads;
    bool tap;
  };
  std::vector<std::size_t> crashes_per_variant;
  for (const Variant v : {Variant{"per-event+tap", 0, 1, true},
                          Variant{"batched+sharded", 60.0, 2, false}}) {
    SCOPED_TRACE(v.name);
    SimConfig config = base;
    config.dispatch_batch = v.dispatch_batch;
    config.sim_threads = v.sim_threads;
    Simulation sim(SimBounds{meetings.num_nodes, kFirstHorizon}, world.workload, tie_factory(),
                   config);
    sim.add_event_source(make_schedule_source(meetings));
    Time horizon = kFirstHorizon;
    std::size_t late = 0;  // dispatched events past the horizon in force
    std::size_t faults = 0;
    if (v.tap) {
      sim.add_tap([&](const SimEvent& event, const MetricsCollector&) {
        if (event.time > horizon) ++late;
        if (event.kind == SimEvent::Kind::kFault) ++faults;
      });
    }

    sim.run();
    EXPECT_LE(sim.now(), kFirstHorizon);
    EXPECT_TRUE(sim.done()) << "the parked fault head must not count as pending";
    const std::size_t first_crashes = sim.report_at(kFirstHorizon).crashes;
    EXPECT_GT(first_crashes, 0u);
    const std::size_t first_faults = faults;

    horizon = kSecondHorizon;
    sim.set_duration(kSecondHorizon);
    EXPECT_FALSE(sim.done()) << "a longer horizon must re-admit the fault head";
    sim.run();  // terminates: the stream is clipped again at the new horizon
    EXPECT_GT(sim.now(), kFirstHorizon);
    EXPECT_LE(sim.now(), kSecondHorizon);
    EXPECT_TRUE(sim.done());
    EXPECT_FALSE(sim.step());
    const std::size_t second_crashes = sim.report_at(kSecondHorizon).crashes;
    EXPECT_GT(second_crashes, first_crashes);
    if (v.tap) {
      EXPECT_EQ(late, 0u);
      EXPECT_GT(faults, first_faults);
    }
    crashes_per_variant.push_back(second_crashes);
  }
  EXPECT_EQ(crashes_per_variant.front(), crashes_per_variant.back());
}

}  // namespace
}  // namespace rapid
