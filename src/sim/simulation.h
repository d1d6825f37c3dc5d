// The event-driven simulation core.
//
// A Simulation replaces the old one-shot run_simulation() loop with an
// explicit object: an event queue merged from pluggable EventSources
// (packet-generation and meeting sources are built in; streaming feeds can
// be added), advanced with step() / run_until(t), observed mid-run through
// metric taps, and finished into the SimResult the figures are built from.
// The legacy run_simulation() in sim/engine.h is a thin wrapper: construct,
// run(), finish().
//
// Meetings reach the engine one of two ways:
//   * materialized — a sorted MeetingSchedule, cursor-walked by the built-in
//     schedule source (capacity totals are known up front);
//   * streaming — a MobilityModel (mobility/mobility_model.h) pulled one
//     contact at a time through a MobilityEventSource, so peak memory never
//     scales with the total contact count. Capacity/meeting totals accrue
//     per dispatched meeting; for full runs of generator-produced mobility
//     the two paths produce bit-identical SimResults (dual-path tested).
//
// Determinism contract: an event is taken from the earliest-time source,
// ties broken by registration order. The built-in workload source registers
// before the meeting source, which reproduces the legacy merge rule "a
// packet created at time t is generated before a meeting at time t". The
// event core is a plain poll over every source per event: a run has two or
// three (workload; schedule, mobility or ingest feed; one fleet-wide fault
// source when node faults are on), so the scan is a handful of compares.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dtn/contact_session.h"
#include "dtn/metrics.h"
#include "dtn/packet.h"
#include "dtn/router.h"
#include "dtn/schedule.h"
#include "fault/fault_config.h"
#include "mobility/mobility_model.h"
#include "obs/obs.h"

namespace rapid {

struct SimConfig {
  // Buffer capacity is a router property (captured by the factory); the
  // engine itself only needs the contact policy (which includes the link
  // interruption/asymmetry policy).
  ContactConfig contact;
  // Observability knobs for this run (profiling clock, trace capacity).
  // Counters are always collected (they cost an array increment); the
  // defaults keep clocks and tracing off.
  obs::ObsConfig obs;
  // In-run parallelism: > 1 partitions the fleet into that many contiguous
  // node-range shards (sim/shard_plan.h) and runs each window of events
  // through per-shard workers under the safe-horizon barrier of
  // sim/shard_exec.h. Bit-identical to serial for every protocol (the shard
  // differential matrix enforces it); runs serially regardless when the
  // protocol is not shard-safe (global-oracle control channel), when taps
  // or tracing observe per-event order, or when the fleet is too small to
  // split. Snapshots are thread-count independent.
  int sim_threads = 1;
  // Events per pumped window on the sharded path. Smaller windows mean more
  // barriers; larger ones batch more parallel work. The default amortizes
  // barrier cost at typical contact rates; tests shrink it to force many
  // window boundaries.
  int shard_window = 4096;
  // Node crash/recover fault injection (fault/fault_config.h). When enabled,
  // the Simulation registers a fault event source itself (after the
  // built-ins, before any caller-added feed): crashed nodes miss their
  // contacts and generate nothing, their buffers are dropped or preserved
  // per policy, and recovering nodes rejoin with stale routing state. The
  // default leaves nodes immortal and adds zero hot-path cost.
  NodeFaultConfig node_faults;
  // Batched contact dispatch: when > 0, step() drains every event within
  // this many sim-seconds of the batch's first event into a flat span, then
  // dispatches them in pump order. 0 (default) dispatches per event, the
  // classic loop. Results are bit-identical for
  // any span: pump order is dispatch order, and pump-ahead admission reads
  // only the fault mask, exactly like the sharded window pump. Runs with
  // per-event observers (taps, trace ring) fall back to span 0 so those
  // observers keep seeing per-event metric order. Sharded windows cut at
  // the same span boundaries.
  Time dispatch_batch = 0;
};

struct SimEvent {
  enum class Kind { kPacket, kMeeting, kFault };
  Kind kind = Kind::kPacket;
  Time time = 0;
  const Packet* packet = nullptr;  // kPacket
  Meeting meeting;                 // kMeeting
  FaultEvent fault;                // kFault
};

// A time-ordered stream of events. peek() returns the next event (stable
// until pop()) or null when drained; times must be non-decreasing.
class EventSource {
 public:
  virtual ~EventSource() = default;
  virtual const SimEvent* peek() = 0;
  virtual void pop() = 0;
};

// Built-in sources, exposed so tests and custom drivers can compose them.
std::unique_ptr<EventSource> make_workload_source(const PacketPool& workload);
std::unique_ptr<EventSource> make_schedule_source(const MeetingSchedule& schedule);
// Adapts a streaming MobilityModel into a kMeeting event source. The
// borrowing overload leaves ownership with the caller (who must keep the
// model alive for the run); the owning overload carries it.
std::unique_ptr<EventSource> make_mobility_source(MobilityModel& model);
std::unique_ptr<EventSource> make_mobility_source(std::unique_ptr<MobilityModel> model);

// The experiment horizon and fleet size a Simulation needs when there is no
// materialized schedule to read them from.
struct SimBounds {
  int num_nodes = 0;
  Time duration = 0;
};

class Simulation {
 public:
  // Invoked after each processed event; the collector gives mid-run access to
  // deliveries/bytes without waiting for finish().
  using MetricTap = std::function<void(const SimEvent&, const MetricsCollector&)>;

  // Materialized path: the schedule is the built-in meeting source.
  Simulation(const MeetingSchedule& schedule, const PacketPool& workload,
             const RouterFactory& factory, const SimConfig& config);

  // Streaming path: no schedule exists; meetings arrive through the mobility
  // source (add one with add_event_source(make_mobility_source(...)) — the
  // run_simulation overload in sim/engine.h does this for you). Capacity and
  // meeting-count metrics accrue per dispatched meeting.
  Simulation(SimBounds bounds, const PacketPool& workload, const RouterFactory& factory,
             const SimConfig& config);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();  // out of line: ShardRuntime is an implementation detail

  // Extra event feeds beyond the built-ins; add before stepping. Events past
  // the duration are skipped like the built-ins' are.
  void add_event_source(std::unique_ptr<EventSource> source);
  void add_tap(MetricTap tap);

  // Processes the next dispatch batch — one event when dispatch_batch is 0
  // (the default), otherwise every event within that span of the first —
  // and returns false when every source is drained.
  bool step();
  // Processes all events with time <= t (and leaves later ones queued).
  void run_until(Time t);
  // Drains every source: run_until(kTimeInfinity).
  void run();

  // Time of the last processed event (0 before the first step).
  Time now() const { return now_; }
  bool done() const;
  int meetings_run() const { return meeting_index_; }
  Time duration() const { return duration_; }
  int num_nodes() const { return num_nodes_; }
  // Open-ended drivers (the service engine) move the horizon as contacts
  // stream in; events past the current duration are skipped, exactly as on a
  // fixed-horizon run. The unbounded fault stream is clipped at the
  // current horizon on every pick, so a longer horizon re-admits it.
  void set_duration(Time duration) { duration_ = duration; }

  Router& router(NodeId node) { return *routers_[static_cast<std::size_t>(node)]; }
  const MetricsCollector& metrics() const { return metrics_; }

  // Fault-injection view: whether `node` is currently up (always true when
  // node faults are disabled).
  bool node_up(NodeId node) const {
    return node_up_.empty() || node_up_[static_cast<std::size_t>(node)] != 0;
  }

  // This run's observability context (counters, trace ring, phase profile).
  // Installed thread-locally around every step; mutable so the const
  // finish() can flush router-side probes into it.
  obs::ObsContext& obs() const { return obs_; }

  // Builds the aggregate SimResult (with the ObsReport attached). Call once,
  // after the run.
  SimResult finish() const;

  // Interim aggregate as of time `t`, without finishing the run (no obs
  // flush; the run continues unperturbed).
  SimResult report_at(Time t) const { return metrics_.report_at(workload_, t); }

  // --- snapshot/restore -------------------------------------------------------
  // Serializes clock, meeting counter, metrics and every router's state.
  // Must be called between events (contacts run to completion inside
  // dispatch, so there is never session state to capture). Deterministic
  // event sources are not serialized: the restoring side re-creates them
  // from the same inputs and fast-forwards.
  void save_state(BinWriter& out);
  // Restores into a freshly constructed simulation (same schedule/bounds,
  // workload, factory and config). Call fast_forward_sources afterwards with
  // the time the saved run had been driven to.
  void load_state(BinReader& in);
  // Drops every queued event with time <= cutoff from every source — the
  // events a run driven with run_until(cutoff) would already have consumed.
  void fast_forward_sources(Time cutoff);

 private:
  Simulation(const MeetingSchedule* schedule, SimBounds bounds, const PacketPool& workload,
             const RouterFactory& factory, const SimConfig& config);

  // (source index, event) of the next event to dispatch, or nullopt.
  struct Next {
    std::size_t source;
    const SimEvent* event;
  };
  // The event core: the earliest head over every source, ties to the
  // earliest-registered one; the fault source's head is clipped at the
  // current horizon.
  std::optional<Next> peek_next();

  // One pumped, admitted event awaiting dispatch, stamped with everything
  // the serial merge decides for it: its source (schedule meetings are
  // pre-counted) and its serial meeting index (-1 for non-meetings).
  struct Pumped {
    SimEvent event;
    std::size_t source = 0;
    int meeting_index = -1;
  };
  // The pump shared by the serial and sharded loops: refills batch_ with up
  // to max_events admitted events of time <= limit, in merge order, cutting
  // at the first event more than `span` sim-seconds past the batch's first
  // (span <= 0: no time cut). Past-duration events are popped and skipped.
  void pump_batch(Time limit, Time span, std::size_t max_events);
  // The router-side work of one pumped event, accrued into `metrics` (the
  // run's collector on the serial path, a shard slot's on the sharded one).
  void route(const Pumped& pumped, MetricsCollector& metrics);
  // Serial dispatch: route() plus the clock, the trace ring and the taps.
  void dispatch(const Pumped& pumped);

  // --- batched contact dispatch ---------------------------------------------
  // The effective batch span for this run: SimConfig::dispatch_batch, or 0
  // when per-event observers (taps, trace ring) must see per-event order.
  Time dispatch_span() const;
  // Drains one batch (every admitted event within dispatch_span() of the
  // first, times <= limit) and dispatches it in pump order; false when no
  // event was runnable. Span 0 = the classic one-event loop.
  bool step_batch(Time limit);

  // Pump-time half of fault handling, shared by the serial and sharded
  // loops: updates the up/down mask on kFault events and decides whether an
  // event is admitted for dispatch. Meetings with a down endpoint and
  // packets generated at a down node are suppressed here (a suppressed
  // meeting still counts as a transfer opportunity — the radios were
  // scheduled to meet; the node was just dead). Runs single-threaded in
  // serial event order on both paths, which is what keeps faulted runs
  // bit-identical across thread counts.
  bool admit_event(const SimEvent& event, std::size_t source);
  // Router-side crash/recover effects (buffer drop per policy, accounting);
  // runs where the event is dispatched, so the sharded path orders it with
  // the node's other events.
  void apply_fault_effects(const FaultEvent& fault, MetricsCollector& metrics);

  // --- sharded execution (sim/shard_plan.h, sim/shard_exec.h) ---------------
  // True when this run can use the sharded path: sim_threads > 1, a fleet
  // big enough to split, no per-event observers (taps, trace ring), and
  // every router shard-safe. Evaluated per run()/run_until() call.
  bool use_sharding() const;
  // The windowed pump + barrier loop; bit-identical to the serial loop.
  void run_until_sharded(Time t);
  void execute_window();
  void dispatch_shard_item(std::size_t index, int slot);
  void ensure_shard_runtime();
  void merge_shard_state();

  struct ShardRuntime;  // simulation.cpp

  const MeetingSchedule* schedule_ = nullptr;  // null on the streaming path
  // Index of the built-in schedule source, whose capacity/meeting totals are
  // pre-counted at begin(); meetings from every other source accrue into the
  // metrics as they dispatch. npos when constructed without a schedule.
  std::size_t schedule_source_ = static_cast<std::size_t>(-1);
  // Index of the fault source. Its stream is unbounded, so peek_next clips
  // it at the current duration instead of pop-and-skipping forever. npos
  // when node faults are disabled.
  std::size_t fault_source_ = static_cast<std::size_t>(-1);
  const PacketPool& workload_;
  SimConfig config_;
  int num_nodes_ = 0;
  Time duration_ = 0;

  MetricsCollector metrics_;
  mutable obs::ObsContext obs_;
  SimContext ctx_;
  RouterOracle oracle_;
  // Contact-processing scratch shared by this simulation's routers (contacts
  // run strictly sequentially, so one arena serves every node).
  ScratchArena arena_;
  std::vector<std::unique_ptr<Router>> routers_;

  std::vector<std::unique_ptr<EventSource>> sources_;
  std::vector<MetricTap> taps_;

  // The pumped events of the current batch (serial) or window (sharded),
  // reused across batches so the steady state allocates nothing.
  std::vector<Pumped> batch_;

  // Lazily built on the first sharded run()/run_until(); null on serial
  // runs. Owns the shard plan, the window executor and the per-slot
  // {metrics, arena, obs} state that merges back at call boundaries.
  std::unique_ptr<ShardRuntime> shard_;

  Time now_ = 0;
  int meeting_index_ = 0;
  // Per-node up/down mask, maintained at pump time by admit_event. Empty
  // when node faults are disabled (node_up() then answers true for free).
  std::vector<std::uint8_t> node_up_;
};

}  // namespace rapid
