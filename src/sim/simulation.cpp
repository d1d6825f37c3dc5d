#include "sim/simulation.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "fault/fault_model.h"
#include "sim/shard_exec.h"
#include "sim/shard_plan.h"
#include "util/binio.h"

namespace rapid {

namespace {

class WorkloadSource : public EventSource {
 public:
  explicit WorkloadSource(const PacketPool& workload) : packets_(&workload.all()) {}

  const SimEvent* peek() override {
    if (next_ >= packets_->size()) return nullptr;
    const Packet& p = (*packets_)[next_];
    event_.kind = SimEvent::Kind::kPacket;
    event_.time = p.created;
    event_.packet = &p;
    return &event_;
  }

  void pop() override { ++next_; }

 private:
  const std::vector<Packet>* packets_;
  std::size_t next_ = 0;
  SimEvent event_;
};

class ScheduleSource : public EventSource {
 public:
  explicit ScheduleSource(const MeetingSchedule& schedule) : schedule_(&schedule) {}

  const SimEvent* peek() override {
    if (next_ >= schedule_->size()) return nullptr;
    const Meeting& m = schedule_->meetings()[next_];
    event_.kind = SimEvent::Kind::kMeeting;
    event_.time = m.time;
    event_.meeting = m;
    return &event_;
  }

  void pop() override { ++next_; }

 private:
  const MeetingSchedule* schedule_;
  std::size_t next_ = 0;
  SimEvent event_;
};

// Pulls contacts from a MobilityModel one at a time; enforces the model's
// non-decreasing-time contract so a misbehaving model fails loudly instead
// of corrupting the deterministic merge.
class MobilityEventSource : public EventSource {
 public:
  explicit MobilityEventSource(MobilityModel& model) : model_(&model) {}
  explicit MobilityEventSource(std::unique_ptr<MobilityModel> model)
      : owned_(std::move(model)), model_(owned_.get()) {
    if (model_ == nullptr)
      throw std::invalid_argument("make_mobility_source: null model");
  }

  const SimEvent* peek() override {
    RAPID_OBS_PHASE(kMobility);  // lazy generation happens inside peek()
    const Meeting* m = model_->peek();
    if (m == nullptr) return nullptr;
    if (m->time < last_time_)
      throw std::logic_error("MobilityModel emitted meetings out of time order");
    event_.kind = SimEvent::Kind::kMeeting;
    event_.time = m->time;
    event_.meeting = *m;
    return &event_;
  }

  void pop() override {
    RAPID_OBS_PHASE(kMobility);
    RAPID_OBS_INC(kMobilityPops);
    const Meeting* m = model_->peek();
    if (m != nullptr) last_time_ = m->time;
    model_->pop();
  }

 private:
  std::unique_ptr<MobilityModel> owned_;
  MobilityModel* model_;
  Time last_time_ = 0;
  SimEvent event_;
};

}  // namespace

std::unique_ptr<EventSource> make_workload_source(const PacketPool& workload) {
  return std::make_unique<WorkloadSource>(workload);
}

std::unique_ptr<EventSource> make_schedule_source(const MeetingSchedule& schedule) {
  return std::make_unique<ScheduleSource>(schedule);
}

std::unique_ptr<EventSource> make_mobility_source(MobilityModel& model) {
  return std::make_unique<MobilityEventSource>(model);
}

std::unique_ptr<EventSource> make_mobility_source(std::unique_ptr<MobilityModel> model) {
  return std::make_unique<MobilityEventSource>(std::move(model));
}

// Everything the sharded path owns: the node-range plan, the persistent
// worker crew, per-slot accounting state (one slot per shard plus one for
// the coordinator's cross-shard dispatches), and the reusable window
// buffers. Slot metrics/arena are installed thread-locally around each
// dispatch (ShardBindingScope), so routers accrue into their shard's
// private state; merge_shard_state() drains everything back into the run's
// collectors when a sharded run()/run_until() returns — between public
// calls the Simulation is indistinguishable from a serial one.
struct Simulation::ShardRuntime {
  struct Slot {
    MetricsCollector metrics;
    ScratchArena arena;
    std::unique_ptr<obs::ObsContext> obs;
    ShardBindings bindings;
  };

  ShardPlan plan;
  ShardExecutor exec;
  std::vector<Slot> slots;  // size num_shards + 1; last = coordinator
  obs::ObsConfig slot_obs_config;
  std::vector<ShardExecutor::Item> items;
  bool dirty = false;  // a window ran since the last merge

  ShardRuntime(const ShardPlan& p, const PacketPool& pool, const obs::ObsConfig& obs_config)
      : plan(p), exec(p.num_shards()) {
    // Worker probes merge into the run's registry at drain time; traces stay
    // on the serial path (use_sharding() falls back when tracing is on).
    slot_obs_config.profile = obs_config.profile;
    slot_obs_config.trace_capacity = 0;
    slots.resize(static_cast<std::size_t>(p.num_shards()) + 1);
    for (Slot& slot : slots) {
      slot.metrics.begin(pool);
      slot.obs = std::make_unique<obs::ObsContext>(slot_obs_config);
      slot.bindings.metrics = &slot.metrics;
      slot.bindings.arena = &slot.arena;
    }
  }
};

Simulation::~Simulation() = default;

Simulation::Simulation(const MeetingSchedule& schedule, const PacketPool& workload,
                       const RouterFactory& factory, const SimConfig& config)
    : Simulation(&schedule, SimBounds{schedule.num_nodes, schedule.duration}, workload,
                 factory, config) {}

Simulation::Simulation(SimBounds bounds, const PacketPool& workload,
                       const RouterFactory& factory, const SimConfig& config)
    : Simulation(nullptr, bounds, workload, factory, config) {}

Simulation::Simulation(const MeetingSchedule* schedule, SimBounds bounds,
                       const PacketPool& workload, const RouterFactory& factory,
                       const SimConfig& config)
    : schedule_(schedule),
      workload_(workload),
      config_(config),
      num_nodes_(bounds.num_nodes),
      duration_(bounds.duration),
      obs_(config.obs) {
  if (schedule_ != nullptr && !schedule_->is_sorted())
    throw std::invalid_argument("Simulation: schedule must be sorted");
  if (num_nodes_ < 1) throw std::invalid_argument("Simulation: need >= 1 node");

  // Materialized runs know their totals up front (clamped to the horizon,
  // since step() never dispatches past-duration meetings); streaming runs
  // accrue them per dispatched meeting. The two paths agree for any schedule,
  // tail included.
  if (schedule_ != nullptr)
    metrics_.begin(workload, *schedule_, duration_);
  else
    metrics_.begin(workload);
  ctx_.pool = &workload_;
  ctx_.metrics = &metrics_;
  ctx_.num_nodes = num_nodes_;
  oracle_.reset(num_nodes_);
  ctx_.oracle = &oracle_;
  ctx_.arena = &arena_;

  routers_.reserve(static_cast<std::size_t>(num_nodes_));
  for (NodeId n = 0; n < num_nodes_; ++n) {
    routers_.push_back(factory(n, ctx_));
    oracle_.set(n, routers_.back().get());
  }

  // Registration order is the tie-break order: packets before meetings.
  sources_.push_back(make_workload_source(workload_));
  if (schedule_ != nullptr) {
    sources_.push_back(make_schedule_source(*schedule_));
    schedule_source_ = sources_.size() - 1;
  }
  // The fault source registers after the built-ins and before any
  // caller-added feed, on both the fresh and the restoring side, so the
  // source layout (and with it the tie-break order) is a pure function of
  // the config.
  if (config_.node_faults.enabled()) {
    sources_.push_back(make_fault_source(config_.node_faults, num_nodes_));
    fault_source_ = sources_.size() - 1;
    node_up_.assign(static_cast<std::size_t>(num_nodes_), 1);
  }
}

void Simulation::add_event_source(std::unique_ptr<EventSource> source) {
  if (source == nullptr)
    throw std::invalid_argument("Simulation::add_event_source: null source");
  sources_.push_back(std::move(source));
}

void Simulation::add_tap(MetricTap tap) { taps_.push_back(std::move(tap)); }

std::optional<Simulation::Next> Simulation::peek_next() {
  RAPID_OBS_PHASE(kWheelAdvance);
  std::optional<Next> best;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const SimEvent* event = sources_[i]->peek();
    if (event == nullptr) continue;
    // The fault stream is unbounded; clip it at the horizon here instead of
    // letting the skip loop pop crash events forever. Because the clip is
    // re-evaluated on every pick, set_duration() re-admits the parked head.
    if (i == fault_source_ && event->time > duration_) continue;
    // Strict less-than keeps the earliest-registered source on ties.
    if (!best.has_value() || event->time < best->event->time) best = Next{i, event};
  }
  return best;
}

// Pump order IS the serial dispatch order, and pump-ahead admission reads
// only the up/down mask — which only pumped fault events mutate — so any
// batch or window shape dispatches exactly what the one-event loop would.
void Simulation::pump_batch(Time limit, Time span, std::size_t max_events) {
  batch_.clear();
  while (batch_.size() < max_events) {
    const std::optional<Next> next = peek_next();
    if (!next.has_value() || next->event->time > limit) break;
    Pumped pumped{*next->event, next->source};
    sources_[next->source]->pop();
    // Events past the day end are dropped, exactly like the legacy merge loop
    // (a day's stragglers carry no weight in the figures).
    if (pumped.event.time > duration_) {
      RAPID_OBS_INC(kSimEventsSkipped);
      continue;
    }
    if (!admit_event(pumped.event, pumped.source)) continue;
    if (pumped.event.kind == SimEvent::Kind::kMeeting) pumped.meeting_index = meeting_index_++;
    if (batch_.empty() && span > 0) limit = std::min(limit, pumped.event.time + span);
    batch_.push_back(pumped);
  }
}

bool Simulation::admit_event(const SimEvent& event, std::size_t source) {
  if (node_up_.empty()) return true;  // node faults disabled
  switch (event.kind) {
    case SimEvent::Kind::kFault:
      node_up_[static_cast<std::size_t>(event.fault.node)] = event.fault.up ? 1 : 0;
      return true;  // router-side effects run at dispatch
    case SimEvent::Kind::kPacket:
      if (node_up(event.packet->src)) return true;
      // Generated at a dead node: the packet is lost before it ever exists
      // in any buffer (it stays in the pool and counts as undelivered).
      metrics_.record_fault_lost_packet();
      RAPID_OBS_INC(kFaultPacketsLost);
      return false;
    case SimEvent::Kind::kMeeting: {
      const Meeting& m = event.meeting;
      if (node_up(m.a) && node_up(m.b)) return true;
      // The opportunity existed; a dead endpoint just missed it. Counting
      // it keeps streamed totals consistent with pre-counted materialized
      // ones (which cannot know which meetings a crash will suppress).
      if (source != schedule_source_) metrics_.record_meeting(m.capacity);
      metrics_.record_suppressed_meeting();
      RAPID_OBS_INC(kFaultMeetingsSuppressed);
      return false;
    }
  }
  return true;
}

void Simulation::apply_fault_effects(const FaultEvent& fault, MetricsCollector& metrics) {
  if (fault.up) {
    // Recovery: the node rejoins with whatever state survived the crash —
    // meeting estimates and metadata views are stale until contacts refresh
    // them, which is the point of the experiment.
    metrics.record_recovery();
    RAPID_OBS_INC(kFaultRecoveries);
    RAPID_OBS_TRACE(kNodeRecover, fault.time, fault.node, kNoNode, kNoPacket, 0);
    return;
  }
  metrics.record_crash();
  RAPID_OBS_INC(kFaultCrashes);
  RAPID_OBS_TRACE(kNodeCrash, fault.time, fault.node, kNoNode, kNoPacket,
                  config_.node_faults.drop_buffers ? 1 : 0);
  routers_[static_cast<std::size_t>(fault.node)]->on_crash(
      config_.node_faults.drop_buffers, fault.time);
}

void Simulation::route(const Pumped& pumped, MetricsCollector& metrics) {
  const SimEvent& event = pumped.event;
  if (event.kind == SimEvent::Kind::kPacket) {
    RAPID_OBS_INC(kSimEventsPacket);
    RAPID_OBS_PHASE(kPacketGen);
    routers_[static_cast<std::size_t>(event.packet->src)]->on_generate(*event.packet);
  } else if (event.kind == SimEvent::Kind::kFault) {
    RAPID_OBS_INC(kSimEventsFault);
    apply_fault_effects(event.fault, metrics);
  } else {
    RAPID_OBS_INC(kSimEventsMeeting);
    const Meeting& m = event.meeting;
    // Capacity/meeting totals accrue per dispatched meeting for every source
    // except the built-in schedule, whose totals were pre-counted by
    // metrics_.begin() — streamed and injected opportunities are counted the
    // moment they happen.
    if (pumped.source != schedule_source_) metrics.record_meeting(m.capacity);
    run_contact(*routers_[static_cast<std::size_t>(m.a)],
                *routers_[static_cast<std::size_t>(m.b)], m, pumped.meeting_index,
                config_.contact, workload_, metrics);
  }
}

void Simulation::dispatch(const Pumped& pumped) {
  const SimEvent& event = pumped.event;
  now_ = event.time;
  if (event.kind == SimEvent::Kind::kPacket) {
    RAPID_OBS_TRACE(kPacketCreate, now_, event.packet->src, event.packet->dst,
                    event.packet->id, event.packet->size);
  }
  route(pumped, metrics_);
  for (const MetricTap& tap : taps_) tap(event, metrics_);
}

Time Simulation::dispatch_span() const {
  // Per-event observers (taps, the trace ring) see metrics in per-event
  // order; pump-ahead admission would reorder suppression counts relative
  // to their tap callbacks, so such runs batch one event at a time — the
  // same fallback the sharded path takes.
  if (!taps_.empty() || config_.obs.trace_capacity > 0) return 0;
  return config_.dispatch_batch > 0 ? config_.dispatch_batch : 0;
}

// Drains one dispatch batch: the first runnable event anchors it, and every
// admitted event within dispatch_span() sim-seconds of that anchor (and
// <= limit) is pumped, then dispatched in pump order — bit-identical to the
// classic one-event loop for any span (see pump_batch).
bool Simulation::step_batch(Time limit) {
  const Time span = dispatch_span();
  pump_batch(limit, span, span > 0 ? std::numeric_limits<std::size_t>::max() : 1);
  if (batch_.empty()) return false;
  for (const Pumped& pumped : batch_) dispatch(pumped);
  return true;
}

bool Simulation::step() {
  const obs::ContextScope obs_scope(&obs_);
  RAPID_OBS_PHASE(kDispatch);
  return step_batch(kTimeInfinity);
}

void Simulation::run_until(Time t) {
  if (use_sharding()) {
    run_until_sharded(t);
    return;
  }
  const obs::ContextScope obs_scope(&obs_);
  const std::uint64_t start = obs_.profile.enabled ? obs::monotonic_ns() : 0;
  {
    RAPID_OBS_PHASE(kDispatch);
    while (step_batch(t)) {
    }
  }
  if (obs_.profile.enabled) obs_.profile.total_ns += obs::monotonic_ns() - start;
}

void Simulation::run() { run_until(kTimeInfinity); }

// --- sharded execution ----------------------------------------------------------

bool Simulation::use_sharding() const {
  if (config_.sim_threads <= 1 || num_nodes_ < 2) return false;
  // Per-event observers see the serial dispatch order; honoring them forces
  // the serial loop (documented on SimConfig::sim_threads).
  if (!taps_.empty() || config_.obs.trace_capacity > 0) return false;
  for (const auto& router : routers_)
    if (!router->shard_safe()) return false;
  return true;
}

void Simulation::ensure_shard_runtime() {
  if (shard_ != nullptr) return;
  const ShardPlan plan = ShardPlan::make(num_nodes_, config_.sim_threads);
  shard_ = std::make_unique<ShardRuntime>(plan, workload_, config_.obs);
}

// The serial window pump: pulls each window through the same pump_batch as
// the serial loop (same merge, tie-breaks, past-duration skips, admission
// and meeting numbering), then hands it to the barrier executor. Because
// every per-event decision that orders or numbers events is made here,
// single-threaded, the shards only ever see the serial per-node order —
// which is what makes the whole path bit-identical. A fault event's
// router-side effects still execute in the window, ordered against the
// node's meetings by the executor.
void Simulation::run_until_sharded(Time t) {
  const obs::ContextScope obs_scope(&obs_);
  const std::uint64_t start = obs_.profile.enabled ? obs::monotonic_ns() : 0;
  ensure_shard_runtime();
  const std::size_t window = static_cast<std::size_t>(
      config_.shard_window > 0 ? config_.shard_window : 1);
  // Windows ride the dispatch-batch spans: a span boundary cuts the window
  // early, so batched and sharded runs cut at the same boundaries. Any
  // window boundary is bit-identity-safe (the executor is order-correct for
  // every windowing).
  const Time span = dispatch_span();
  while (true) {
    {
      RAPID_OBS_PHASE(kDispatch);
      pump_batch(t, span, window);
    }
    if (batch_.empty()) break;
    execute_window();
    now_ = batch_.back().event.time;
  }
  merge_shard_state();
  if (obs_.profile.enabled) obs_.profile.total_ns += obs::monotonic_ns() - start;
}

void Simulation::execute_window() {
  ShardRuntime& rt = *shard_;
  rt.items.clear();
  rt.items.reserve(batch_.size());
  std::uint64_t cross = 0;
  for (const Pumped& pumped : batch_) {
    const SimEvent& event = pumped.event;
    ShardExecutor::Item item;
    if (event.kind == SimEvent::Kind::kPacket) {
      item.shard_a = item.shard_b = rt.plan.shard_of(event.packet->src);
    } else if (event.kind == SimEvent::Kind::kFault) {
      item.shard_a = item.shard_b = rt.plan.shard_of(event.fault.node);
    } else {
      item.shard_a = rt.plan.shard_of(event.meeting.a);
      item.shard_b = rt.plan.shard_of(event.meeting.b);
      if (item.shard_a != item.shard_b) ++cross;
    }
    rt.items.push_back(item);
  }
  RAPID_OBS_INC(kShardWindows);
  RAPID_OBS_ADD(kShardCrossMeetings, cross);
  (void)cross;  // counted for obs only; no-op when RAPID_OBS=OFF
  rt.dirty = true;
  // The coordinator's exclusive time inside the executor — cross-shard
  // dispatch plus barrier waits — lands in kShardSync; the shards' own work
  // lands in their slot profiles (kDispatch etc.) and merges at drain time.
  RAPID_OBS_PHASE(kShardSync);
  rt.exec.run_window(rt.items,
                     [this](std::size_t index, int slot) { dispatch_shard_item(index, slot); });
}

void Simulation::dispatch_shard_item(std::size_t index, int slot) {
  ShardRuntime::Slot& sl = shard_->slots[static_cast<std::size_t>(slot)];
  const obs::ContextScope obs_scope(sl.obs.get());
  const ShardBindingScope bindings(&sl.bindings);
  RAPID_OBS_PHASE(kDispatch);
  route(batch_[index], sl.metrics);
}

void Simulation::merge_shard_state() {
  if (shard_ == nullptr || !shard_->dirty) return;
  for (ShardRuntime::Slot& slot : shard_->slots) {
    metrics_.drain_from(slot.metrics);
    obs_.metrics.merge(slot.obs->metrics);
    obs_.profile.merge(slot.obs->profile);
    slot.obs = std::make_unique<obs::ObsContext>(shard_->slot_obs_config);
  }
  shard_->dirty = false;
}

bool Simulation::done() const {
  // Events past the day end will be skipped by step(), and source times are
  // non-decreasing, so a source whose next event is past the duration is
  // effectively drained.
  for (const auto& source : sources_) {
    const SimEvent* event = source->peek();
    if (event != nullptr && event->time <= duration_) return false;
  }
  return true;
}

void Simulation::save_state(BinWriter& out) {
  out.tag("SIMU");
  out.f64(now_);
  out.i64(meeting_index_);
  // The up/down mask is live state: the fault source itself is deterministic
  // and gets fast-forwarded, but the transitions it already emitted are
  // only recorded here.
  out.u64(node_up_.size());
  for (std::uint8_t up : node_up_) out.u8(up);
  metrics_.save(out);
  out.u64(routers_.size());
  for (const auto& router : routers_) router->save_state(out);
}

void Simulation::load_state(BinReader& in) {
  in.expect_tag("SIMU");
  now_ = in.f64();
  meeting_index_ = static_cast<int>(in.i64());
  if (in.u64() != node_up_.size())
    BinReader::fail("fault configuration differs from the snapshot's");
  for (std::uint8_t& up : node_up_) up = in.u8();
  metrics_.load(in);
  if (in.u64() != routers_.size())
    BinReader::fail("fleet size differs from the snapshot's");
  for (const auto& router : routers_) router->load_state(in);
}

void Simulation::fast_forward_sources(Time cutoff) {
  // Per-source skipping is equivalent to replaying the merge: run_until pops
  // every event with time <= cutoff from every source, in whatever order —
  // including past-duration events, which it pops and then skips.
  const obs::ContextScope obs_scope(&obs_);
  for (const auto& source : sources_) {
    while (true) {
      const SimEvent* event = source->peek();
      if (event == nullptr || event->time > cutoff) break;
      source->pop();
    }
  }
}

SimResult Simulation::finish() const {
  // Routers flush their internal probe counters (utility-cache hit/miss
  // tallies etc.) here, while they are still alive — they are destroyed
  // after finish(), which is why the flush cannot live in their destructors.
  for (const auto& router : routers_) router->flush_obs(obs_);
  SimResult result = metrics_.finalize(workload_, duration_);
  result.obs = std::make_shared<const obs::ObsReport>(obs_.report());
  return result;
}

}  // namespace rapid
