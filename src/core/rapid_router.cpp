#include "core/rapid_router.h"

#include <algorithm>
#include <cmath>

#include "core/delay_estimator.h"
#include "obs/obs.h"
#include "util/binio.h"

namespace rapid {

RapidRouter::RapidRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
                         const RapidConfig& config, std::shared_ptr<GlobalChannel> global)
    : Router(self, buffer_capacity, ctx),
      config_(config),
      matrix_(self, ctx->num_nodes, config.max_hops),
      global_(std::move(global)),
      cache_(ctx->num_nodes) {
  if (config_.control == ControlChannelMode::kGlobalOracle && global_ == nullptr)
    throw std::invalid_argument("RapidRouter: global-oracle mode needs a GlobalChannel");
  // The workload pool is fully generated before the simulation starts, so
  // the per-packet slabs can be sized once instead of growing in churn.
  if (ctx->pool != nullptr) meta_.reserve_packets(ctx->pool->size());
  peers_.reserve(static_cast<std::size_t>(ctx->num_nodes));
}

std::size_t RapidRouter::peer_state_bytes() const { return peers_.bytes(); }

// --- queue maintenance -------------------------------------------------------

void RapidRouter::queue_insert(const Packet& p) {
  cache_.queue_insert(p.dst, UtilityCache::QueueEntry{p.created, p.id, p.size});
}

void RapidRouter::queue_erase(const Packet& p) {
  cache_.queue_erase(p.dst, UtilityCache::QueueEntry{p.created, p.id, p.size});
}

// --- inference ----------------------------------------------------------------

double RapidRouter::effective_meeting_time(NodeId node) const {
  if (node == self()) return 0;
  const Time e = matrix_.expected_meeting_time(self(), node);
  if (e == kTimeInfinity) return kTimeInfinity;  // unreachable within h hops
  return std::max(e, 1.0);
}

Bytes RapidRouter::expected_opportunity(NodeId peer) const {
  if (const PeerState* s = peers_.find(peer); s != nullptr && !s->opportunity.empty())
    return std::max<Bytes>(1, static_cast<Bytes>(s->opportunity.value()));
  if (!avg_opportunity_.empty())
    return std::max<Bytes>(1, static_cast<Bytes>(avg_opportunity_.value()));
  return config_.prior_opportunity_bytes;
}

RapidRouter::Located RapidRouter::locate(const Packet& p) const {
  // The three inputs of Algorithm 2, read back cheaply: queue prefix in
  // O(log n) from the flat storage (the same search finds p's memo slot),
  // opportunity average and memoized h-hop meeting time in O(1).
  const UtilityCache::Location at =
      cache_.locate(p.dst, UtilityCache::QueueEntry{p.created, p.id, p.size});
  return Located{UtilityCache::DelayInputs{at.bytes_ahead, expected_opportunity(p.dst),
                                           effective_meeting_time(p.dst)},
                 at.memo};
}

double RapidRouter::direct_delay(const Packet& p) const {
  // Algorithm 2: position the packet holds (or would take) in this node's
  // destination queue — insertion by age keeps the delivered-oldest-first
  // order, so the computation is identical whether or not p is stored here.
  const Located at = locate(p);
  return direct_delay_at(p, at.inputs, at.memo);
}

double RapidRouter::direct_delay_at(const Packet& p, const UtilityCache::DelayInputs& inputs,
                                    UtilityCache::Memo* memo) const {
  const auto compute = [&] {
    const std::size_t n = meetings_needed(inputs.bytes_ahead, p.size, inputs.opportunity);
    return direct_delivery_delay(n, inputs.meeting_time);
  };
  if (!config_.use_utility_cache) {
    cache_.note_eager_delay();
    return compute();
  }
  return cache_.direct_delay(memo, inputs, compute);
}

double RapidRouter::self_direct_delay(const Packet& p) const { return direct_delay(p); }

double RapidRouter::direct_delay_if_stored(const Packet& p) const { return direct_delay(p); }

double RapidRouter::replica_rate(const Packet& p) const {
  if (config_.control == ControlChannelMode::kGlobalOracle) {
    // True global state: depends on other nodes' queues, which this node's
    // generation counters cannot see — always evaluated fresh (each holder's
    // own delay estimate still comes from that holder's cache).
    cache_.note_eager_rate();
    double rate = 0;
    for (NodeId holder : global_->holders(p.id)) {
      const Router* r = ctx().oracle->at(holder);
      const auto* rr = dynamic_cast<const RapidRouter*>(r);
      if (rr == nullptr) continue;
      const double d = rr->self_direct_delay(p);
      if (d > 0 && d != kTimeInfinity) rate += 1.0 / d;
    }
    return rate;
  }

  const bool in_buffer = buffer().contains(p.id);
  // `self_inputs`/`self_memo` are p's Algorithm-2 inputs and memo slot here,
  // read only for the fresh self term of a buffered packet.
  const auto compute = [&](const UtilityCache::DelayInputs& self_inputs,
                           UtilityCache::Memo* self_memo) {
    double rate = 0;
    if (in_buffer) {
      const double d = direct_delay_at(p, self_inputs, self_memo);
      if (d > 0 && d != kTimeInfinity) rate += 1.0 / d;
    }
    for (const ReplicaEstimate& est : meta_.replicas(p.id)) {
      if (est.holder == self()) continue;  // always use the fresh self term
      if (est.direct_delay > 0 && est.direct_delay != kTimeInfinity)
        rate += 1.0 / est.direct_delay;
    }
    return rate;
  };
  if (!config_.use_utility_cache) {
    cache_.note_eager_rate();
    return compute(in_buffer ? locate(p).inputs : UtilityCache::DelayInputs{}, nullptr);
  }
  // The cache key already holds the self term's inputs: a miss reuses them
  // instead of deriving them a second time.
  const Located at = locate(p);
  const UtilityCache::RateInputs inputs{at.inputs, meta_.generation(p.id), in_buffer};
  return cache_.rate(at.memo, inputs, [&] { return compute(at.inputs, at.memo); });
}

double RapidRouter::expected_total_delay_of(const Packet& p, Time now) const {
  return expected_total_delay(p.age(now), replica_rate(p), config_.utility);
}

double RapidRouter::utility_of(const Packet& p, Time now) const {
#if RAPID_OBS_ENABLED
  // Utility-recompute trace events: the cache decides hit-vs-recompute
  // internally, so a traced run watches its per-cache stats across the
  // evaluation and emits one event per estimator that had to recompute
  // (value 0 = delay path, 1 = rate path). Two counter reads when tracing;
  // nothing otherwise.
  obs::ObsContext* obs_ctx = obs::current();
  const bool traced = obs_ctx != nullptr && obs_ctx->trace.enabled();
  const std::uint64_t delay_before = traced ? cache_.stats().delay_recomputes : 0;
  const std::uint64_t rate_before = traced ? cache_.stats().rate_recomputes : 0;
#endif
  const double utility =
      packet_utility(config_.metric, replica_rate(p), p.age(now),
                     p.deadline == kTimeInfinity ? kTimeInfinity : p.deadline - now,
                     config_.utility);
#if RAPID_OBS_ENABLED
  if (traced) {
    const UtilityCacheStats& s = cache_.stats();
    if (s.delay_recomputes != delay_before)
      obs_ctx->trace.emit(
          {now, obs::TraceEventKind::kUtilityRecompute, self(), kNoNode, p.id, 0});
    if (s.rate_recomputes != rate_before)
      obs_ctx->trace.emit(
          {now, obs::TraceEventKind::kUtilityRecompute, self(), kNoNode, p.id, 1});
  }
#endif
  return utility;
}

double RapidRouter::marginal_for(const Packet& p, RapidRouter* rapid_peer,
                                 const PeerView& peer, Time now) const {
  double d_new = kTimeInfinity;
  if (rapid_peer != nullptr) {
    d_new = rapid_peer->direct_delay_if_stored(p);
  } else {
    // Non-RAPID peer (mixed-protocol runs): fall back to our own matrix view
    // of the peer's meeting time and an empty-queue assumption.
    const Time e = matrix_.expected_meeting_time(peer.self(), p.dst);
    const double eff = (e == kTimeInfinity) ? kTimeInfinity : std::max(e, 1.0);
    d_new = direct_delivery_delay(meetings_needed(0, p.size, expected_opportunity(p.dst)), eff);
  }
  const double remaining =
      p.deadline == kTimeInfinity ? kTimeInfinity : p.deadline - now;
  return marginal_utility(config_.metric, replica_rate(p), d_new, p.age(now), remaining,
                          config_.utility);
}

// --- lifecycle hooks -----------------------------------------------------------

bool RapidRouter::on_generate(const Packet& p) {
  if (!Router::on_generate(p)) return false;
  queue_insert(p);
  meta_.update_replica(p.id, ReplicaEstimate{self(), self_direct_delay(p), p.created});
  if (global_ != nullptr) global_->add_holder(p.id, self());
  return true;
}

void RapidRouter::on_stored(const Packet& p, NodeId /*from*/, std::int64_t /*aux*/,
                            Time now) {
  queue_insert(p);
  meta_.update_replica(p.id, ReplicaEstimate{self(), self_direct_delay(p), now});
  if (global_ != nullptr) global_->add_holder(p.id, self());
}

void RapidRouter::on_dropped(const Packet& p, Time now) {
  queue_erase(p);  // the packet's memo slot goes with its queue entry
  meta_.remove_replica(p.id, self(), now);
  if (global_ != nullptr) global_->remove_holder(p.id, self());
}

void RapidRouter::on_acked(const Packet& p, Time /*now*/) {
  queue_erase(p);
  meta_.forget_packet(p.id);
  if (global_ != nullptr) global_->remove_holder(p.id, self());
}

void RapidRouter::on_delivered_here(const Packet& p, Time now) {
  if (config_.control != ControlChannelMode::kGlobalOracle) return;
  // Instant global acknowledgment: every node purges its copy immediately.
  global_->mark_delivered(p.id);
  const RouterOracle& oracle = *ctx().oracle;
  for (NodeId n = 0; n < oracle.size(); ++n) {
    Router* r = oracle.at(n);
    if (r == nullptr || r == this) continue;
    if (auto* rr = dynamic_cast<RapidRouter*>(r)) rr->learn_ack(p.id, now);
  }
}

// --- contact protocol -----------------------------------------------------------

void RapidRouter::observe_opportunity(Bytes capacity, NodeId peer, Time now) {
  (void)now;
  // A contact that carried no bytes is not a transfer-opportunity sample;
  // folding zeros into B would wildly inflate the meeting counts of Alg. 2.
  if (capacity <= 0) return;
  avg_opportunity_.add(static_cast<double>(capacity));
  peers_.find_or_insert(peer).opportunity.add(static_cast<double>(capacity));
}

void RapidRouter::broadcast_own_row(Time /*now*/) {
  const RouterOracle& oracle = *ctx().oracle;
  const MeetingMatrix::RowPtr& own = matrix_.share_row(self());
  for (NodeId n = 0; n < oracle.size(); ++n) {
    Router* r = oracle.at(n);
    if (r == nullptr || r == this) continue;
    if (auto* rr = dynamic_cast<RapidRouter*>(r))
      rr->matrix_.merge_row(self(), own);  // zero-copy: adopt the shared version
  }
}

Bytes RapidRouter::contact_begin(const PeerView& peer, Time now, Bytes meta_budget) {
  Router::contact_begin(peer, now, meta_budget);  // plan rebuilt lazily
  matrix_.observe_meeting(peer.self(), now);

  if (config_.control == ControlChannelMode::kGlobalOracle) {
    broadcast_own_row(now);
    return 0;  // the global channel is out of band
  }
  auto* rapid_peer = peer.as<RapidRouter>();
  if (rapid_peer == nullptr) return 0;
  return exchange_metadata(*rapid_peer, now, meta_budget);
}

Bytes RapidRouter::exchange_metadata(RapidRouter& peer, Time now, Bytes budget) {
  Bytes used = 0;
  const auto fits = [&](Bytes cost) { return used + cost <= budget; };
  const auto finish = [&]() -> Bytes {
    peers_.find_or_insert(peer.self()).last_sync = now;
    return used;
  };

  // Priority 1: scalar — average size of past transfer opportunities.
  if (fits(kScalarBytes)) used += kScalarBytes;

  // Priority 2: delivery acknowledgments (delta: only those the peer lacks).
  // The packed ack table is walked in place; learning into the peer never
  // perturbs our own entries.
  for (const AckTable::Entry& e : acks().entries()) {
    if (peer.knows_ack(e.id)) continue;
    if (!fits(kAckEntryBytes)) break;
    used += kAckEntryBytes;
    peer.learn_ack(e.id, e.when);
  }

  // Priority 3: meeting-time rows changed since the last exchange with this
  // peer (own observations and relayed rows alike). The wire size reads the
  // matrix's incrementally maintained finite-entry count instead of
  // re-scanning the row.
  const Time since = last_sync(peer.self());
  for (NodeId u = 0; u < matrix_.num_nodes(); ++u) {
    if (u == peer.self()) continue;
    const Time stamp = matrix_.row_stamp(u);
    if (stamp <= since) continue;
    const Bytes cost = kMeetingRowHeaderBytes +
                       kMeetingRowEntryBytes * static_cast<Bytes>(matrix_.finite_count(u));
    if (!fits(cost)) break;
    used += cost;
    ++rows_offered_;
    // Same-process gossip adopts the shared immutable row version: one
    // pointer assignment, no n-cell copy.
    if (peer.matrix_.merge_row(u, matrix_.share_row(u))) ++rows_merged_;
  }

  // Priorities 4 and 5: fresh estimates for our own buffered packets and
  // relayed third-party records changed since the last exchange, freshest
  // first, bounded by the relay budget (see RapidConfig). rapid-local mode
  // only ever describes this node's own buffer.
  const Bytes relay_budget =
      used + static_cast<Bytes>(config_.relay_budget_fraction * static_cast<double>(budget));
  const auto relay_fits = [&](Bytes cost) {
    return used + cost <= std::min(relay_budget, budget);
  };

  // Own-buffer estimates first ("for each of its own packets, the updated
  // delivery delay estimate based on current buffer state"). The flat queue
  // table iterates in ascending destination order — deterministic, unlike
  // the hash map it replaced.
  bool exhausted = false;
  cache_.for_each_queue([&](NodeId dst, const std::vector<UtilityCache::QueueEntry>& q,
                            UtilityCache::Memo* memos) {
    // One SoA-style pass per destination queue: the opportunity and h-hop
    // meeting-time terms are hoisted (they cannot move while the queue is
    // walked) and the Algorithm-2 byte prefix accumulates along the
    // age-sorted entries — the same values the per-packet O(log n) reads
    // would produce, derived once per queue instead of once per packet.
    // The terms are read only once the queue's first record fits: for a
    // queue the budget cannot reach, the h-hop query would force a
    // relaxation that is thrown away and repeated at plan build.
    const Bytes cost = kPacketRecordHeaderBytes + kReplicaEntryBytes;
    if (!relay_fits(cost)) {
      exhausted = true;
      return false;  // budget spent: stop walking the remaining queues
    }
    const Bytes opportunity = expected_opportunity(dst);
    const Time meeting = effective_meeting_time(dst);
    Bytes prefix = 0;
    for (std::size_t i = 0; i < q.size(); ++i) {
      const Packet& p = ctx().packet(q[i].id);
      if (!relay_fits(cost)) {
        exhausted = true;
        return false;
      }
      used += cost;
      const UtilityCache::DelayInputs inputs{prefix, opportunity, meeting};
      peer.meta_.update_replica(
          p.id, ReplicaEstimate{self(), direct_delay_at(p, inputs, &memos[i]), now});
      prefix += q[i].size;
    }
    return true;
  });
  if (exhausted) return finish();

  // Then relayed records ("information about other packets if modified
  // since last exchange with the peer"), freshest change first. The walk
  // fills the simulation-owned scratch arena, so steady-state contacts
  // allocate nothing.
  if (config_.control == ControlChannelMode::kInBand) {
    auto& changed = arena().changed;
    meta_.changed_since(since, changed);
    std::stable_sort(changed.begin(), changed.end(), [](const auto& a, const auto& b) {
      return a.second->last_changed > b.second->last_changed;
    });
    for (const auto& [id, record] : changed) {
      if (peer.knows_ack(id)) continue;
      if (buffer().contains(id)) continue;  // covered above
      const Bytes cost = MetadataStore::record_bytes(*record);
      if (!relay_fits(cost)) return finish();
      used += cost;
      for (const ReplicaEstimate& est : record->replicas) {
        if (est.holder == peer.self()) continue;
        peer.meta_.update_replica(id, est);
      }
    }
  }

  return finish();
}

void RapidRouter::build_contact_plan(const ContactContext& contact, const PeerView& peer) {
  mark_plan_built(peer.self());
  direct_order_.clear();
  direct_cursor_ = 0;
  replication_order_.clear();
  replication_cursor_ = 0;
  auto* rapid_peer = peer.as<RapidRouter>();
  const Time now = contact.now;

  // Step 2 — direct delivery, "in decreasing order of their utility":
  // oldest-first for the delay metrics (the order the maintained
  // per-destination queue already holds), most-urgent-viable-first for the
  // deadline metric.
  const auto& peer_queue = cache_.queue(peer.self());
  for (const UtilityCache::QueueEntry& e : peer_queue) direct_order_.push_back(e.id);
  if (config_.metric == RoutingMetric::kMissedDeadlines) {
    std::stable_sort(direct_order_.begin(), direct_order_.end(),
                     [&](PacketId a, PacketId b) {
                       const Packet& pa = ctx().packet(a);
                       const Packet& pb = ctx().packet(b);
                       const bool va = pa.deadline > now;
                       const bool vb = pb.deadline > now;
                       if (va != vb) return va;  // viable packets first
                       if (va) return pa.deadline < pb.deadline;  // most urgent first
                       return pa.created < pb.created;
                     });
  }

  // Step 3 — replication candidates scored once per contact. Replicating a
  // packet only changes that packet's own utility, so a single descending
  // order is work-conserving (see DESIGN.md). Candidates whose marginal
  // utility is zero (no known path to the destination yet, Eq. 1's
  // infinity - infinity case) form a second tier ordered by fewest believed
  // replicas, so spare bandwidth is still used rather than idled. The
  // expensive inputs of each score (rate sum, peer queue position) come from
  // the utility caches, so only packets whose inputs changed since the last
  // evaluation are recomputed.
  replication_order_.reserve(buffer().count());
  std::vector<Candidate>& fallback = fallback_scratch_;
  fallback.clear();
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    const Packet& p = ctx().packet(id);
    if (p.dst == peer.self()) return;  // handled by direct delivery
    if (knows_ack(id)) return;
    if (!peer_wants(peer, p)) return;
    if (config_.metric == RoutingMetric::kMissedDeadlines && p.deadline <= now)
      return;  // Eq. 2: a missed deadline contributes nothing
    const double marginal = marginal_for(p, rapid_peer, peer, now);
    Candidate c;
    c.id = id;
    if (marginal <= 0) {
      const double replicas = 1.0 + static_cast<double>(meta_.replicas(id).size());
      c.score = 1.0 / replicas - p.created * 1e-12;  // fewest replicas, then oldest
      fallback.push_back(c);
      return;
    }
    if (config_.metric == RoutingMetric::kMaxDelay) {
      // Eq. 3: only the packet with the maximum expected delay has utility;
      // evaluating in decreasing D(i) is the paper's work-conserving rule.
      c.score = expected_total_delay_of(p, now);
    } else {
      c.score = marginal / static_cast<double>(p.size);
    }
    replication_order_.push_back(c);
  });
  const auto by_score_desc = [](const Candidate& a, const Candidate& b) {
    return a.score > b.score;
  };
  std::stable_sort(replication_order_.begin(), replication_order_.end(), by_score_desc);
  std::stable_sort(fallback.begin(), fallback.end(), by_score_desc);
  replication_order_.insert(replication_order_.end(), fallback.begin(), fallback.end());
}

std::optional<PacketId> RapidRouter::next_transfer(const ContactContext& contact,
                                                   const PeerView& peer) {
  if (!plan_current(peer.self())) build_contact_plan(contact, peer);

  // Direct delivery first.
  while (direct_cursor_ < direct_order_.size()) {
    const PacketId id = direct_order_[direct_cursor_];
    ++direct_cursor_;
    if (!buffer().contains(id)) continue;
    const Packet& p = ctx().packet(id);
    if (peer.has_received(id) || contact_skipped(id, peer.self())) continue;
    if (p.size > contact.remaining) continue;
    return id;
  }

  // Then replication in decreasing marginal utility per byte.
  while (replication_cursor_ < replication_order_.size()) {
    const Candidate c = replication_order_[replication_cursor_];
    ++replication_cursor_;
    if (!buffer().contains(c.id)) continue;  // dropped or acked mid-contact
    const Packet& p = ctx().packet(c.id);
    if (!peer_wants(peer, p)) continue;
    if (p.size > contact.remaining) continue;
    return c.id;
  }
  return std::nullopt;
}

void RapidRouter::on_transfer_success(const Packet& p, const PeerView& peer,
                                      ReceiveOutcome outcome, Time now) {
  if (outcome == ReceiveOutcome::kDelivered || outcome == ReceiveOutcome::kDuplicateDelivery) {
    if (config_.control != ControlChannelMode::kGlobalOracle) {
      // We are talking to the destination: learn the ack right away.
      learn_ack(p.id, now);
    }
    return;
  }
  if (outcome != ReceiveOutcome::kStored) return;
  auto* rapid_peer = peer.as<RapidRouter>();
  if (rapid_peer != nullptr && config_.control != ControlChannelMode::kGlobalOracle) {
    // Track the new replica and hand the packet's known replica list to the
    // receiver (it travels with the packet; full in-band mode only). Refresh
    // our own estimate first so the receiver gets current buffer state.
    meta_.update_replica(p.id, ReplicaEstimate{self(), self_direct_delay(p), now});
    meta_.update_replica(p.id,
                         ReplicaEstimate{peer.self(), rapid_peer->self_direct_delay(p), now});
    if (config_.control == ControlChannelMode::kInBand) {
      for (const ReplicaEstimate& est : meta_.replicas(p.id)) {
        if (est.holder == peer.self()) continue;
        rapid_peer->meta_.update_replica(p.id, est);
      }
    }
  }
}

void RapidRouter::contact_end(const PeerView& peer, Time now) {
  Router::contact_end(peer, now);
  direct_order_.clear();
  replication_order_.clear();
}

void RapidRouter::flush_obs(obs::ObsContext& out) const {
  Router::flush_obs(out);
  const UtilityCacheStats& s = cache_.stats();
  out.metrics.add(obs::Counter::kUtilityDelayHits, s.delay_hits);
  out.metrics.add(obs::Counter::kUtilityDelayRecomputes, s.delay_recomputes);
  out.metrics.add(obs::Counter::kUtilityRateHits, s.rate_hits);
  out.metrics.add(obs::Counter::kUtilityRateRecomputes, s.rate_recomputes);
  out.metrics.gauge_max(obs::Gauge::kUtilityTrackedPackets, cache_.tracked_packets());
  out.metrics.add(obs::Counter::kMemMatrixBytes, matrix_.bytes());
  out.metrics.add(obs::Counter::kMemMetadataBytes, meta_.bytes());
  out.metrics.add(obs::Counter::kMemPeerStateBytes, peer_state_bytes());
  out.metrics.add(obs::Counter::kMemUtilityCacheBytes, cache_.bytes());
  const MeetingMatrix::RelaxStats& relax = matrix_.relax_stats();
  out.metrics.add(obs::Counter::kMmHopRecomputes, relax.recomputes);
  out.metrics.add(obs::Counter::kMmRelaxRows, relax.rows);
  out.metrics.add(obs::Counter::kMmRelaxEdges, relax.edges);
  out.metrics.add(obs::Counter::kMmRowsOffered, rows_offered_);
  out.metrics.add(obs::Counter::kMmRowsMerged, rows_merged_);
}

PacketId RapidRouter::choose_drop_victim(const Packet& incoming, Time now) {
  // Keep-priority per metric: drop the packet that contributes least to the
  // routing metric (§3.4: "packets with the lowest utility are deleted
  // first"); a source never drops its own unacknowledged packet.
  const auto keep_priority = [&](const Packet& p) -> double {
    // For the incoming (not yet stored) packet, include the self term it
    // would gain by being stored here, so the comparison is like for like.
    double rate = replica_rate(p);
    if (!buffer().contains(p.id)) {
      const double d = direct_delay_if_stored(p);
      if (d > 0 && d != kTimeInfinity) rate += 1.0 / d;
    }
    switch (config_.metric) {
      case RoutingMetric::kAvgDelay:
        return -expected_total_delay(p.age(now), rate, config_.utility);
      case RoutingMetric::kMissedDeadlines: {
        if (p.deadline <= now) return -1e18 + p.created;  // expired: drop first, oldest first
        return packet_utility(config_.metric, rate, p.age(now), p.deadline - now,
                              config_.utility);
      }
      case RoutingMetric::kMaxDelay:
        // Minimizing the max delay wants old packets kept; drop low-D first.
        return expected_total_delay(p.age(now), rate, config_.utility);
    }
    return 0;
  };

  PacketId victim = kNoPacket;
  double victim_priority = 0;
  buffer().for_each([&](PacketId id, Bytes /*size*/) {
    const Packet& p = ctx().packet(id);
    if (p.src == self()) return;  // own un-acked packets are protected
    const double priority = keep_priority(p);
    if (victim == kNoPacket || priority < victim_priority) {
      victim = id;
      victim_priority = priority;
    }
  });
  if (victim == kNoPacket) return kNoPacket;
  // If the incoming packet would itself be the least useful, reject it.
  if (incoming.src != self() && keep_priority(incoming) <= victim_priority) return kNoPacket;
  return victim;
}

void RapidRouter::save_state(BinWriter& out) {
  Router::save_state(out);
  out.tag("RAPD");
  matrix_.save(out);
  meta_.save(out);
  // The peer table goes out dense (snapshot format v2): every node's sync
  // stamp, then every node's opportunity average, defaults for peers
  // without an entry.
  const NodeId num_peers = ctx().num_nodes;
  for (NodeId u = 0; u < num_peers; ++u) out.f64(last_sync(u));
  out.f64(avg_opportunity_.value());
  out.u64(avg_opportunity_.count());
  const MovingAverage none;
  for (NodeId u = 0; u < num_peers; ++u) {
    const PeerState* s = peers_.find(u);
    const MovingAverage& m = s != nullptr ? s->opportunity : none;
    out.f64(m.value());
    out.u64(m.count());
  }
  out.u8(global_ != nullptr ? 1 : 0);
  if (global_ != nullptr) {
    // One channel is shared by every RAPID router; the first saver writes
    // the body, the rest write only the intern id.
    std::uint64_t id = 0;
    if (out.intern(global_.get(), id)) global_->save(out);
  }
}

void RapidRouter::load_state(BinReader& in) {
  Router::load_state(in);
  in.expect_tag("RAPD");
  matrix_.load(in);
  meta_.load(in);
  // Entries are rebuilt only for peers whose dense values differ from the
  // defaults, which is exactly the set that had one.
  peers_.clear();
  const NodeId num_peers = ctx().num_nodes;
  for (NodeId u = 0; u < num_peers; ++u) {
    const Time t = in.f64();
    if (t != -kTimeInfinity) peers_.find_or_insert(u).last_sync = t;
  }
  {
    const double value = in.f64();
    avg_opportunity_.restore(value, in.u64());
  }
  for (NodeId u = 0; u < num_peers; ++u) {
    const double value = in.f64();
    const std::uint64_t count = in.u64();
    if (value != 0 || count != 0) peers_.find_or_insert(u).opportunity.restore(value, count);
  }
  const bool had_global = in.u8() != 0;
  if (had_global != (global_ != nullptr))
    BinReader::fail("control-channel mode differs from the snapshot's");
  if (global_ != nullptr) {
    // The factory already wired every restored router to one shared channel;
    // the first loader fills it, the rest just consume the intern id.
    const std::uint64_t id = in.intern_id();
    if (in.interned(id) == nullptr) {
      global_->load(in);
      in.register_interned(id, global_);
    }
  }
  // Rebuild the per-destination queues from the restored buffer. Insertion
  // is by (created, id) age rank, so the rebuilt queues match the originals
  // regardless of arrival order; memoized estimates refill on demand.
  buffer().for_each([&](PacketId id, Bytes /*size*/) { queue_insert(ctx().packet(id)); });
}

RouterFactory make_rapid_factory(const RapidConfig& config, Bytes buffer_capacity,
                                 std::shared_ptr<GlobalChannel> global) {
  return [config, buffer_capacity, global](NodeId node, const SimContext& ctx) {
    std::shared_ptr<GlobalChannel> channel = global;
    if (config.control == ControlChannelMode::kGlobalOracle && channel == nullptr)
      throw std::invalid_argument("make_rapid_factory: global mode without channel");
    return std::make_unique<RapidRouter>(node, buffer_capacity, &ctx, config, channel);
  };
}

}  // namespace rapid
