// The RAPID router: Protocol rapid(X, Y) of §3.4 with the inference
// algorithm of §4 and the control channel of §4.2.
//
// At a transfer opportunity the router:
//   1. exchanges metadata (acks, meeting-time rows, replica lists with
//      direct-delivery estimates, average opportunity sizes) under the
//      metadata budget;
//   2. delivers packets destined to the peer, highest utility first;
//   3. replicates packets in decreasing marginal utility per byte
//      delta(U_i) / s_i, skipping packets the peer already holds;
//   4. stops when the opportunity is exhausted.
//
// Expected delays come from Estimate Delay (core/delay_estimator.h) applied
// to the router's (possibly stale) metadata view; meeting times come from
// the <= 3-hop meeting matrix (core/meeting_matrix.h).
//
// The per-packet inference quantities — the direct-delivery estimate d_j of
// Algorithm 2 and the replica-rate sum feeding Eqs. 1-3 — are served through
// an incremental utility engine (core/utility_cache.h): the values of the
// packets this node holds are memoized keyed by the inputs that produced
// them (queue prefix, opportunity average, meeting time, per-packet
// metadata generation),
// so a contact re-evaluates only what actually changed instead of walking
// every queue, replica set and matrix row from scratch. RapidConfig::
// use_utility_cache disables the memoization (every evaluation recomputes);
// the two paths are bit-identical by construction and locked in by the
// dual-path figure tests.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "core/control_channel.h"
#include "core/meeting_matrix.h"
#include "core/metadata.h"
#include "core/utility.h"
#include "core/utility_cache.h"
#include "dtn/router.h"
#include "stats/moments.h"
#include "util/slab.h"

namespace rapid {

struct RapidConfig {
  RoutingMetric metric = RoutingMetric::kAvgDelay;
  ControlChannelMode control = ControlChannelMode::kInBand;
  int max_hops = 3;  // paper restricts the meeting-time estimate to h = 3
  UtilityParams utility;
  // Reserved scale for "no information yet": destinations unreachable within
  // h hops contribute zero marginal utility (§4.1.2 sets their expected
  // meeting time to infinity); such packets are replicated last, with spare
  // bandwidth only (work conservation). This knob only anchors reporting of
  // capped delays in diagnostics.
  double prior_meeting_time = 6.0 * kSecondsPerHour;
  // Bound on the per-contact replica-estimate/record exchange (priorities 4
  // and 5 of the control channel) as a fraction of the metadata budget,
  // freshest records first. Keeps the control channel at the few-percent
  // overhead the paper reports (Table 3, Fig 9) instead of letting the
  // relay grow with the total packet population.
  double relay_budget_fraction = 0.05;
  // Prior for the expected transfer-opportunity size before any is observed.
  Bytes prior_opportunity_bytes = 100_KB;
  // Memoize per-packet delay estimates and replica-rate sums with
  // generation-keyed dirty tracking (core/utility_cache.h). Off = recompute
  // eagerly on every evaluation; output is bit-identical either way.
  bool use_utility_cache = true;
};

// Protocol rapid(X, Y): a Router that treats the transfer opportunity as a
// resource-allocation problem. It orders candidate replications by marginal
// utility per byte delta(U_i)/s_i, where U_i is the configured metric's
// utility — Eq. 1 (average delay, U_i = -(T(i) + A(i))), Eq. 2 (missed
// deadlines, U_i = P(a(i) < L(i) - T(i))) or Eq. 3 (maximum delay) — and
// evaluates those utilities from its local, possibly stale, metadata view.
// Contract: the router owns nothing outside its own state (buffers, queues,
// matrix, metadata, cache) and touches peers only through the PeerView it is
// handed during a contact; all inference methods are const and
// side-effect-free except for memo fills in the mutable utility cache.
class RapidRouter : public Router {
 public:
  RapidRouter(NodeId self, Bytes buffer_capacity, const SimContext* ctx,
              const RapidConfig& config, std::shared_ptr<GlobalChannel> global = nullptr);

  const RapidConfig& config() const { return config_; }
  const MeetingMatrix& matrix() const { return matrix_; }
  const MetadataStore& metadata() const { return meta_; }
  // The incremental utility engine (probe counters, flat queues). Exposed
  // read-only for tests and benches.
  const UtilityCache& utility_cache() const { return cache_; }

  // --- Router interface -----------------------------------------------------
  bool on_generate(const Packet& p) override;
  void observe_opportunity(Bytes capacity, NodeId peer, Time now) override;
  Bytes contact_begin(const PeerView& peer, Time now, Bytes meta_budget) override;
  std::optional<PacketId> next_transfer(const ContactContext& contact,
                                        const PeerView& peer) override;
  void on_transfer_success(const Packet& p, const PeerView& peer, ReceiveOutcome outcome,
                           Time now) override;
  void contact_end(const PeerView& peer, Time now) override;
  PacketId choose_drop_victim(const Packet& incoming, Time now) override;
  // Pushes the base router's counters, the utility-cache probe counters
  // (hits, recomputes, memo-slot high-water mark), the h-hop relaxation and
  // row-gossip work counters and the end-of-run heap bytes of the matrix,
  // metadata ledger, utility cache and peer table into the run's registry.
  void flush_obs(obs::ObsContext& out) const override;
  // Heap bytes of the per-peer table (sync stamps, opportunity averages and
  // their index).
  std::size_t peer_state_bytes() const;

  // The instant-global-control-channel mode reaches every other router
  // (oracle walks, shared GlobalChannel) on each event, so it cannot be
  // partitioned; the sharded engine runs it serially.
  bool shard_safe() const override {
    return config_.control != ControlChannelMode::kGlobalOracle;
  }

  // Snapshot/restore: meeting matrix (with shared row versions interned),
  // metadata ledger, sync stamps, opportunity averages and — in global-oracle
  // mode — the shared channel, serialized once by whichever router saves
  // first. The utility cache restores cold and refills from identical inputs
  // (the cached and eager paths are bit-identical by contract).
  void save_state(BinWriter& out) override;
  void load_state(BinReader& in) override;

  // --- Inference (exposed for tests and for peers during a contact) ---------
  // This node's own direct-delivery delay estimate for a buffered packet.
  double self_direct_delay(const Packet& p) const;
  // Direct-delivery delay this node would have for `p` if it were
  // replicated here now (position it would take in the destination queue).
  double direct_delay_if_stored(const Packet& p) const;
  // Believed rate sum over replicas (self fresh + metadata view / oracle).
  double replica_rate(const Packet& p) const;
  // D(i) = T(i) + A(i) under the current view.
  double expected_total_delay_of(const Packet& p, Time now) const;
  // Expected inter-meeting time with `node` (<= h hops, prior-substituted).
  double effective_meeting_time(NodeId node) const;
  Bytes expected_opportunity(NodeId peer) const;
  // The configured metric's utility of `p` under the current view — the
  // mid-stream query surface of the service engine (src/service).
  double utility_now(const Packet& p, Time now) const { return utility_of(p, now); }

 protected:
  void on_stored(const Packet& p, NodeId from, std::int64_t aux, Time now) override;
  void on_dropped(const Packet& p, Time now) override;
  void on_acked(const Packet& p, Time now) override;
  void on_delivered_here(const Packet& p, Time now) override;

 private:
  struct Candidate {
    PacketId id = kNoPacket;
    double score = 0;  // delta(U)/s, or D(i) for the max-delay metric
  };

  RapidConfig config_;
  MeetingMatrix matrix_;
  MetadataStore meta_;
  std::shared_ptr<GlobalChannel> global_;
  MovingAverage avg_opportunity_;  // all peers

  // Per-peer state, created on the first sync with a peer or the first
  // opportunity sample for it: a SlotMap sized to the fleet, so a router
  // pays 4 B per fleet node plus one entry per peer it knows.
  struct PeerState {
    Time last_sync = -kTimeInfinity;  // -inf = never synced
    MovingAverage opportunity;
  };
  SlotMap<NodeId, PeerState> peers_;
  Time last_sync(NodeId peer) const {
    const PeerState* s = peers_.find(peer);
    return s != nullptr ? s->last_sync : -kTimeInfinity;
  }

  // Incremental utility engine: owns the flat per-destination queues
  // ((created, id, size) ascending by age rank — front is oldest, i.e.
  // delivered first, §4.1) and, beside each queued packet, the input-keyed
  // memo of its delay/rate estimates. Mutable because cache fills happen
  // inside const inference queries.
  mutable UtilityCache cache_;

  // Per-contact cached orderings (the candidate set is stable within a
  // contact; see DESIGN.md on work conservation). Validity is tracked by the
  // base Router's plan-cache helpers, keyed by the peer the plan was built
  // for, so interleaved concurrent sessions rebuild instead of reusing
  // another peer's ordering.
  std::vector<PacketId> direct_order_;
  std::size_t direct_cursor_ = 0;
  std::vector<Candidate> replication_order_;
  std::size_t replication_cursor_ = 0;
  std::vector<Candidate> fallback_scratch_;  // reused across plan builds

  // Meeting-row gossip work (exchange_metadata's priority 3): rows charged
  // to the wire and rows the peer accepted. Probe counters, flushed by
  // flush_obs; never snapshotted.
  std::uint64_t rows_offered_ = 0;
  std::uint64_t rows_merged_ = 0;

  void queue_insert(const Packet& p);
  void queue_erase(const Packet& p);

  // Shared body of self_direct_delay / direct_delay_if_stored: Algorithm 2's
  // d_j for the queue position p holds (or would take) here, memoized in
  // p's queue slot when the utility cache is enabled and p is queued here.
  double direct_delay(const Packet& p) const;
  // Same estimate with the inputs and memo slot already in hand — the bulk
  // own-buffer pass hoists the per-destination terms, accumulates the byte
  // prefix and hands each entry its slot by index while walking a queue,
  // instead of re-deriving all of it per packet. A null slot computes.
  double direct_delay_at(const Packet& p, const UtilityCache::DelayInputs& inputs,
                         UtilityCache::Memo* memo) const;
  // p's Algorithm-2 inputs here and its memo slot (null when not queued).
  struct Located {
    UtilityCache::DelayInputs inputs;
    UtilityCache::Memo* memo = nullptr;
  };
  Located locate(const Packet& p) const;

  Bytes exchange_metadata(RapidRouter& peer, Time now, Bytes budget);
  void build_contact_plan(const ContactContext& contact, const PeerView& peer);
  double marginal_for(const Packet& p, RapidRouter* rapid_peer, const PeerView& peer,
                      Time now) const;
  double utility_of(const Packet& p, Time now) const;
  void broadcast_own_row(Time now);
};

// Convenience factory for the experiment harness.
RouterFactory make_rapid_factory(const RapidConfig& config, Bytes buffer_capacity,
                                 std::shared_ptr<GlobalChannel> global = nullptr);

}  // namespace rapid
