#include "dtn/router.h"

#include <algorithm>

#include "dtn/metrics.h"
#include "obs/obs.h"
#include "util/binio.h"
#include "util/slab.h"

namespace rapid {

namespace {

thread_local const ShardBindings* tls_shard_bindings = nullptr;

// The metrics sink for the calling thread: the shard binding's collector
// while a shard worker phase is active, the SimContext's otherwise.
MetricsCollector* metrics_sink(const SimContext* ctx) {
  const ShardBindings* bindings = tls_shard_bindings;
  if (bindings != nullptr && bindings->metrics != nullptr) return bindings->metrics;
  return ctx != nullptr ? ctx->metrics : nullptr;
}

}  // namespace

ShardBindingScope::ShardBindingScope(const ShardBindings* bindings)
    : prev_(tls_shard_bindings) {
  tls_shard_bindings = bindings;
}

ShardBindingScope::~ShardBindingScope() { tls_shard_bindings = prev_; }

const ShardBindings* current_shard_bindings() { return tls_shard_bindings; }

Router::Router(NodeId self, Bytes buffer_capacity, const SimContext* ctx)
    : self_(self),
      buffer_(buffer_capacity),
      ctx_(ctx),
      rng_(0x5eedULL + static_cast<std::uint64_t>(self) * 0x9e3779b97f4a7c15ULL) {}

ScratchArena& Router::arena() const {
  const ShardBindings* bindings = tls_shard_bindings;
  if (bindings != nullptr && bindings->arena != nullptr) return *bindings->arena;
  if (ctx_ != nullptr && ctx_->arena != nullptr) return *ctx_->arena;
  if (own_arena_ == nullptr) own_arena_ = std::make_unique<ScratchArena>();
  return *own_arena_;
}

bool Router::on_generate(const Packet& p) {
  if (p.dst == self_) return false;  // degenerate; workload never produces this
  return store_with_eviction(p, p.created);
}

void Router::observe_opportunity(Bytes /*capacity*/, NodeId /*peer*/, Time /*now*/) {}

Bytes Router::contact_begin(const PeerView& peer, Time /*now*/, Bytes /*meta_budget*/) {
  clear_skip_marks(peer.self());
  invalidate_plan();
  return 0;
}

void Router::on_transfer_success(const Packet& /*p*/, const PeerView& /*peer*/,
                                 ReceiveOutcome /*outcome*/, Time /*now*/) {}

void Router::on_transfer_failed(const Packet& p, const PeerView& peer, Time /*now*/) {
  mark_skipped(p.id, peer.self());
}

ReceiveOutcome Router::receive_copy(const Packet& p, const PeerView& from, std::int64_t aux,
                                    Time now) {
  if (p.dst == self_) {
    if (has_received(p.id)) return ReceiveOutcome::kDuplicateDelivery;
    grow_slot(received_, p.id, std::uint8_t{0}) = 1;
    // The destination has "sufficient capacity to store delivered packets"
    // (§3.1); the copy does not occupy the in-transit buffer.
    learn_ack(p.id, now);
    on_delivered_here(p, now);
    return ReceiveOutcome::kDelivered;
  }
  if (buffer_.contains(p.id)) return ReceiveOutcome::kDuplicate;
  if (knows_ack(p.id)) return ReceiveOutcome::kDuplicate;  // already delivered elsewhere
  if (!store_with_eviction(p, now)) return ReceiveOutcome::kRejected;
  on_stored(p, from.self(), aux, now);
  return ReceiveOutcome::kStored;
}

void Router::contact_end(const PeerView& peer, Time /*now*/) {
  clear_skip_marks(peer.self());
  invalidate_plan();
}

std::int64_t Router::transfer_aux(const Packet& /*p*/, const PeerView& /*peer*/) { return 0; }

void Router::mark_skipped(PacketId id, NodeId peer) {
  if (!contact_skipped(id, peer)) skip_marks_.push_back(SkipMark{id, peer});
}

void Router::clear_skip_marks(NodeId peer) {
  skip_marks_.erase(std::remove_if(skip_marks_.begin(), skip_marks_.end(),
                                   [peer](const SkipMark& m) { return m.peer == peer; }),
                    skip_marks_.end());
}

bool Router::contact_skipped(PacketId id, NodeId peer) const {
  for (const SkipMark& m : skip_marks_)
    if (m.id == id && m.peer == peer) return true;
  return false;
}

bool Router::peer_wants(const PeerView& peer, const Packet& p) const {
  if (contact_skipped(p.id, peer.self())) return false;
  if (peer.has_packet(p.id)) return false;
  if (peer.has_received(p.id)) return false;
  if (knows_ack(p.id) || peer.knows_ack(p.id)) return false;
  return true;
}

void Router::learn_ack(PacketId id, Time when) {
  if (!acked_.insert(id, when)) return;
  if (buffer_.erase(id)) {
    if (MetricsCollector* metrics = metrics_sink(ctx_)) metrics->record_ack_purge(self_);
  }
  on_acked(ctx_->pool->get(id), when);
}

Bytes Router::exchange_acks(const PeerView& peer, Time now) {
  // Delta exchange: each side sends the entries the other lacks; 8 bytes per
  // packet id on the wire. Both walks run in place over the packed ack
  // tables: learning into the *other* table never perturbs the one being
  // iterated, and entries appended to the peer during the first walk are by
  // construction already known to us, so the second walk skips them.
  std::size_t sent = 0;
  for (const AckTable::Entry& e : acked_.entries()) {
    if (peer.knows_ack(e.id)) continue;
    peer.learn_ack(e.id, now);
    ++sent;
  }
  std::size_t received = 0;
  const Span<AckTable::Entry> theirs = peer.acks().entries();
  for (std::size_t i = 0; i < theirs.size(); ++i) {
    const AckTable::Entry e = theirs[i];
    if (knows_ack(e.id)) continue;
    learn_ack(e.id, now);
    ++received;
  }
  return static_cast<Bytes>(8) * static_cast<Bytes>(sent + received);
}

bool Router::store_with_eviction(const Packet& p, Time now) {
  if (buffer_.insert(p.id, p.size)) return true;
  if (buffer_.capacity() >= 0 && p.size > buffer_.capacity()) return false;
  while (!buffer_.fits(p.size)) {
    const PacketId victim = choose_drop_victim(p, now);
    if (victim == kNoPacket) return false;
    const Packet& vp = ctx_->pool->get(victim);
    buffer_.erase(victim);
    ++drops_;
    if (MetricsCollector* metrics = metrics_sink(ctx_)) metrics->record_drop(self_);
    RAPID_OBS_INC(kRouterDrops);
    RAPID_OBS_TRACE(kPacketDrop, now, self_, kNoNode, vp.id, vp.size);
    on_dropped(vp, now);
  }
  return buffer_.insert(p.id, p.size);
}

void Router::on_crash(bool drop_buffers, Time now) {
  if (!drop_buffers) return;
  // Drain back-to-front (erase of the last packed entry never swaps), firing
  // the exact per-drop accounting the eviction path fires, so a crash is
  // indistinguishable from a burst of drops to every downstream consumer.
  while (!buffer_.empty()) {
    const PacketId victim = buffer_.entries()[buffer_.count() - 1].id;
    const Packet& vp = ctx_->pool->get(victim);
    buffer_.erase(victim);
    ++drops_;
    if (MetricsCollector* metrics = metrics_sink(ctx_)) metrics->record_drop(self_);
    RAPID_OBS_INC(kRouterDrops);
    RAPID_OBS_TRACE(kPacketDrop, now, self_, kNoNode, vp.id, vp.size);
    on_dropped(vp, now);
  }
}

void Router::flush_obs(obs::ObsContext& out) const {
  out.metrics.add(obs::Counter::kMemRouterBytes, state_bytes());
}

std::size_t Router::state_bytes() const {
  return buffer_.bytes() + acked_.bytes() + received_.capacity() +
         skip_marks_.capacity() * sizeof(SkipMark);
}

void Router::save_state(BinWriter& out) {
  out.tag("ROUT");
  for (std::uint64_t word : rng_.state()) out.u64(word);
  // Buffer in packed order: restore replays the inserts, reproducing the
  // swap-erase-perturbed layout exactly (drop-victim scans and stable-sort
  // tie-breaks iterate it).
  out.u64(buffer_.count());
  buffer_.for_each([&](PacketId id, Bytes size) {
    out.i64(id);
    out.i64(size);
  });
  // Delivery receipts as a sparse id list (the bitmask order is immaterial).
  std::uint64_t received_count = 0;
  for (std::uint8_t flag : received_) received_count += flag != 0 ? 1 : 0;
  out.u64(received_count);
  for (std::size_t id = 0; id < received_.size(); ++id)
    if (received_[id] != 0) out.i64(static_cast<std::int64_t>(id));
  // Ack table in insertion order (the delta exchange walks it in place, and
  // the walk order shapes what the peer's table looks like afterwards).
  out.u64(acked_.size());
  acked_.for_each([&](PacketId id, Time when) {
    out.i64(id);
    out.f64(when);
  });
  out.u64(drops_);
}

void Router::load_state(BinReader& in) {
  in.expect_tag("ROUT");
  std::array<std::uint64_t, 4> rng_state;
  for (std::uint64_t& word : rng_state) word = in.u64();
  rng_.set_state(rng_state);
  const std::uint64_t buffered = in.u64();
  for (std::uint64_t i = 0; i < buffered; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    const Bytes size = in.i64();
    if (!buffer_.insert(id, size)) BinReader::fail("buffered packet does not fit on restore");
  }
  const std::uint64_t received_count = in.u64();
  for (std::uint64_t i = 0; i < received_count; ++i)
    grow_slot(received_, static_cast<PacketId>(in.i64()), std::uint8_t{0}) = 1;
  const std::uint64_t acks = in.u64();
  for (std::uint64_t i = 0; i < acks; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    const Time when = in.f64();
    acked_.insert(id, when);
  }
  drops_ = in.u64();
}

void Router::on_stored(const Packet& /*p*/, NodeId /*from*/, std::int64_t /*aux*/,
                       Time /*now*/) {}
void Router::on_dropped(const Packet& /*p*/, Time /*now*/) {}
void Router::on_acked(const Packet& /*p*/, Time /*now*/) {}
void Router::on_delivered_here(const Packet& /*p*/, Time /*now*/) {}

}  // namespace rapid
