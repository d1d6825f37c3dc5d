// Incremental utility engine for the RAPID hot path.
//
// RAPID's control loop (§3.4 / §4) evaluates, at every transfer opportunity,
// the delay estimate of Algorithm 2 and the marginal utilities of Eqs. 1-3
// for every buffered packet. Computed eagerly that walk is the dominant cost
// as node and packet counts grow: the expensive inputs — the queue position
// term b_j(i) of Algorithm 2, the meeting-time estimate E[M_XZ] (§4.1.2) and
// the replica-rate sum over the metadata view (§4.2) — change far more
// slowly than they are read.
//
// UtilityCache makes those reads incremental:
//
//  * Per-destination packet queues live in flat contiguous storage (a
//    SlotMap of age-sorted entry vectors, holding only destinations with
//    packets queued here now; a queue is freed when it empties) instead
//    of a node-keyed map of vectors, with an incrementally maintained size
//    histogram so the prefix-bytes term of Algorithm 2 is O(log n) for the
//    uniform-size workloads of Table 4.
//  * Per-packet direct-delay estimates (d_j of Algorithm 2) and replica-rate
//    sums (sum_j 1/d_j of Eqs. 7-9) are memoized in a Memo vector parallel
//    to each queue's entries, so a memo slot lives exactly as long as its
//    packet is queued here and per-packet state is sized by the buffer, not
//    by the packet pool. One binary search (locate) finds both the packet's
//    queue prefix and its slot. Each value is keyed by the inputs that
//    produced it: the queue-prefix bytes, opportunity average and
//    meeting-time estimate by value (cheap to read back), the per-packet
//    metadata record by generation (MetadataStore::generation), plus buffer
//    membership. Packets that are not queued here (a candidate a peer
//    evaluates, an incoming packet, a service query) have no slot and are
//    computed on every call; each is one division and one multiply.
//
// Invalidation is dirty-tracking by construction: a metadata update, a
// replica change, a queue edit or a meeting-time move makes exactly the
// packets whose cached values referenced that input compare stale at their
// next lookup; everything else keeps hitting — a contact that perturbs a
// node's matrix without moving the estimate toward some destination
// invalidates none of that destination's packets. A stale value is
// recomputed by the same code path the eager engine runs, from identical
// inputs, so cached and eager routers produce bit-identical figure output
// (locked in by tests/runner_test.cpp's dual-path figure tests).
//
// Probe counters (UtilityCacheStats) count hits and recomputations per
// router and, aggregated, per process — the invalidation-edge tests and the
// bench_micro cache benchmarks read them.
#pragma once

#include <cstdint>
#include <vector>

#include "util/slab.h"
#include "util/types.h"

namespace rapid {

// Hit/recompute probe counters. "Recompute" counts every evaluation of the
// underlying estimator: an eager (cache-disabled) router counts one per
// call, a caching router one per miss, so the ratio of the two is the
// work-saved factor reported by bench_micro.
struct UtilityCacheStats {
  std::uint64_t delay_hits = 0;
  std::uint64_t delay_recomputes = 0;
  std::uint64_t rate_hits = 0;
  std::uint64_t rate_recomputes = 0;

  std::uint64_t recomputes() const { return delay_recomputes + rate_recomputes; }
  std::uint64_t lookups() const {
    return delay_hits + delay_recomputes + rate_hits + rate_recomputes;
  }
};

// Process-wide aggregate of every UtilityCache destroyed so far (each cache
// flushes its counters on destruction). Lets benches measure whole-simulation
// recomputation counts after the routers are gone.
UtilityCacheStats utility_cache_global_stats();
void reset_utility_cache_global_stats();

// The memo itself. Contract: direct_delay()/rate() return exactly what their
// compute() callback would return for the given inputs — a hit is only ever
// served when every recorded input compares equal to the caller's, so a
// caching router is bit-identical to an eager one (the values feed Eqs. 1-3
// unchanged). The cache owns the per-destination queues it indexes; callers
// own the generation discipline for the inputs they pass.
class UtilityCache {
 public:
  // One buffered (or hypothetically stored) packet in a destination queue,
  // ordered by age rank: oldest first, ties broken by id (§4.1 delivers the
  // oldest packet for a destination first).
  struct QueueEntry {
    Time created = 0;
    PacketId id = kNoPacket;
    Bytes size = 0;
    bool operator<(const QueueEntry& o) const {
      return created != o.created ? created < o.created : id < o.id;
    }
  };

  // The inputs a direct-delay estimate is a pure function of (Algorithm 2):
  // the bytes queued ahead b_j(i), the expected opportunity size B_j, and
  // the expected meeting time E[M]. All three are cheap to read back (the
  // flat queue answers the prefix in O(log n), the matrix memoizes its
  // h-hop rows), so entries are keyed by the *values* — a contact that
  // bumps a generation without actually moving the estimate for this
  // destination invalidates nothing. Exact double comparison is the point:
  // the value either moved or it did not (NaN never occurs; infinities
  // compare equal to themselves).
  struct DelayInputs {
    Bytes bytes_ahead = 0;
    Bytes opportunity = 0;
    Time meeting_time = 0;
    bool operator==(const DelayInputs& o) const {
      return bytes_ahead == o.bytes_ahead && opportunity == o.opportunity &&
             meeting_time == o.meeting_time;
    }
  };

  // A replica-rate sum additionally depends on the packet's metadata record
  // — compared by generation (MetadataStore::generation), since comparing
  // the whole replica list would cost as much as resumming it — and on
  // whether this node currently holds a copy (the fresh self term).
  struct RateInputs {
    DelayInputs delay;
    std::uint64_t metadata_gen = 0;
    bool in_buffer = false;
    bool operator==(const RateInputs& o) const {
      return delay == o.delay && metadata_gen == o.metadata_gen && in_buffer == o.in_buffer;
    }
  };

  // One queued packet's memo: both values share one input key (they are
  // virtually always refreshed together — a rate recompute refreshes the
  // delay it embeds), with the rate's extra key fields beside it. Moving the
  // shared key invalidates whichever sibling value was not part of the
  // store. A slot starts cold when its packet is queued.
  struct Memo {
    double delay = 0;
    double rate = 0;
    DelayInputs inputs;
    std::uint64_t metadata_gen = 0;
    bool delay_valid = false;
    bool rate_valid = false;
    bool rate_in_buffer = false;
  };

  // Where a packet stands in its destination queue: the bytes queued ahead
  // of it (the b_j(i) term of Algorithm 2) and its memo slot, null when the
  // packet is not queued. The slot stays valid until the next queue edit.
  struct Location {
    Bytes bytes_ahead = 0;
    Memo* memo = nullptr;
  };

  explicit UtilityCache(int num_nodes);
  ~UtilityCache();  // flushes stats into the process-wide aggregate

  UtilityCache(const UtilityCache&) = delete;
  UtilityCache& operator=(const UtilityCache&) = delete;

  // --- flat destination queues ----------------------------------------------

  // Inserts e with a cold memo slot.
  void queue_insert(NodeId dst, const QueueEntry& e);
  // Erases the entry with e's (created, id) key and its memo, freeing the
  // queue when it empties; no-op if absent.
  void queue_erase(NodeId dst, const QueueEntry& e);
  // Empty for a destination with nothing queued.
  const std::vector<QueueEntry>& queue(NodeId dst) const {
    const DestQueue* q = queues_.find(dst);
    return q != nullptr ? q->entries : kNoEntries;
  }
  // One binary search by e's (created, id) age rank. The prefix is the byte
  // sum of all strictly older entries: O(log n) when the queue holds one
  // distinct packet size (the maintained histogram), O(position) otherwise.
  // The memo slot is returned only when the entry found there is e's packet.
  Location locate(NodeId dst, const QueueEntry& e);
  // Non-empty queues in ascending destination order (deterministic, unlike
  // the node-keyed hash map this storage replaced), each with its memo slots
  // (memos[i] belongs to entries[i]). fn returns false to stop early (e.g.
  // when a metadata budget is exhausted). Iterates the maintained non-empty
  // index, not all n slots — a contact pays for the destinations it
  // actually buffers, not the fleet size.
  template <typename Fn>
  void for_each_queue(Fn&& fn) {
    for (const NodeId dst : nonempty_) {
      DestQueue& q = *queues_.find(dst);
      if (!fn(dst, q.entries, q.memos.data())) return;
    }
  }

  // --- memoized per-packet estimates ----------------------------------------
  // compute() runs only when the slot is cold or its recorded inputs differ
  // (the slot is dirty); its result is then stored under `inputs`. A null
  // slot (the packet is not queued) computes on every call and stores
  // nothing. compute() may itself fill the same slot (a rate recompute
  // refreshes the self delay); no queue edit happens inside, so the slot
  // stays valid.

  template <typename Compute>
  double direct_delay(Memo* memo, const DelayInputs& inputs, Compute&& compute) {
    if (memo != nullptr && memo->delay_valid && memo->inputs == inputs) {
      ++stats_.delay_hits;
      return memo->delay;
    }
    const double value = compute();
    ++stats_.delay_recomputes;
    if (memo == nullptr) return value;
    if (!(memo->inputs == inputs)) memo->rate_valid = false;
    memo->inputs = inputs;
    memo->delay = value;
    memo->delay_valid = true;
    return value;
  }

  template <typename Compute>
  double rate(Memo* memo, const RateInputs& inputs, Compute&& compute) {
    if (memo != nullptr && memo->rate_valid && memo->inputs == inputs.delay &&
        memo->metadata_gen == inputs.metadata_gen &&
        memo->rate_in_buffer == inputs.in_buffer) {
      ++stats_.rate_hits;
      return memo->rate;
    }
    const double value = compute();  // typically refreshes the delay in place
    ++stats_.rate_recomputes;
    if (memo == nullptr) return value;
    if (!(memo->inputs == inputs.delay)) memo->delay_valid = false;
    memo->inputs = inputs.delay;
    memo->rate = value;
    memo->metadata_gen = inputs.metadata_gen;
    memo->rate_in_buffer = inputs.in_buffer;
    memo->rate_valid = true;
    return value;
  }

  // Eager-mode probes: a cache-disabled router reports every evaluation here
  // so eager and cached runs expose comparable recompute counts.
  void note_eager_delay() { ++stats_.delay_recomputes; }
  void note_eager_rate() { ++stats_.rate_recomputes; }

  const UtilityCacheStats& stats() const { return stats_; }
  // High-water count of memo slots held at once, i.e. of queued packets.
  std::size_t tracked_packets() const { return queued_peak_; }
  // Heap bytes held: the queues (entries, memo slots and size histograms)
  // and their index.
  std::size_t bytes() const;

 private:
  struct DestQueue {
    NodeId dst = kNoNode;
    std::vector<QueueEntry> entries;  // sorted by (created, id), never empty
    std::vector<Memo> memos;          // parallel to entries
    // Histogram of distinct packet sizes present; one bucket in the uniform
    // case, which enables the O(log n) prefix-bytes fast path.
    std::vector<std::pair<Bytes, std::uint32_t>> size_counts;
    Bytes total_bytes = 0;
  };

  // A queue that empties leaves its (cleared) vectors in spares_, up to a
  // few; the next queue created takes the last of them, so destinations that
  // empty and refill do not re-allocate their storage.
  void keep_spare(DestQueue& q);
  void take_spare(DestQueue& q);

  static const std::vector<QueueEntry> kNoEntries;
  SlotMap<NodeId, DestQueue, &DestQueue::dst> queues_;  // one per dst queued now
  std::vector<DestQueue> spares_;  // emptied queues; only their capacity is kept
  std::vector<NodeId> nonempty_;  // queues_' keys, sorted ascending
  std::size_t queued_ = 0;        // memo slots held now
  std::size_t queued_peak_ = 0;   // ... and at most
  UtilityCacheStats stats_;
};

}  // namespace rapid
