#include "core/utility_cache.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace rapid {

namespace {

std::atomic<std::uint64_t> g_delay_hits{0};
std::atomic<std::uint64_t> g_delay_recomputes{0};
std::atomic<std::uint64_t> g_rate_hits{0};
std::atomic<std::uint64_t> g_rate_recomputes{0};

}  // namespace

UtilityCacheStats utility_cache_global_stats() {
  UtilityCacheStats s;
  s.delay_hits = g_delay_hits.load(std::memory_order_relaxed);
  s.delay_recomputes = g_delay_recomputes.load(std::memory_order_relaxed);
  s.rate_hits = g_rate_hits.load(std::memory_order_relaxed);
  s.rate_recomputes = g_rate_recomputes.load(std::memory_order_relaxed);
  return s;
}

void reset_utility_cache_global_stats() {
  g_delay_hits.store(0, std::memory_order_relaxed);
  g_delay_recomputes.store(0, std::memory_order_relaxed);
  g_rate_hits.store(0, std::memory_order_relaxed);
  g_rate_recomputes.store(0, std::memory_order_relaxed);
}

UtilityCache::UtilityCache(int num_nodes) {
  if (num_nodes < 0) throw std::invalid_argument("UtilityCache: negative num_nodes");
  queue_slot_.assign(static_cast<std::size_t>(num_nodes), kEmptySlot);
}

const std::vector<UtilityCache::QueueEntry> UtilityCache::kNoEntries;

UtilityCache::~UtilityCache() {
  g_delay_hits.fetch_add(stats_.delay_hits, std::memory_order_relaxed);
  g_delay_recomputes.fetch_add(stats_.delay_recomputes, std::memory_order_relaxed);
  g_rate_hits.fetch_add(stats_.rate_hits, std::memory_order_relaxed);
  g_rate_recomputes.fetch_add(stats_.rate_recomputes, std::memory_order_relaxed);
}

// --- flat destination queues --------------------------------------------------

UtilityCache::DestQueue& UtilityCache::queue_for(NodeId dst) {
  std::int32_t& slot = queue_slot_[static_cast<std::size_t>(dst)];
  if (slot < 0) {
    slot = static_cast<std::int32_t>(queues_.size());
    queues_.emplace_back();
  }
  return queues_[static_cast<std::size_t>(slot)];
}

void UtilityCache::queue_insert(NodeId dst, const QueueEntry& e) {
  DestQueue& q = queue_for(dst);
  if (q.entries.empty())
    nonempty_.insert(std::lower_bound(nonempty_.begin(), nonempty_.end(), dst), dst);
  const auto pos = std::upper_bound(q.entries.begin(), q.entries.end(), e);
  q.memos.insert(q.memos.begin() + (pos - q.entries.begin()), Memo{});
  q.entries.insert(pos, e);
  queued_peak_ = std::max(queued_peak_, ++queued_);
  q.total_bytes += e.size;
  ++q.generation;
  for (auto& [size, count] : q.size_counts) {
    if (size == e.size) {
      ++count;
      return;
    }
  }
  q.size_counts.emplace_back(e.size, 1);
}

void UtilityCache::queue_erase(NodeId dst, const QueueEntry& e) {
  const std::int32_t slot = queue_slot_[static_cast<std::size_t>(dst)];
  if (slot < 0) return;
  DestQueue& q = queues_[static_cast<std::size_t>(slot)];
  const auto pos = std::lower_bound(q.entries.begin(), q.entries.end(), e);
  if (pos == q.entries.end() || pos->id != e.id) return;
  const Bytes size = pos->size;
  q.memos.erase(q.memos.begin() + (pos - q.entries.begin()));
  q.entries.erase(pos);
  --queued_;
  if (q.entries.empty())
    nonempty_.erase(std::lower_bound(nonempty_.begin(), nonempty_.end(), dst));
  q.total_bytes -= size;
  ++q.generation;
  for (std::size_t i = 0; i < q.size_counts.size(); ++i) {
    if (q.size_counts[i].first == size) {
      if (--q.size_counts[i].second == 0) {
        q.size_counts[i] = q.size_counts.back();
        q.size_counts.pop_back();
      }
      return;
    }
  }
}

UtilityCache::Location UtilityCache::locate(NodeId dst, const QueueEntry& e) {
  const std::int32_t slot = queue_slot_[static_cast<std::size_t>(dst)];
  if (slot < 0) return {};
  DestQueue& q = queues_[static_cast<std::size_t>(slot)];
  const auto pos = std::lower_bound(q.entries.begin(), q.entries.end(), e);
  const auto idx = static_cast<std::size_t>(pos - q.entries.begin());
  Location loc;
  if (pos != q.entries.end() && pos->id == e.id) loc.memo = &q.memos[idx];
  if (idx == 0) return loc;
  if (q.size_counts.size() == 1) {
    // Uniform-size fast path (Table 4 workloads): prefix = position * size.
    loc.bytes_ahead = static_cast<Bytes>(idx) * q.size_counts[0].first;
  } else if (idx == q.entries.size()) {
    // Hypothetical entry sorting past the tail: the whole queue is ahead.
    loc.bytes_ahead = q.total_bytes;
  } else {
    for (std::size_t i = 0; i < idx; ++i) loc.bytes_ahead += q.entries[i].size;
  }
  return loc;
}

std::size_t UtilityCache::bytes() const {
  std::size_t total = queues_.capacity() * sizeof(DestQueue) +
                      queue_slot_.capacity() * sizeof(std::int32_t) +
                      nonempty_.capacity() * sizeof(NodeId);
  for (const DestQueue& q : queues_)
    total += q.entries.capacity() * sizeof(QueueEntry) + q.memos.capacity() * sizeof(Memo) +
             q.size_counts.capacity() * sizeof(q.size_counts[0]);
  return total;
}

}  // namespace rapid
