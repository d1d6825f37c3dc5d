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
  queues_.reserve(static_cast<std::size_t>(num_nodes));
}

const std::vector<UtilityCache::QueueEntry> UtilityCache::kNoEntries;

UtilityCache::~UtilityCache() {
  g_delay_hits.fetch_add(stats_.delay_hits, std::memory_order_relaxed);
  g_delay_recomputes.fetch_add(stats_.delay_recomputes, std::memory_order_relaxed);
  g_rate_hits.fetch_add(stats_.rate_hits, std::memory_order_relaxed);
  g_rate_recomputes.fetch_add(stats_.rate_recomputes, std::memory_order_relaxed);
}

// --- flat destination queues --------------------------------------------------

void UtilityCache::queue_insert(NodeId dst, const QueueEntry& e) {
  DestQueue& q = queues_.find_or_insert(dst);
  if (q.entries.empty()) {
    nonempty_.insert(std::lower_bound(nonempty_.begin(), nonempty_.end(), dst), dst);
    take_spare(q);
  }
  const auto pos = std::upper_bound(q.entries.begin(), q.entries.end(), e);
  q.memos.insert(q.memos.begin() + (pos - q.entries.begin()), Memo{});
  q.entries.insert(pos, e);
  queued_peak_ = std::max(queued_peak_, ++queued_);
  q.total_bytes += e.size;
  for (auto& [size, count] : q.size_counts) {
    if (size == e.size) {
      ++count;
      return;
    }
  }
  q.size_counts.emplace_back(e.size, 1);
}

void UtilityCache::queue_erase(NodeId dst, const QueueEntry& e) {
  DestQueue* found = queues_.find(dst);
  if (found == nullptr) return;
  DestQueue& q = *found;
  const auto pos = std::lower_bound(q.entries.begin(), q.entries.end(), e);
  if (pos == q.entries.end() || pos->id != e.id) return;
  const Bytes size = pos->size;
  q.memos.erase(q.memos.begin() + (pos - q.entries.begin()));
  q.entries.erase(pos);
  --queued_;
  if (q.entries.empty()) {
    nonempty_.erase(std::lower_bound(nonempty_.begin(), nonempty_.end(), dst));
    keep_spare(q);
    queues_.erase(dst);
    return;
  }
  q.total_bytes -= size;
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

// Several destinations empty before new ones fill; eight spares absorb the
// re-allocations of the 30-node service cycle while holding a small part of
// what never freeing a queue did at fleet scale.
constexpr std::size_t kSpareQueues = 8;

void UtilityCache::keep_spare(DestQueue& q) {
  if (spares_.size() == kSpareQueues) return;
  q.size_counts.clear();
  spares_.push_back(std::move(q));
}

void UtilityCache::take_spare(DestQueue& q) {
  if (spares_.empty()) return;
  DestQueue& s = spares_.back();
  q.entries.swap(s.entries);
  q.memos.swap(s.memos);
  q.size_counts.swap(s.size_counts);
  spares_.pop_back();
}

UtilityCache::Location UtilityCache::locate(NodeId dst, const QueueEntry& e) {
  DestQueue* found = queues_.find(dst);
  if (found == nullptr) return {};
  DestQueue& q = *found;
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
  std::size_t total = queues_.bytes() + nonempty_.capacity() * sizeof(NodeId);
  const auto held = [](const DestQueue& q) {
    return q.entries.capacity() * sizeof(QueueEntry) + q.memos.capacity() * sizeof(Memo) +
           q.size_counts.capacity() * sizeof(q.size_counts[0]);
  };
  for (const DestQueue& q : queues_) total += held(q);
  for (const DestQueue& q : spares_) total += held(q);
  return total + spares_.capacity() * sizeof(DestQueue);
}

}  // namespace rapid
