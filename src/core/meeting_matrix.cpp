#include "core/meeting_matrix.h"

#include <algorithm>
#include <stdexcept>

#include "util/binio.h"

namespace rapid {

namespace {

// lower_bound comparator for a column-sorted row against a column id.
bool column_less(const std::pair<NodeId, Time>& entry, NodeId col) { return entry.first < col; }

}  // namespace

MeetingMatrix::MeetingMatrix(NodeId owner, int num_nodes, int max_hops)
    : owner_(owner), num_nodes_(num_nodes), max_hops_(max_hops) {
  if (owner < 0 || owner >= num_nodes)
    throw std::invalid_argument("MeetingMatrix: owner out of range");
  if (max_hops < 1) throw std::invalid_argument("MeetingMatrix: max_hops < 1");
  rows_.resize(static_cast<std::size_t>(num_nodes));  // versions materialize lazily
  stamps_.assign(static_cast<std::size_t>(num_nodes), -kTimeInfinity);
}

void MeetingMatrix::observe_meeting(NodeId peer, Time now) {
  if (peer < 0 || peer >= num_nodes_ || peer == owner_)
    throw std::invalid_argument("MeetingMatrix::observe_meeting: bad peer");
  auto met = std::lower_bound(met_.begin(), met_.end(), peer,
                              [](const Met& m, NodeId p) { return m.peer < p; });
  if (met == met_.end() || met->peer != peer) met = met_.insert(met, Met{peer, 0, 0.0});
  const Time gap = now - met->last;  // first gap measured from time 0

  // Own-row versions are immutable once gossiped: clone before editing when
  // anyone else holds the current version (the gossiped copy stays valid
  // wherever it travelled). A version nobody adopted yet — use_count == 1 —
  // is still private and is edited in place, allocation-free.
  RowPtr& slot = rows_[static_cast<std::size_t>(owner_)];
  RowVersion* fresh;
  if (slot != nullptr && slot.use_count() == 1) {
    fresh = const_cast<RowVersion*>(slot.get());
  } else {
    auto clone = slot == nullptr ? std::make_shared<RowVersion>()
                                 : std::make_shared<RowVersion>(*slot);
    fresh = clone.get();
    slot = std::move(clone);
  }
  auto& finite = fresh->finite;
  auto at = std::lower_bound(finite.begin(), finite.end(), peer, column_less);
  if (at == finite.end() || at->first != peer) at = finite.insert(at, {peer, kTimeInfinity});
  Time& cell = at->second;
  if (met->count == 0) {
    cell = gap;
  } else {
    cell += (gap - cell) / static_cast<double>(met->count + 1);
  }
  fresh->stamp = now;
  ++met->count;
  met->last = now;
  stamps_[static_cast<std::size_t>(owner_)] = now;
  ++generation_;
}

bool MeetingMatrix::merge_row(NodeId node, const std::vector<Time>& row, Time stamp) {
  if (node < 0 || node >= num_nodes_)
    throw std::invalid_argument("MeetingMatrix::merge_row: bad node");
  if (node == owner_) return false;  // never overwrite own observations
  if (row.size() != static_cast<std::size_t>(num_nodes_))
    throw std::invalid_argument("MeetingMatrix::merge_row: row size mismatch");
  if (stamp <= stamps_[static_cast<std::size_t>(node)]) return false;
  auto version = std::make_shared<RowVersion>();
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const Time cell = row[static_cast<std::size_t>(v)];
    if (cell != kTimeInfinity) version->finite.emplace_back(v, cell);
  }
  version->stamp = stamp;
  rows_[static_cast<std::size_t>(node)] = std::move(version);
  stamps_[static_cast<std::size_t>(node)] = stamp;
  ++generation_;
  return true;
}

bool MeetingMatrix::merge_row(NodeId node, const RowPtr& version) {
  if (node < 0 || node >= num_nodes_)
    throw std::invalid_argument("MeetingMatrix::merge_row: bad node");
  if (node == owner_ || version == nullptr) return false;
  if (version->stamp <= stamps_[static_cast<std::size_t>(node)]) return false;
  rows_[static_cast<std::size_t>(node)] = version;
  stamps_[static_cast<std::size_t>(node)] = version->stamp;
  ++generation_;
  return true;
}

Time MeetingMatrix::direct_mean(NodeId from, NodeId to) const {
  if (from == to) return 0;
  const RowPtr& v = rows_[static_cast<std::size_t>(from)];
  if (v == nullptr) return kTimeInfinity;
  const auto at = std::lower_bound(v->finite.begin(), v->finite.end(), to, column_less);
  return at == v->finite.end() || at->first != to ? kTimeInfinity : at->second;
}

namespace {

// Flat scratch for the frontier relaxation in hop_row(). One instance per
// thread serves every matrix on that thread (the relaxation never nests),
// so a 2000-node fleet carries one set of buffers per shard thread instead
// of per node. `mark` is epoch-stamped: bumping `epoch` resets it in O(1)
// between rounds.
struct RelaxScratch {
  std::vector<NodeId> frontier;       // rows whose dist improved last round
  std::vector<NodeId> next_frontier;  // rows improving this round, discovery order
  std::vector<Time> heads;            // heads[f] = dist[frontier[f]] before the round
  std::vector<std::uint32_t> mark;    // mark[v] == epoch → v is in next_frontier
  std::uint32_t epoch = 0;

  void ensure(std::size_t n) {
    if (mark.size() < n) {
      mark.assign(n, 0);
      heads.resize(n);
      epoch = 0;
    }
  }
};

RelaxScratch& relax_scratch() {
  thread_local RelaxScratch scratch;
  return scratch;
}

// Prefetch distances, in frontier rows: a RowVersion object this far ahead
// of the scan, its entry array (first two cache lines) this far ahead —
// late enough that the object itself has arrived.
constexpr std::size_t kObjectAhead = 8;
constexpr std::size_t kEntriesAhead = 3;

void prefetch_entries(const MeetingMatrix::RowVersion* row) {
  const auto at = reinterpret_cast<std::uintptr_t>(row->finite.data());
  __builtin_prefetch(reinterpret_cast<const void*>(at));
  __builtin_prefetch(reinterpret_cast<const void*>(at + 64));
}

// One relaxation round over scratch.frontier. It first snapshots each
// frontier row's distance (its head), then mins head + w into dist for every
// entry of every frontier row. With kTrackFrontier, it also appends each
// column whose dist improved to scratch.next_frontier, in first-improvement
// order (a column still unmarked this round holds its pre-round value, so
// its first improvement is exactly the first candidate below that value).
template <bool kTrackFrontier>
void relax_round(const MeetingMatrix::RowPtr* rows, Time* dist, RelaxScratch& scratch,
                 MeetingMatrix::RelaxStats& stats) {
  const NodeId* fr = scratch.frontier.data();
  const std::size_t fn = scratch.frontier.size();
  Time* heads = scratch.heads.data();
  for (std::size_t f = 0; f < fn; ++f) heads[f] = dist[static_cast<std::size_t>(fr[f])];
  std::uint64_t scanned = 0;
  std::uint64_t edges = 0;
  for (std::size_t f = 0; f < fn; ++f) {
    if (f + kObjectAhead < fn) __builtin_prefetch(rows[fr[f + kObjectAhead]].get());
    if (f + kEntriesAhead < fn) {
      if (const auto* ahead = rows[fr[f + kEntriesAhead]].get()) prefetch_entries(ahead);
    }
    const MeetingMatrix::RowVersion* row = rows[fr[f]].get();
    if (row == nullptr) continue;
    // Stream the packed (col, value) pairs — rows are sparse in large
    // fleets, so this touches k entries, not n.
    const auto* pairs = row->finite.data();
    const std::size_t k = row->finite.size();
    ++scanned;
    edges += k;
    const Time head = heads[f];
    for (std::size_t i = 0; i < k; ++i) {
      const auto v = static_cast<std::size_t>(pairs[i].first);
      const Time candidate = head + pairs[i].second;
      if constexpr (kTrackFrontier) {
        if (candidate < dist[v]) {
          dist[v] = candidate;
          if (scratch.mark[v] != scratch.epoch) {
            scratch.mark[v] = scratch.epoch;
            scratch.next_frontier.push_back(pairs[i].first);
          }
        }
      } else {
        dist[v] = std::min(dist[v], candidate);
      }
    }
  }
  stats.rows += scanned;
  stats.edges += edges;
}

}  // namespace

const std::vector<Time>& MeetingMatrix::hop_row(NodeId from) const {
  HopRow& cached = from == owner_ ? own_hops_ : other_hops_;
  if (cached.source == from && !cached.dist.empty() && cached.generation == generation_)
    return cached.dist;

  // Single-source relaxation: after round r, dist[v] is the cheapest sum of
  // expected pairwise meeting times along a path of at most r+1 rows (never
  // more, matching the paper's h = 3 bound).
  //
  // Frontier form of the classic Jacobi sweep: a round scans only the rows
  // whose distance improved in the previous round (any candidate through an
  // unchanged row was already >= dist when it was last scanned, so the min
  // is unaffected). The round first snapshots those rows' distances (the
  // heads), then mins each candidate head + w straight into dist. Reading
  // heads from the snapshot keeps the Jacobi semantics — a row improved
  // earlier in the same round never extends a path by one more row — and
  // min is order-independent, so every double is bit-identical to the full
  // n-scan sweep. Only non-final rounds mark columns, to build the next
  // frontier; the final round is a plain min loop.
  //
  // The cost is memory latency, not arithmetic: frontier rows are scattered
  // RowVersions shared across the fleet, each a slot → object → entries
  // chain of dependent loads. The frontier is known ahead of the scan, so
  // relax_round prefetches objects and entry arrays a few rows out.
  ++relax_stats_.recomputes;
  const auto n = static_cast<std::size_t>(num_nodes_);
  std::vector<Time>& dist = cached.dist;
  dist.assign(n, kTimeInfinity);

  RelaxScratch& scratch = relax_scratch();
  scratch.ensure(n);
  scratch.frontier.clear();
  scratch.frontier.push_back(from);
  if (const RowPtr& own = rows_[static_cast<std::size_t>(from)]) {
    for (const auto& [v, val] : own->finite) {  // 1-hop paths
      dist[static_cast<std::size_t>(v)] = val;
      if (v != from) scratch.frontier.push_back(v);
    }
  }
  dist[static_cast<std::size_t>(from)] = 0;

  for (int round = 1; round < max_hops_ && !scratch.frontier.empty(); ++round) {
    if (round + 1 == max_hops_) {  // final round: no next frontier to build
      relax_round<false>(rows_.data(), dist.data(), scratch, relax_stats_);
      break;
    }
    ++scratch.epoch;
    if (scratch.epoch == 0) {  // wrapped: stale marks could alias, reset
      std::fill(scratch.mark.begin(), scratch.mark.end(), 0);
      scratch.epoch = 1;
    }
    scratch.next_frontier.clear();
    relax_round<true>(rows_.data(), dist.data(), scratch, relax_stats_);
    scratch.frontier.swap(scratch.next_frontier);
  }
  cached.source = from;
  cached.generation = generation_;
  return dist;
}

Time MeetingMatrix::expected_meeting_time(NodeId from, NodeId to) const {
  if (from < 0 || from >= num_nodes_ || to < 0 || to >= num_nodes_)
    throw std::invalid_argument("MeetingMatrix::expected_meeting_time: bad node");
  if (from == to) return 0;
  return hop_row(from)[static_cast<std::size_t>(to)];
}

void MeetingMatrix::save(BinWriter& out) const {
  out.tag("MMTX");
  out.u64(generation_);
  const auto n = static_cast<std::size_t>(num_nodes_);
  for (std::size_t u = 0; u < n; ++u) out.f64(stamps_[u]);
  // The meeting history goes out dense as well: (0, 0) for peers never met.
  std::vector<Time> last(n, 0.0);
  std::vector<int> count(n, 0);
  for (const Met& m : met_) {
    last[static_cast<std::size_t>(m.peer)] = m.last;
    count[static_cast<std::size_t>(m.peer)] = m.count;
  }
  for (std::size_t u = 0; u < n; ++u) out.f64(last[u]);
  for (std::size_t u = 0; u < n; ++u) out.i64(count[u]);
  for (std::size_t u = 0; u < n; ++u) {
    const RowPtr& v = rows_[u];
    if (v == nullptr) {
      out.u8(0);
      continue;
    }
    out.u8(1);
    std::uint64_t id = 0;
    if (out.intern(v.get(), id)) {
      out.f64(v->stamp);
      // Dense on the wire (snapshot v2): gaps in the sparse row are infinity.
      std::size_t c = 0;
      for (const auto& [col, val] : v->finite) {
        for (; c < static_cast<std::size_t>(col); ++c) out.f64(kTimeInfinity);
        out.f64(val);
        ++c;
      }
      for (; c < n; ++c) out.f64(kTimeInfinity);
    }
  }
}

void MeetingMatrix::load(BinReader& in) {
  in.expect_tag("MMTX");
  generation_ = in.u64();
  const auto n = static_cast<std::size_t>(num_nodes_);
  for (std::size_t u = 0; u < n; ++u) stamps_[u] = in.f64();
  std::vector<Time> last(n);
  for (Time& t : last) t = in.f64();
  met_.clear();
  for (std::size_t u = 0; u < n; ++u) {
    const auto count = static_cast<int>(in.i64());
    if (count != 0) met_.push_back(Met{static_cast<NodeId>(u), count, last[u]});
  }
  for (std::size_t u = 0; u < n; ++u) {
    if (in.u8() == 0) {
      rows_[u] = nullptr;
      continue;
    }
    const std::uint64_t id = in.intern_id();
    if (std::shared_ptr<void> known = in.interned(id)) {
      rows_[u] = std::static_pointer_cast<const RowVersion>(known);
      continue;
    }
    auto version = std::make_shared<RowVersion>();
    version->stamp = in.f64();
    for (std::size_t c = 0; c < n; ++c) {
      const Time cell = in.f64();
      if (cell != kTimeInfinity) version->finite.emplace_back(static_cast<NodeId>(c), cell);
    }
    in.register_interned(id, version);
    rows_[u] = std::move(version);
  }
  own_hops_ = HopRow{};
  other_hops_ = HopRow{};
}

std::size_t MeetingMatrix::bytes() const {
  double total = static_cast<double>(rows_.capacity() * sizeof(RowPtr) +
                                     stamps_.capacity() * sizeof(Time) +
                                     met_.capacity() * sizeof(Met) +
                                     (own_hops_.dist.capacity() + other_hops_.dist.capacity()) *
                                         sizeof(Time));
  for (const RowPtr& v : rows_) {
    if (v == nullptr) continue;
    // make_shared puts the control block and the version in one allocation.
    const std::size_t version_bytes =
        sizeof(RowVersion) + 2 * sizeof(void*) + v->finite.capacity() * sizeof(v->finite[0]);
    total += static_cast<double>(version_bytes) / static_cast<double>(v.use_count());
  }
  return static_cast<std::size_t>(total);
}

}  // namespace rapid
