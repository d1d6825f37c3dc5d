// Inter-node meeting-time estimation (§4.1.2).
//
// MeetingMatrix is one node's local table of expected inter-meeting times —
// the E[M_XZ] input to Algorithm 2's direct-delivery estimate d_j =
// E[M_jZ] * n_j(i). Every node tabulates the average time to meet every
// other node from its own meeting history (observe_meeting maintains the
// running mean of inter-meeting gaps), exchanges these rows as metadata
// (merge_row; rows are versioned by timestamp so stale gossip is ignored),
// and estimates E[M_XZ] as the expected time for X to meet Z in at most h
// hops (h = 3 in the paper): if X never meets Z directly, the estimate is
// the cheapest sum of expected pairwise meeting times along a path of at
// most h rows. Pairs unreachable in h hops get infinity, which the utility
// layer (core/utility.h) turns into a zero marginal via the delay cap.
//
// Storage and recomputation are incremental, sized for 500+ node fleets:
// a row is one sorted sparse list of its finite (column, mean) entries, so
// its size grows with the peers a node has met, not with the fleet. A row
// version is an immutable snapshot (that list + stamp) shared between every
// node that learnt it, so gossiping a row is one pointer assignment, the
// wire-size accounting reads the entry count in O(1), a direct lookup is a
// binary search, and the h-hop relaxation walks only finite entries. A
// missing column reads as infinity (never met). h-hop estimates are
// computed per *source* on demand (O(h·n·k) single-source relaxation over k
// finite entries per row) and memoized until the matrix changes; every
// mutation bumps a generation counter that the utility cache
// (core/utility_cache.h) keys its delay estimates on. The owner's meeting
// history is one peer-sorted list beside its own row, and the h-hop memo
// holds at most two sources (the owner and the last other source asked
// about), so per-matrix state beyond the n row slots and stamps grows with
// the peers met, not with the fleet.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/types.h"

namespace rapid {

class BinReader;  // util/binio.h
class BinWriter;

// One node's meeting-time table. Contract: expected_meeting_time(X, Z) is
// the E[M_XZ] term that Algorithm 2 multiplies into the per-replica direct
// delay d_j = E[M_jZ] * n_j(i), which Eq. 7-9 then aggregate and Eqs. 1-3
// consume as A(i); it is a pure function of the rows learnt so far
// (observe_meeting / merge_row), infinity when Z is unreachable within
// max_hops rows, and memoized internally (the const query methods may fill
// caches but never change what any query returns).
class MeetingMatrix {
 public:
  // An immutable learnt row: the finite entries as one contiguous
  // (column, mean) array sorted by column, and the freshness stamp. Shared
  // (never mutated) between every matrix that learnt this version. Columns
  // absent from `finite` are infinity. The h-hop relaxation streams the
  // array with a single pointer dereference per row; direct_mean
  // binary-searches it.
  struct RowVersion {
    std::vector<std::pair<NodeId, Time>> finite;  // sorted by column
    Time stamp = -kTimeInfinity;
  };
  using RowPtr = std::shared_ptr<const RowVersion>;

  // `owner` is the node whose local view this is; `num_nodes` sizes the table.
  MeetingMatrix(NodeId owner, int num_nodes, int max_hops = 3);

  NodeId owner() const { return owner_; }
  int num_nodes() const { return num_nodes_; }

  // Record a direct meeting between the owner and `peer` at `now`. The
  // running mean of inter-meeting gaps is the row entry; the first gap is
  // measured from time 0, as the testbed implementation does. Produces a
  // fresh own-row version (the previous one stays valid wherever it was
  // gossiped to).
  void observe_meeting(NodeId peer, Time now);

  // Merge another node's row (from metadata). Rows are versioned by `stamp`;
  // stale rows are ignored. Returns true if the row was accepted.
  bool merge_row(NodeId node, const std::vector<Time>& row, Time stamp);
  // Zero-copy variant for same-process gossip: adopts the shared version
  // (entries and stamp travel as one pointer).
  bool merge_row(NodeId node, const RowPtr& version);
  // The learnt version of `node`'s row, for zero-copy gossip; null when
  // nothing was learnt yet.
  const RowPtr& share_row(NodeId node) const {
    return rows_[static_cast<std::size_t>(node)];
  }

  // Freshness stamp of `node`'s row as most recently learnt.
  Time row_stamp(NodeId node) const { return stamps_[static_cast<std::size_t>(node)]; }

  // Direct average only (infinity if never seen in any known row); a binary
  // search of `from`'s sparse row.
  Time direct_mean(NodeId from, NodeId to) const;

  // E[M_{from,to}] within max_hops hops; infinity when unreachable.
  Time expected_meeting_time(NodeId from, NodeId to) const;

  // Number of finite entries in `node`'s row as most recently learnt; O(1),
  // feeding the metadata wire-size accounting.
  int finite_count(NodeId node) const {
    const RowPtr& v = rows_[static_cast<std::size_t>(node)];
    return v == nullptr ? 0 : static_cast<int>(v->finite.size());
  }
  // Number of peers the owner has met (the own row's finite entries).
  int peers_met() const { return static_cast<int>(met_.size()); }

  // Bumped on every accepted mutation (observe_meeting, accepted merge_row);
  // the utility cache keys meeting-time-dependent estimates on this.
  std::uint64_t generation() const { return generation_; }

  // Relaxation work since construction (probe counters; never snapshotted):
  // h-hop recomputes, the rows scanned in rounds 1..h-1 and their entries.
  // The own-row scatter that seeds each recompute is not counted.
  struct RelaxStats {
    std::uint64_t recomputes = 0;
    std::uint64_t rows = 0;
    std::uint64_t edges = 0;
  };
  const RelaxStats& relax_stats() const { return relax_stats_; }

  // Snapshot/restore. Shared RowVersions are serialized once through the
  // writer's interning table and re-shared on load, so the gossip sharing
  // graph (and therefore the clone-vs-edit-in-place decisions of
  // observe_meeting) replays exactly. Rows and the meeting history are
  // written dense, n values with infinity (rows) or zero (history) in the
  // gaps (snapshot format v2), and read back into the same sorted lists; the
  // h-hop memo restores cold — it refills from identical inputs.
  void save(BinWriter& out) const;
  void load(BinReader& in);

  // Heap bytes held by this matrix: the row slots and stamps, the meeting
  // history, the h-hop memo and this matrix's share of every row version it
  // holds (a version's bytes divided by its holder count, so summing bytes()
  // over a fleet counts each shared version once).
  std::size_t bytes() const;

 private:
  NodeId owner_;
  int num_nodes_;
  int max_hops_;
  // rows_[u] = u's averaged-meeting-time row, as most recently learnt.
  // Null = nothing learnt about u yet (treated as all-infinity).
  std::vector<RowPtr> rows_;
  std::vector<Time> stamps_;
  // The owner's direct meetings, one entry per peer met, sorted by peer: the
  // same columns as the own row's finite entries.
  struct Met {
    NodeId peer = kNoNode;
    int count = 0;   // direct meetings so far
    Time last = 0;   // time of the last one
  };
  std::vector<Met> met_;
  std::uint64_t generation_ = 0;

  // Memoized single-source h-hop distances, recomputed lazily when the
  // generation they were computed at goes stale (an empty dist = never
  // queried). Bounded to two sources: the owner, which every RAPID estimate
  // reads, and one other — only the non-RAPID-peer fallback asks about
  // another source, and it asks about the same peer for a whole plan build.
  struct HopRow {
    NodeId source = kNoNode;
    std::uint64_t generation = 0;
    std::vector<Time> dist;
  };
  mutable HopRow own_hops_;
  mutable HopRow other_hops_;
  mutable RelaxStats relax_stats_;

  // A recompute is a frontier-driven relaxation over flat arrays (see
  // hop_row() in the .cpp): per round it scans only the rows whose distance
  // improved in the previous round instead of all n rows. It snapshots those
  // rows' distances first and mins each candidate straight into the
  // distance row, so paths grow by one row per round — Jacobi semantics,
  // the same values bit for bit as the full n-scan. The scan is bound by
  // memory latency and prefetches the frontier rows ahead of use. The
  // scratch lives in one thread-local pool shared by every matrix on the
  // thread, so 2000-node fleets do not carry per-node relaxation buffers.
  const std::vector<Time>& hop_row(NodeId from) const;
};

}  // namespace rapid
