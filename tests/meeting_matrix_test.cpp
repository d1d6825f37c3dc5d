#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <vector>

#include "core/meeting_matrix.h"
#include "util/binio.h"

namespace rapid {
namespace {

TEST(MeetingMatrix, AveragesInterMeetingGaps) {
  MeetingMatrix m(0, 4);
  // Gaps measured from t=0: 10, then 20, then 30 -> mean 20.
  m.observe_meeting(1, 10);
  m.observe_meeting(1, 30);
  m.observe_meeting(1, 60);
  EXPECT_DOUBLE_EQ(m.direct_mean(0, 1), 20.0);
  EXPECT_EQ(m.peers_met(), 1);

  // The sparse row keeps its entries sorted by column whatever order peers
  // are first met in, so inserts land at the front, the middle and the back.
  // Every lookup must agree with a plain dense running-mean table.
  constexpr int kNodes = 9;
  const std::vector<std::vector<NodeId>> orders = {
      {8, 7, 6, 5, 4, 3, 2, 1},     // descending: every insert at the front
      {4, 1, 8, 2, 7, 3, 6, 5, 4},  // interleaved: front, back and middle
      {1, 2, 3, 8, 5, 5, 1, 6},     // ascending with repeats and a gap
  };
  for (const std::vector<NodeId>& order : orders) {
    MeetingMatrix sparse(0, kNodes);
    std::vector<Time> ref(kNodes, kTimeInfinity);
    std::vector<Time> last(kNodes, 0.0);
    std::vector<int> count(kNodes, 0);
    Time now = 0;
    // Two passes, so every peer also takes an in-place running-mean update.
    for (int pass = 0; pass < 2; ++pass) {
      for (const NodeId peer : order) {
        now += 3.0 + peer;
        sparse.observe_meeting(peer, now);
        const auto p = static_cast<std::size_t>(peer);
        const Time gap = now - last[p];
        ref[p] = count[p] == 0 ? gap : ref[p] + (gap - ref[p]) / (count[p] + 1);
        ++count[p];
        last[p] = now;
      }
    }
    // A gossiped row for node 3, dense on input.
    std::vector<Time> row3(kNodes, kTimeInfinity);
    row3[0] = 40.0;
    row3[8] = 7.5;
    row3[5] = 11.0;
    ASSERT_TRUE(sparse.merge_row(3, row3, now));

    int met = 0;
    for (NodeId v = 0; v < kNodes; ++v) {
      if (count[static_cast<std::size_t>(v)] > 0) ++met;
      if (v == 0) continue;
      EXPECT_EQ(sparse.direct_mean(0, v), ref[static_cast<std::size_t>(v)]) << "peer " << v;
    }
    EXPECT_EQ(sparse.peers_met(), met);
    EXPECT_EQ(sparse.finite_count(0), met);
    for (NodeId u = 1; u < kNodes; ++u) {
      for (NodeId v = 0; v < kNodes; ++v) {
        if (u == v) continue;
        const Time want = u == 3 ? row3[static_cast<std::size_t>(v)] : kTimeInfinity;
        EXPECT_EQ(sparse.direct_mean(u, v), want) << u << "->" << v;
      }
    }
    // The shared version stores exactly the finite entries, column-sorted.
    const auto& own = sparse.share_row(0)->finite;
    for (std::size_t i = 1; i < own.size(); ++i) EXPECT_LT(own[i - 1].first, own[i].first);
  }
}

TEST(MeetingMatrix, UnseenPairsAreInfinite) {
  MeetingMatrix m(0, 4);
  EXPECT_EQ(m.direct_mean(0, 2), kTimeInfinity);
  EXPECT_EQ(m.expected_meeting_time(0, 2), kTimeInfinity);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 0), 0.0);
}

TEST(MeetingMatrix, MergeRowRespectsStamps) {
  MeetingMatrix m(0, 3);
  std::vector<Time> row = {kTimeInfinity, kTimeInfinity, 50.0};
  EXPECT_TRUE(m.merge_row(1, row, 100.0));
  EXPECT_DOUBLE_EQ(m.direct_mean(1, 2), 50.0);
  // Stale update ignored.
  std::vector<Time> stale = {kTimeInfinity, kTimeInfinity, 10.0};
  EXPECT_FALSE(m.merge_row(1, stale, 50.0));
  EXPECT_DOUBLE_EQ(m.direct_mean(1, 2), 50.0);
  // Fresher update applied.
  EXPECT_TRUE(m.merge_row(1, stale, 200.0));
  EXPECT_DOUBLE_EQ(m.direct_mean(1, 2), 10.0);
}

TEST(MeetingMatrix, MergeNeverOverwritesOwnRow) {
  MeetingMatrix m(0, 3);
  m.observe_meeting(1, 10);
  std::vector<Time> forged = {0.0, 1.0, 1.0};
  EXPECT_FALSE(m.merge_row(0, forged, 1e9));
  EXPECT_DOUBLE_EQ(m.direct_mean(0, 1), 10.0);
}

TEST(MeetingMatrix, TwoHopEstimate) {
  // 0 meets 1 (mean 10); 1 meets 2 (mean 25, learnt via metadata);
  // 0 never meets 2: expected time = 10 + 25 ("X meets Y and then Y meets Z").
  MeetingMatrix m(0, 3);
  m.observe_meeting(1, 10);
  std::vector<Time> row1 = {10.0, kTimeInfinity, 25.0};
  m.merge_row(1, row1, 50.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 2), 35.0);
}

TEST(MeetingMatrix, ThreeHopEstimateAndHopBound) {
  // Chain 0-1-2-3 (3 hops, reachable) and 0-1-2-3-4 (4 hops: unreachable
  // under the paper's h = 3 restriction).
  MeetingMatrix m(0, 5, 3);
  m.observe_meeting(1, 10);  // mean 10
  std::vector<Time> row1(5, kTimeInfinity);
  row1[2] = 20.0;
  m.merge_row(1, row1, 100.0);
  std::vector<Time> row2(5, kTimeInfinity);
  row2[3] = 30.0;
  m.merge_row(2, row2, 100.0);
  std::vector<Time> row3(5, kTimeInfinity);
  row3[4] = 40.0;
  m.merge_row(3, row3, 100.0);

  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 3), 60.0);      // 10+20+30
  EXPECT_EQ(m.expected_meeting_time(0, 4), kTimeInfinity);    // needs 4 hops
}

TEST(MeetingMatrix, PrefersCheaperPathOverFewerHops) {
  MeetingMatrix m(0, 4);
  m.observe_meeting(3, 1000);  // direct but slow: mean 1000
  m.observe_meeting(1, 10);    // note: changes gap accounting for node 1 only
  std::vector<Time> row1(4, kTimeInfinity);
  row1[3] = 5.0;
  m.merge_row(1, row1, 2000.0);
  // Direct mean to 3 is 1000; via 1 it is 10 + 5 = 15.
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 3), 15.0);
}

TEST(MeetingMatrix, EstimatesRecomputeAfterUpdates) {
  MeetingMatrix m(0, 3);
  m.observe_meeting(1, 100);
  EXPECT_EQ(m.expected_meeting_time(0, 2), kTimeInfinity);
  std::vector<Time> row1 = {kTimeInfinity, kTimeInfinity, 7.0};
  m.merge_row(1, row1, 500.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 2), 107.0);
  m.observe_meeting(1, 120);  // gaps 100, 20 -> mean 60
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(0, 2), 67.0);
}

TEST(MeetingMatrix, EstimatesForOtherSources) {
  // The matrix answers expected_meeting_time(from, to) for any known row,
  // which RAPID uses to reason about peers.
  MeetingMatrix m(0, 3);
  std::vector<Time> row1 = {3.0, kTimeInfinity, 4.0};
  m.merge_row(1, row1, 10.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(1, 2), 4.0);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(1, 0), 3.0);
}

TEST(MeetingMatrix, GenerationBumpsOnAcceptedMutationsOnly) {
  MeetingMatrix m(0, 3);
  const std::uint64_t g0 = m.generation();
  m.observe_meeting(1, 10);
  EXPECT_GT(m.generation(), g0);
  const std::uint64_t g1 = m.generation();
  std::vector<Time> row = {kTimeInfinity, kTimeInfinity, 50.0};
  EXPECT_TRUE(m.merge_row(1, row, 100.0));
  EXPECT_GT(m.generation(), g1);
  const std::uint64_t g2 = m.generation();
  // Rejected merges (stale stamp, own row) leave the generation unchanged —
  // cached estimates keyed on it stay valid.
  EXPECT_FALSE(m.merge_row(1, row, 100.0));
  EXPECT_FALSE(m.merge_row(0, row, 1e9));
  EXPECT_EQ(m.generation(), g2);
}

TEST(MeetingMatrix, LazyRowsReadAsInfinityUntilLearnt) {
  MeetingMatrix m(0, 4);
  // Nothing learnt about node 2: every entry of its row reads as infinity
  // (the diagonal is 0 by definition).
  EXPECT_EQ(m.share_row(2), nullptr);
  EXPECT_EQ(m.finite_count(2), 0);
  for (NodeId v = 0; v < 4; ++v)
    if (v != 2) EXPECT_EQ(m.direct_mean(2, v), kTimeInfinity) << v;
  EXPECT_EQ(m.expected_meeting_time(2, 3), kTimeInfinity);
  std::vector<Time> row(4, kTimeInfinity);
  row[3] = 12.0;
  ASSERT_TRUE(m.merge_row(2, row, 5.0));
  EXPECT_EQ(m.finite_count(2), 1);
  EXPECT_DOUBLE_EQ(m.direct_mean(2, 3), 12.0);
  EXPECT_EQ(m.direct_mean(2, 1), kTimeInfinity);
  EXPECT_DOUBLE_EQ(m.expected_meeting_time(2, 3), 12.0);
}

// A gossiped version is immutable: once another matrix adopted it, the
// owner's next observation must clone rather than edit in place.
TEST(MeetingMatrix, ObservingAfterShareClonesTheAdoptedVersion) {
  MeetingMatrix a(0, 4);
  MeetingMatrix b(1, 4);
  a.observe_meeting(2, 10);
  a.observe_meeting(3, 25);
  ASSERT_TRUE(b.merge_row(0, a.share_row(0)));
  const MeetingMatrix::RowPtr adopted = b.share_row(0);

  a.observe_meeting(2, 40);  // existing column: would be an in-place edit
  a.observe_meeting(1, 50);  // new column: would be an in-place insert
  EXPECT_NE(a.share_row(0), adopted);
  EXPECT_EQ(b.share_row(0), adopted);
  EXPECT_DOUBLE_EQ(b.row_stamp(0), 25.0);
  EXPECT_DOUBLE_EQ(b.direct_mean(0, 2), 10.0);
  EXPECT_DOUBLE_EQ(b.direct_mean(0, 3), 25.0);
  EXPECT_EQ(b.direct_mean(0, 1), kTimeInfinity);
  EXPECT_EQ(b.finite_count(0), 2);
  // The owner sees its own updates.
  EXPECT_DOUBLE_EQ(a.direct_mean(0, 2), 20.0);  // gaps 10, 30
  EXPECT_DOUBLE_EQ(a.direct_mean(0, 1), 50.0);
}

// Snapshot rows are dense on the wire and sparse in memory; a round trip
// through load must reproduce the bytes, the version sharing across
// matrices and the rows never learnt.
TEST(MeetingMatrix, SaveLoadSaveIsByteIdentical) {
  constexpr int kNodes = 6;
  MeetingMatrix a(0, kNodes);
  MeetingMatrix b(1, kNodes);
  a.observe_meeting(4, 10);
  a.observe_meeting(2, 15);
  b.observe_meeting(5, 12);
  ASSERT_TRUE(b.merge_row(0, a.share_row(0)));  // shared across matrices
  ASSERT_TRUE(a.merge_row(1, b.share_row(1)));
  std::vector<Time> row3(kNodes, kTimeInfinity);
  row3[5] = 9.0;
  row3[0] = 33.0;
  ASSERT_TRUE(b.merge_row(3, row3, 20.0));
  // Rows 3 (in a) and 2, 4 (in both) are never learnt.
  ASSERT_EQ(a.share_row(3), nullptr);

  const auto save_both = [](const MeetingMatrix& x, const MeetingMatrix& y) {
    std::ostringstream bytes;
    BinWriter writer(bytes);
    x.save(writer);
    y.save(writer);
    return bytes.str();
  };
  const std::string first = save_both(a, b);

  MeetingMatrix a2(0, kNodes);
  MeetingMatrix b2(1, kNodes);
  std::istringstream in(first);
  BinReader reader(in);
  a2.load(reader);
  b2.load(reader);
  EXPECT_EQ(save_both(a2, b2), first);

  EXPECT_EQ(a2.share_row(0), b2.share_row(0));
  EXPECT_EQ(a2.share_row(1), b2.share_row(1));
  EXPECT_EQ(a2.share_row(3), nullptr);
  EXPECT_EQ(a2.generation(), a.generation());
  for (NodeId u = 0; u < kNodes; ++u) {
    EXPECT_EQ(a2.finite_count(u), a.finite_count(u)) << u;
    EXPECT_EQ(b2.finite_count(u), b.finite_count(u)) << u;
    for (NodeId v = 0; v < kNodes; ++v) {
      EXPECT_EQ(a2.direct_mean(u, v), a.direct_mean(u, v)) << u << "->" << v;
      EXPECT_EQ(b2.direct_mean(u, v), b.direct_mean(u, v)) << u << "->" << v;
      EXPECT_EQ(b2.expected_meeting_time(u, v), b.expected_meeting_time(u, v));
    }
  }
  // Sharing replays, so the restored owner still clones before editing.
  a2.observe_meeting(4, 30);
  EXPECT_DOUBLE_EQ(b2.direct_mean(0, 4), 10.0);
  EXPECT_DOUBLE_EQ(a2.direct_mean(0, 4), 15.0);  // gaps 10, 20
}

// Reference h-hop estimates straight from the learnt rows: a full Jacobi
// sweep over every intermediate node with no memo, which is what an
// unbounded per-source memo would have returned. reference_row gives every
// destination at once; reference_meeting_time picks one.
std::vector<Time> reference_row(const MeetingMatrix& m, NodeId from, int max_hops) {
  const auto n = static_cast<std::size_t>(m.num_nodes());
  std::vector<Time> dist(n);
  for (std::size_t v = 0; v < n; ++v) dist[v] = m.direct_mean(from, static_cast<NodeId>(v));
  for (int round = 1; round < max_hops; ++round) {
    std::vector<Time> next = dist;
    for (std::size_t mid = 0; mid < n; ++mid) {
      if (dist[mid] == kTimeInfinity) continue;
      for (std::size_t v = 0; v < n; ++v) {
        if (v == mid) continue;
        const Time candidate =
            dist[mid] + m.direct_mean(static_cast<NodeId>(mid), static_cast<NodeId>(v));
        if (candidate < next[v]) next[v] = candidate;
      }
    }
    dist.swap(next);
  }
  return dist;
}

Time reference_meeting_time(const MeetingMatrix& m, NodeId from, NodeId to, int max_hops = 3) {
  if (from == to) return 0;
  return reference_row(m, from, max_hops)[static_cast<std::size_t>(to)];
}

// The h-hop memo keeps the owner's source and one other. Asking about every
// source in turn, interleaved with the owner and with the matrix changing in
// between, must return exactly the memo-free relaxation each time, and
// bytes() must not grow with the number of sources asked about.
TEST(MeetingMatrix, HopMemoHoldsTwoSourcesAndStaysExact) {
  constexpr int kNodes = 80;
  MeetingMatrix m(0, kNodes);
  for (NodeId u = 1; u < kNodes; ++u) {
    std::vector<Time> row(kNodes, kTimeInfinity);
    for (int k = 1; k <= 4; ++k) {
      const NodeId v = (u * 7 + k * 13) % kNodes;
      if (v != u) row[static_cast<std::size_t>(v)] = 5.0 + (u * k) % 17;
    }
    ASSERT_TRUE(m.merge_row(u, row, 1.0));
  }
  for (NodeId peer = 1; peer < 10; ++peer) m.observe_meeting(peer, 10.0 * peer);

  std::size_t first_bytes = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (NodeId s = 1; s < kNodes; ++s) {
      for (NodeId v = 0; v < kNodes; v += 3) {
        EXPECT_EQ(m.expected_meeting_time(s, v), reference_meeting_time(m, s, v))
            << s << "->" << v;
        EXPECT_EQ(m.expected_meeting_time(0, v), reference_meeting_time(m, 0, v)) << v;
      }
      if (pass == 0 && s == 1) first_bytes = m.bytes();
      // Re-meeting a known peer moves the own row in place: both memo slots
      // go stale, but no structure grows.
      if (s % 10 == 0) m.observe_meeting(1 + s % 9, 100.0 * (pass * kNodes + s));
    }
  }
  EXPECT_GT(first_bytes, 0u);
  EXPECT_EQ(m.bytes(), first_bytes);
}

// Differential check of the frontier relaxation against the full Jacobi
// reference, bit for bit: max_hops 1-5 on random sparse and dense matrices
// up to 300 nodes. Small integer weights make equal-cost ties common;
// fractional ones exercise rounding along long sums. Some rows list their
// own column, some are never learnt and some nodes are isolated
// (unreachable from everywhere). Both memo slots are exercised: the owner
// and other sources.
TEST(MeetingMatrix, RelaxationMatchesFullJacobiReferenceExactly) {
  std::mt19937 rng(20071);
  for (const int n : {12, 60, 300}) {
    for (const bool dense : {false, true}) {
      for (int hops = 1; hops <= 5; ++hops) {
        MeetingMatrix m(0, n, hops);
        std::uniform_real_distribution<double> unit(0.0, 1.0);
        const auto weight = [&] {
          return unit(rng) < 0.5 ? static_cast<Time>(1 + rng() % 4) : 0.1 + 9.9 * unit(rng);
        };
        const double density = dense ? 0.6 : 3.0 / n;
        for (NodeId u = 1; u < n; ++u) {
          if (u % 11 == 5) continue;  // never learnt: reads as all-infinity
          std::vector<Time> row(static_cast<std::size_t>(n), kTimeInfinity);
          for (NodeId v = 0; v < n; ++v) {
            if (v % 13 == 7) continue;  // isolated: no row reaches it
            if (unit(rng) < density) row[static_cast<std::size_t>(v)] = weight();
          }
          if (u % 5 == 0) row[static_cast<std::size_t>(u)] = weight();  // own column
          ASSERT_TRUE(m.merge_row(u, row, 1.0));
        }
        // The owner's row comes from meetings: gaps are measured from time 0.
        Time now = 0;
        for (NodeId v = 1; v < n; ++v) {
          if (v % 13 == 7 || unit(rng) >= density) continue;
          now += weight();
          m.observe_meeting(v, now);
        }
        for (const NodeId s : {NodeId{0}, NodeId{1}, static_cast<NodeId>(n / 2)}) {
          const std::vector<Time> expected = reference_row(m, s, hops);
          for (NodeId v = 0; v < n; ++v) {
            const Time want = v == s ? 0 : expected[static_cast<std::size_t>(v)];
            ASSERT_EQ(m.expected_meeting_time(s, v), want)
                << "n=" << n << " dense=" << dense << " hops=" << hops << " " << s << "->"
                << v;
          }
        }
      }
    }
  }
}

// A round extends paths only from the distances its frontier rows had
// before the round. Here row 1 improves node 2 (10 -> 2) in the same round
// that also scans row 2; extending from the improved value would reach node
// 3 (with max_hops 2) or node 4 (with max_hops 3) through one row too many.
TEST(MeetingMatrix, RoundsExtendPathsFromPreRoundDistancesOnly) {
  for (int hops = 2; hops <= 4; ++hops) {
    MeetingMatrix m(0, 5, hops);
    m.observe_meeting(1, 1.0);   // 0 -> 1: 1
    m.observe_meeting(2, 10.0);  // 0 -> 2: 10
    const Time inf = kTimeInfinity;
    ASSERT_TRUE(m.merge_row(1, {inf, inf, 1.0, inf, inf}, 1.0));
    ASSERT_TRUE(m.merge_row(2, {inf, inf, inf, 1.0, inf}, 1.0));
    ASSERT_TRUE(m.merge_row(3, {inf, inf, inf, inf, 1.0}, 1.0));
    const std::vector<Time> want[] = {
        {0, 1, 2, 11, inf},  // max_hops 2
        {0, 1, 2, 3, 12},    // max_hops 3
        {0, 1, 2, 3, 4},     // max_hops 4
    };
    for (NodeId v = 0; v < 5; ++v) {
      EXPECT_EQ(m.expected_meeting_time(0, v), want[hops - 2][static_cast<std::size_t>(v)])
          << "hops=" << hops << " v=" << v;
      EXPECT_EQ(m.expected_meeting_time(0, v), reference_meeting_time(m, 0, v, hops));
    }
  }
}

TEST(MeetingMatrix, InvalidArgumentsThrow) {
  EXPECT_THROW(MeetingMatrix(5, 3), std::invalid_argument);
  EXPECT_THROW(MeetingMatrix(0, 3, 0), std::invalid_argument);
  MeetingMatrix m(0, 3);
  EXPECT_THROW(m.observe_meeting(0, 1.0), std::invalid_argument);
  EXPECT_THROW(m.observe_meeting(5, 1.0), std::invalid_argument);
  EXPECT_THROW(m.merge_row(1, {1.0}, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace rapid
