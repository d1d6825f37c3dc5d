// Flat-state overhaul tests: the dense per-packet Buffer (capacity
// invariant, swap-erase order independence, for_each vs packet_ids
// agreement), the per-peer skip marks (reset at every contact begin and
// end, concurrent-peer isolation, many live marks in one contact), the
// incrementally maintained AgeOrder, the GlobalChannel span
// regression, and the enforced >= 2x
// speedup of the flat tables over the legacy hash-map shims they replaced
// (tests/support/legacy_map_shim.h, kept for exactly this PR).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <vector>

#include "core/control_channel.h"
#include "dtn/age_order.h"
#include "dtn/buffer.h"
#include "dtn/packet.h"
#include "dtn/router.h"
#include "support/legacy_map_shim.h"

namespace rapid {
namespace {

// --- flat Buffer --------------------------------------------------------------

TEST(FlatBuffer, CapacityInvariantHoldsThroughSwapErase) {
  Buffer buffer(4_KB);
  for (PacketId id = 0; id < 4; ++id) EXPECT_TRUE(buffer.insert(id, 1_KB));
  EXPECT_FALSE(buffer.insert(9, 1_KB));  // full
  EXPECT_EQ(buffer.used(), 4_KB);
  // Erase from the middle (swap-with-last) and the invariant must hold.
  EXPECT_TRUE(buffer.erase(1));
  EXPECT_EQ(buffer.used(), 3_KB);
  EXPECT_TRUE(buffer.insert(9, 1_KB));
  EXPECT_FALSE(buffer.fits(1));
  EXPECT_EQ(buffer.count(), 4u);
  for (PacketId id : {0, 2, 3, 9}) EXPECT_TRUE(buffer.contains(id));
  EXPECT_FALSE(buffer.contains(1));
}

TEST(FlatBuffer, SwapEraseMembershipIsOrderIndependent) {
  // Two buffers reach the same membership set via different insert/erase
  // interleavings; everything observable except packed order must agree.
  Buffer a(-1);
  Buffer b(-1);
  for (PacketId id = 0; id < 50; ++id) a.insert(id, 100 + id);
  for (PacketId id = 49; id >= 0; --id) b.insert(id, 100 + id);
  for (PacketId id = 0; id < 50; id += 3) a.erase(id);
  for (PacketId id = 48; id >= 0; id -= 3) b.erase(id - (id % 3));  // same ids
  std::vector<PacketId> ids_a = a.packet_ids();
  std::vector<PacketId> ids_b = b.packet_ids();
  std::sort(ids_a.begin(), ids_a.end());
  std::sort(ids_b.begin(), ids_b.end());
  EXPECT_EQ(ids_a, ids_b);
  EXPECT_EQ(a.used(), b.used());
  EXPECT_EQ(a.count(), b.count());
  for (PacketId id : ids_a) EXPECT_EQ(a.size_of(id), b.size_of(id));
}

TEST(FlatBuffer, ForEachAgreesWithPacketIdsAndEntries) {
  Buffer buffer(-1);
  for (PacketId id = 0; id < 31; ++id) buffer.insert(id * 7, 64 * (id + 1));
  for (PacketId id = 0; id < 31; id += 2) buffer.erase(id * 7);

  std::vector<std::pair<PacketId, Bytes>> via_for_each;
  buffer.for_each([&](PacketId id, Bytes size) { via_for_each.emplace_back(id, size); });

  const std::vector<PacketId> snapshot = buffer.packet_ids();
  ASSERT_EQ(via_for_each.size(), snapshot.size());
  ASSERT_EQ(via_for_each.size(), buffer.entries().size());
  for (std::size_t i = 0; i < via_for_each.size(); ++i) {
    EXPECT_EQ(via_for_each[i].first, snapshot[i]);  // same traversal order
    EXPECT_EQ(via_for_each[i].first, buffer.entries()[i].id);
    EXPECT_EQ(via_for_each[i].second, buffer.entries()[i].size);
    EXPECT_EQ(buffer.size_of(via_for_each[i].first), via_for_each[i].second);
  }
}

// --- skip marks ---------------------------------------------------------------

class SkipProbeRouter : public Router {
 public:
  using Router::Router;
  std::optional<PacketId> next_transfer(const ContactContext&, const PeerView&) override {
    return std::nullopt;
  }
  PacketId choose_drop_victim(const Packet&, Time) override { return kNoPacket; }
};

class EpochSkipTest : public ::testing::Test {
 protected:
  EpochSkipTest() {
    for (int i = 0; i < 3; ++i) {
      Packet p;
      p.src = 0;
      p.dst = 3;
      p.size = 1_KB;
      p.created = i;
      pool_.add(p);
    }
    ctx_.pool = &pool_;
    ctx_.num_nodes = 4;
    for (NodeId n = 0; n < 4; ++n)
      routers_.push_back(std::make_unique<SkipProbeRouter>(n, Bytes{-1}, &ctx_));
  }

  SkipProbeRouter& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  PacketPool pool_;
  SimContext ctx_;
  std::vector<std::unique_ptr<SkipProbeRouter>> routers_;
};

TEST_F(EpochSkipTest, MarksResetAcrossContactsWithoutClearing) {
  SkipProbeRouter& a = router(0);
  const PeerView peer_b(router(1));

  a.contact_begin(peer_b, 10.0, 0);
  EXPECT_FALSE(a.contact_skipped(0, 1));
  a.on_transfer_failed(pool_.get(0), peer_b, 10.0);
  EXPECT_TRUE(a.contact_skipped(0, 1));
  a.contact_end(peer_b, 11.0);
  // The mark is gone as soon as the contact ends.
  EXPECT_FALSE(a.contact_skipped(0, 1));

  // A fresh contact with the same peer starts clean.
  a.contact_begin(peer_b, 20.0, 0);
  EXPECT_FALSE(a.contact_skipped(0, 1));
  a.on_transfer_failed(pool_.get(1), peer_b, 20.0);
  EXPECT_TRUE(a.contact_skipped(1, 1));
  EXPECT_FALSE(a.contact_skipped(0, 1));  // old mark did not resurrect
  a.contact_end(peer_b, 21.0);
}

TEST_F(EpochSkipTest, ConcurrentPeersKeepIndependentMarks) {
  SkipProbeRouter& a = router(0);
  const PeerView peer_b(router(1));
  const PeerView peer_c(router(2));

  // Two sessions open on node 0 at once; the same packet gets rejected by
  // both peers. Neither peer's mark may clobber the other's.
  a.contact_begin(peer_b, 30.0, 0);
  a.contact_begin(peer_c, 30.0, 0);
  a.on_transfer_failed(pool_.get(0), peer_b, 30.0);
  a.on_transfer_failed(pool_.get(0), peer_c, 30.0);
  a.on_transfer_failed(pool_.get(1), peer_c, 30.0);
  EXPECT_TRUE(a.contact_skipped(0, 1));
  EXPECT_TRUE(a.contact_skipped(0, 2));
  EXPECT_FALSE(a.contact_skipped(1, 1));
  EXPECT_TRUE(a.contact_skipped(1, 2));

  // Closing the session with B clears only B's marks.
  a.contact_end(peer_b, 31.0);
  EXPECT_FALSE(a.contact_skipped(0, 1));
  EXPECT_TRUE(a.contact_skipped(0, 2));
  a.contact_end(peer_c, 31.0);
  EXPECT_FALSE(a.contact_skipped(0, 2));
}

// Marks for ids the pool does not hold: on_transfer_failed reads only p.id.
void reject(SkipProbeRouter& r, PacketId id, const PeerView& peer, Time now) {
  Packet p;
  p.id = id;
  r.on_transfer_failed(p, peer, now);
}

TEST_F(EpochSkipTest, MoreThan32LiveMarksInOneContactSurviveCompaction) {
  SkipProbeRouter& a = router(0);
  const PeerView peer_b(router(1));
  // A capped fleet-2k run holds up to 228 live marks at once; one contact
  // must keep every mark it made, however many.
  a.contact_begin(peer_b, 10.0, 0);
  for (PacketId id = 0; id < 100; ++id) reject(a, id * 3, peer_b, 10.0);
  for (PacketId id = 0; id < 300; ++id)
    EXPECT_EQ(a.contact_skipped(id, 1), id % 3 == 0) << id;
  // Marking again refreshes instead of duplicating.
  for (PacketId id = 0; id < 100; ++id) reject(a, id * 3, peer_b, 10.0);
  EXPECT_TRUE(a.contact_skipped(0, 1));
  EXPECT_TRUE(a.contact_skipped(297, 1));
  a.contact_end(peer_b, 11.0);
  for (PacketId id = 0; id < 300; ++id) EXPECT_FALSE(a.contact_skipped(id, 1)) << id;
}

TEST_F(EpochSkipTest, ConcurrentSessionsMarkTheSamePacketsForDifferentPeers) {
  SkipProbeRouter& a = router(0);
  const PeerView peer_b(router(1));
  const PeerView peer_c(router(2));
  a.contact_begin(peer_b, 30.0, 0);
  a.contact_begin(peer_c, 30.0, 0);
  // Interleaved: 40 packets rejected by both peers, 10 more by C only.
  for (PacketId id = 0; id < 40; ++id) {
    reject(a, id, peer_b, 30.0);
    reject(a, id, peer_c, 30.0);
  }
  for (PacketId id = 40; id < 50; ++id) reject(a, id, peer_c, 30.0);
  for (PacketId id = 0; id < 50; ++id) {
    EXPECT_EQ(a.contact_skipped(id, 1), id < 40) << id;
    EXPECT_TRUE(a.contact_skipped(id, 2)) << id;
    EXPECT_FALSE(a.contact_skipped(id, 3)) << id;  // no session, no marks
  }
  // B's session ends and C's keeps marking: ending B's session erases B's
  // marks, never C's.
  a.contact_end(peer_b, 31.0);
  for (PacketId id = 50; id < 90; ++id) reject(a, id, peer_c, 31.0);
  for (PacketId id = 0; id < 90; ++id) {
    EXPECT_FALSE(a.contact_skipped(id, 1)) << id;
    EXPECT_TRUE(a.contact_skipped(id, 2)) << id;
  }
  a.contact_end(peer_c, 32.0);
  for (PacketId id = 0; id < 90; ++id) EXPECT_FALSE(a.contact_skipped(id, 2)) << id;
}

TEST_F(EpochSkipTest, EpochBumpsMakeMarksStaleAndCompactionNeverRevivesThem) {
  SkipProbeRouter& a = router(0);
  const PeerView peer_b(router(1));
  a.contact_begin(peer_b, 10.0, 0);
  for (PacketId id = 0; id < 20; ++id) reject(a, id, peer_b, 10.0);
  // A second contact_begin with the same peer (no contact_end in between)
  // also erases the first contact's marks, and new marks do not bring them
  // back.
  a.contact_begin(peer_b, 20.0, 0);
  for (PacketId id = 0; id < 20; ++id) EXPECT_FALSE(a.contact_skipped(id, 1)) << id;
  for (PacketId id = 100; id < 140; ++id) reject(a, id, peer_b, 20.0);
  for (PacketId id = 0; id < 20; ++id) EXPECT_FALSE(a.contact_skipped(id, 1)) << id;
  for (PacketId id = 100; id < 140; ++id) EXPECT_TRUE(a.contact_skipped(id, 1)) << id;
  // Re-rejecting an old packet in this contact marks it afresh.
  reject(a, 5, peer_b, 20.0);
  EXPECT_TRUE(a.contact_skipped(5, 1));
  a.contact_end(peer_b, 21.0);
  EXPECT_FALSE(a.contact_skipped(5, 1));
  for (PacketId id = 100; id < 140; ++id) EXPECT_FALSE(a.contact_skipped(id, 1)) << id;
  a.contact_begin(peer_b, 30.0, 0);
  EXPECT_FALSE(a.contact_skipped(5, 1));
  EXPECT_FALSE(a.contact_skipped(120, 1));
}

// --- AgeOrder -----------------------------------------------------------------

TEST(AgeOrder, OrderIsIndependentOfInsertionAndRemovalHistory) {
  AgeOrder forward;
  AgeOrder scrambled;
  // Same final membership via different histories (ties in `created` too).
  const std::vector<std::pair<Time, PacketId>> items = {
      {5.0, 1}, {1.0, 2}, {5.0, 3}, {0.5, 4}, {9.0, 5}, {1.0, 6}};
  for (const auto& [t, id] : items) forward.insert(t, id);
  for (auto it = items.rbegin(); it != items.rend(); ++it) scrambled.insert(it->first, it->second);
  scrambled.insert(7.0, 99);
  scrambled.remove(7.0, 99);  // swap-erase from the middle flips the dirty flag
  forward.insert(7.0, 99);
  forward.remove(7.0, 99);
  EXPECT_EQ(forward.entries(), scrambled.entries());
  // (created, id) ascending — a total order.
  const auto& e = forward.entries();
  EXPECT_TRUE(std::is_sorted(e.begin(), e.end()));
  EXPECT_EQ(e.front(), (std::pair<Time, PacketId>{0.5, 4}));
  EXPECT_EQ(e.back(), (std::pair<Time, PacketId>{9.0, 5}));
}

TEST(AgeOrder, SwapRemoveMarksDirtyAndResortsLazily) {
  AgeOrder order;
  for (PacketId id = 0; id < 10; ++id) order.insert(static_cast<Time>(id), id);
  EXPECT_FALSE(order.dirty());
  order.remove(3.0, 3);  // middle removal → swap perturbs the tail
  EXPECT_TRUE(order.dirty());
  const auto& e = order.entries();  // read re-sorts
  EXPECT_FALSE(order.dirty());
  EXPECT_TRUE(std::is_sorted(e.begin(), e.end()));
  EXPECT_EQ(e.size(), 9u);
}

// --- GlobalChannel span regression --------------------------------------------

TEST(GlobalChannelSpan, HoldersSurviveMutationWithoutStaticAliasing) {
  GlobalChannel channel;
  // Unknown packet: empty span, no shared sentinel that a later add could
  // repopulate behind the caller's back.
  const Span<NodeId> before = channel.holders(7);
  EXPECT_TRUE(before.empty());

  channel.add_holder(7, 3);
  channel.add_holder(7, 5);
  channel.add_holder(7, 9);
  EXPECT_TRUE(before.empty());  // the earlier value is still empty
  Span<NodeId> now = channel.holders(7);
  ASSERT_EQ(now.size(), 3u);
  EXPECT_EQ(now[0], 3);
  EXPECT_EQ(now[1], 5);
  EXPECT_EQ(now[2], 9);

  // Removing a holder keeps the slab entry alive: a span re-queried after
  // the mutation sees the shrunken, order-preserved set.
  channel.remove_holder(7, 5);
  now = channel.holders(7);
  ASSERT_EQ(now.size(), 2u);
  EXPECT_EQ(now[0], 3);
  EXPECT_EQ(now[1], 9);

  // Removing the last holders leaves an empty span, and a fresh add starts
  // from a clean set.
  channel.remove_holder(7, 3);
  channel.remove_holder(7, 9);
  EXPECT_TRUE(channel.holders(7).empty());
  channel.add_holder(7, 1);
  ASSERT_EQ(channel.holders(7).size(), 1u);
  EXPECT_EQ(channel.holders(7)[0], 1);

  EXPECT_FALSE(channel.is_delivered(7));
  channel.mark_delivered(7);
  EXPECT_TRUE(channel.is_delivered(7));
}

// --- enforced flat-vs-map speedup ratios --------------------------------------

// Wall-clock ratio harness: runs each side several times interleaved and
// compares the best (least-noisy) samples. The margins below are ~5-20x in
// practice; the enforced bound is the >= 2x the overhaul promises.
template <typename FlatFn, typename MapFn>
double best_ratio(FlatFn&& flat, MapFn&& map, int rounds) {
  using Clock = std::chrono::steady_clock;
  double best_flat = 1e30;
  double best_map = 1e30;
  for (int r = 0; r < rounds; ++r) {
    const auto t0 = Clock::now();
    flat();
    const auto t1 = Clock::now();
    map();
    const auto t2 = Clock::now();
    best_flat = std::min(best_flat, std::chrono::duration<double>(t1 - t0).count());
    best_map = std::min(best_map, std::chrono::duration<double>(t2 - t1).count());
  }
  return best_map / best_flat;
}

TEST(FlatStateRatio, BufferScanAtLeastTwiceAsFastAsLegacyMap) {
#ifndef NDEBUG
  GTEST_SKIP() << "wall-clock ratio is only meaningful in optimized builds";
#endif
  constexpr int kPackets = 20000;
  constexpr int kReps = 60;
  Buffer flat(-1);
  testing::LegacyMapBuffer legacy(-1);
  for (PacketId id = 0; id < kPackets; ++id) {
    flat.insert(id, 1_KB);
    legacy.insert(id, 1_KB);
  }
  volatile Bytes sink = 0;
  const auto scan_flat = [&] {
    Bytes total = 0;
    for (int r = 0; r < kReps; ++r)
      flat.for_each([&](PacketId, Bytes size) { total += size; });
    sink = total;
  };
  const auto scan_map = [&] {
    Bytes total = 0;
    for (int r = 0; r < kReps; ++r)
      legacy.for_each([&](PacketId, Bytes size) { total += size; });
    sink = total;
  };
  const double ratio = best_ratio(scan_flat, scan_map, 5);
  RecordProperty("buffer_scan_speedup_x100", static_cast<int>(ratio * 100));
  EXPECT_GE(ratio, 2.0) << "flat Buffer scan must be >= 2x the legacy map scan";
}

TEST(FlatStateRatio, AckLookupAtLeastTwiceAsFastAsLegacyMap) {
#ifndef NDEBUG
  GTEST_SKIP() << "wall-clock ratio is only meaningful in optimized builds";
#endif
  constexpr int kPackets = 20000;
  constexpr int kReps = 40;
  AckTable flat;
  testing::LegacyAckMap legacy;
  for (PacketId id = 0; id < kPackets; id += 2) {  // half present, half absent
    flat.insert(id, static_cast<Time>(id));
    legacy.insert(id, static_cast<Time>(id));
  }
  volatile std::uint64_t sink = 0;
  const auto probe_flat = [&] {
    std::uint64_t hits = 0;
    for (int r = 0; r < kReps; ++r)
      for (PacketId id = 0; id < kPackets; ++id) hits += flat.contains(id) ? 1u : 0u;
    sink = hits;
  };
  const auto probe_map = [&] {
    std::uint64_t hits = 0;
    for (int r = 0; r < kReps; ++r)
      for (PacketId id = 0; id < kPackets; ++id) hits += legacy.knows_ack(id) ? 1u : 0u;
    sink = hits;
  };
  const double ratio = best_ratio(probe_flat, probe_map, 5);
  RecordProperty("ack_lookup_speedup_x100", static_cast<int>(ratio * 100));
  EXPECT_GE(ratio, 2.0) << "flat ack lookup must be >= 2x the legacy map lookup";
}

}  // namespace
}  // namespace rapid
