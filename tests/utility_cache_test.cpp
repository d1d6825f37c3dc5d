// Tests for the incremental utility engine (core/utility_cache.h): flat
// destination-queue storage, the memo slots kept beside queued packets,
// and — via a RapidRouter — the invalidation edges: ack arrival, replica
// learned through metadata, meeting-matrix generation bump, and
// expiry-driven eviction mid-contact. Each edge must dirty exactly the
// affected packets, asserted with the cache's probe counters. A final test
// locks in the headline property: a cached simulation performs several times
// fewer utility recomputations than the eager path while producing identical
// results.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/rapid_router.h"
#include "core/utility_cache.h"
#include "dtn/contact.h"
#include "dtn/metrics.h"
#include "runner/scenario_registry.h"
#include "sim/experiment.h"

namespace rapid {
namespace {

// --- flat queue storage -------------------------------------------------------

UtilityCache::QueueEntry entry(Time created, PacketId id, Bytes size = 1_KB) {
  return UtilityCache::QueueEntry{created, id, size};
}

TEST(UtilityCacheQueues, MaintainsAgeOrderAndGenerations) {
  UtilityCache cache(4);
  EXPECT_EQ(cache.queue_generation(2), 0u);
  cache.queue_insert(2, entry(30.0, 3));
  cache.queue_insert(2, entry(10.0, 1));
  cache.queue_insert(2, entry(20.0, 2));
  ASSERT_EQ(cache.queue(2).size(), 3u);
  EXPECT_EQ(cache.queue(2)[0].id, 1);
  EXPECT_EQ(cache.queue(2)[1].id, 2);
  EXPECT_EQ(cache.queue(2)[2].id, 3);
  EXPECT_EQ(cache.queue_generation(2), 3u);
  EXPECT_EQ(cache.queue_generation(1), 0u);  // untouched destination

  cache.queue_erase(2, entry(20.0, 2));
  EXPECT_EQ(cache.queue(2).size(), 2u);
  EXPECT_EQ(cache.queue_generation(2), 4u);
  // Erasing an absent entry is a no-op and must not dirty the queue.
  cache.queue_erase(2, entry(20.0, 2));
  EXPECT_EQ(cache.queue_generation(2), 4u);
}

TEST(UtilityCacheQueues, BytesBeforeUniformAndMixed) {
  UtilityCache cache(2);
  for (int i = 0; i < 5; ++i) cache.queue_insert(1, entry(10.0 * i, i, 2_KB));
  // Uniform fast path: position * size.
  EXPECT_EQ(cache.locate(1, entry(25.0, 99, 2_KB)).bytes_ahead, 3 * 2_KB);
  EXPECT_EQ(cache.locate(1, entry(0.0, -5)).bytes_ahead, 0);
  EXPECT_EQ(cache.locate(1, entry(1000.0, 99)).bytes_ahead, 5 * 2_KB);  // whole queue ahead
  // A different size forces the exact prefix scan; results must agree with
  // the sum the eager engine computed.
  cache.queue_insert(1, entry(15.0, 50, 1_KB));
  EXPECT_EQ(cache.locate(1, entry(25.0, 99)).bytes_ahead, 3 * 2_KB + 1_KB);
  // Removing the odd size restores the uniform fast path.
  cache.queue_erase(1, entry(15.0, 50));
  EXPECT_EQ(cache.locate(1, entry(25.0, 99)).bytes_ahead, 3 * 2_KB);
}

TEST(UtilityCacheQueues, ForEachQueueVisitsAscendingNonEmpty) {
  UtilityCache cache(5);
  cache.queue_insert(3, entry(1.0, 1));
  cache.queue_insert(0, entry(2.0, 2));
  std::vector<NodeId> visited;
  cache.for_each_queue([&](NodeId dst, const std::vector<UtilityCache::QueueEntry>&,
                           UtilityCache::Memo*) {
    visited.push_back(dst);
    return true;
  });
  EXPECT_EQ(visited, (std::vector<NodeId>{0, 3}));
  // Returning false stops the walk early.
  visited.clear();
  cache.for_each_queue([&](NodeId dst, const std::vector<UtilityCache::QueueEntry>&,
                           UtilityCache::Memo*) {
    visited.push_back(dst);
    return false;
  });
  EXPECT_EQ(visited, (std::vector<NodeId>{0}));
}

// --- memo slots in the destination queue --------------------------------------

// Counts compute() calls; each call returns the next multiple of 10.
struct Evaluations {
  int calls = 0;
  auto next() {
    return [this] { return 10.0 * ++calls; };
  }
};

TEST(UtilityCacheQueueMemo, HitNeedsEveryInputEqual) {
  UtilityCache cache(2);
  cache.queue_insert(1, entry(10.0, 7));
  UtilityCache::Memo* memo = cache.locate(1, entry(10.0, 7)).memo;
  ASSERT_NE(memo, nullptr);
  Evaluations ev;
  const UtilityCache::DelayInputs base{1_KB, 100_KB, 300.0};
  EXPECT_DOUBLE_EQ(cache.direct_delay(memo, base, ev.next()), 10.0);
  EXPECT_DOUBLE_EQ(cache.direct_delay(memo, base, ev.next()), 10.0);  // hit
  EXPECT_EQ(ev.calls, 1);
  // Each delay input on its own dirties the slot.
  UtilityCache::DelayInputs moved = base;
  moved.bytes_ahead = 2_KB;
  EXPECT_DOUBLE_EQ(cache.direct_delay(memo, moved, ev.next()), 20.0);
  moved = base;
  moved.opportunity = 50_KB;
  EXPECT_DOUBLE_EQ(cache.direct_delay(memo, moved, ev.next()), 30.0);
  moved = base;
  moved.meeting_time = 450.0;
  EXPECT_DOUBLE_EQ(cache.direct_delay(memo, moved, ev.next()), 40.0);
  EXPECT_EQ(cache.stats().delay_hits, 1u);
  EXPECT_EQ(cache.stats().delay_recomputes, 4u);

  const UtilityCache::RateInputs rate_base{base, 5, true};
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_base, ev.next()), 50.0);
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_base, ev.next()), 50.0);  // hit
  UtilityCache::RateInputs rate_moved = rate_base;
  rate_moved.metadata_gen = 6;
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_moved, ev.next()), 60.0);
  rate_moved = rate_base;
  rate_moved.in_buffer = false;
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_moved, ev.next()), 70.0);
  rate_moved = rate_base;
  rate_moved.delay.meeting_time = 450.0;
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_moved, ev.next()), 80.0);
  EXPECT_EQ(cache.stats().rate_hits, 1u);
  EXPECT_EQ(cache.stats().rate_recomputes, 4u);
}

TEST(UtilityCacheQueueMemo, MemoFollowsItsPacketAcrossQueueEdits) {
  UtilityCache cache(2);
  const UtilityCache::QueueEntry a = entry(10.0, 1);
  const UtilityCache::QueueEntry b = entry(20.0, 2);
  cache.queue_insert(1, a);
  cache.queue_insert(1, b);
  const auto delay_of = [&](const UtilityCache::QueueEntry& e, double fresh, int& calls) {
    const UtilityCache::Location at = cache.locate(1, e);
    return cache.direct_delay(at.memo, UtilityCache::DelayInputs{at.bytes_ahead, 100_KB, 300.0},
                              [&] {
                                ++calls;
                                return fresh;
                              });
  };
  int calls = 0;
  EXPECT_DOUBLE_EQ(delay_of(a, 1.0, calls), 1.0);
  EXPECT_DOUBLE_EQ(delay_of(b, 2.0, calls), 2.0);
  EXPECT_EQ(calls, 2);

  // A newer packet queues behind both: neither prefix moved, both still hit.
  cache.queue_insert(1, entry(30.0, 3));
  EXPECT_DOUBLE_EQ(delay_of(a, -1.0, calls), 1.0);
  EXPECT_DOUBLE_EQ(delay_of(b, -1.0, calls), 2.0);
  EXPECT_EQ(calls, 2);

  // An older packet inserted ahead shifts both slots by one position. Each
  // memo moved with its packet (it still holds that packet's value) ...
  const UtilityCache::QueueEntry older = entry(5.0, 4);
  cache.queue_insert(1, older);
  const UtilityCache::Memo* moved_b = cache.locate(1, b).memo;
  ASSERT_NE(moved_b, nullptr);
  EXPECT_TRUE(moved_b->delay_valid);
  EXPECT_DOUBLE_EQ(moved_b->delay, 2.0);
  EXPECT_EQ(moved_b->inputs.bytes_ahead, 1_KB);
  // ... and the moved prefix forces a recompute.
  EXPECT_EQ(cache.locate(1, b).bytes_ahead, 2_KB);
  EXPECT_DOUBLE_EQ(delay_of(a, 3.0, calls), 3.0);
  EXPECT_DOUBLE_EQ(delay_of(b, 4.0, calls), 4.0);
  EXPECT_EQ(calls, 4);

  // Erasing the older packet shifts them back: each memo follows again, and
  // the prefix moving back is one more recompute, not a stale hit.
  cache.queue_erase(1, older);
  EXPECT_DOUBLE_EQ(cache.locate(1, b).memo->delay, 4.0);
  EXPECT_DOUBLE_EQ(delay_of(a, 5.0, calls), 5.0);
  EXPECT_DOUBLE_EQ(delay_of(b, 6.0, calls), 6.0);
  EXPECT_EQ(calls, 6);
  EXPECT_DOUBLE_EQ(delay_of(b, -1.0, calls), 6.0);  // settled: hits again
  EXPECT_EQ(calls, 6);
}

TEST(UtilityCacheQueueMemo, EraseThenReinsertStartsCold) {
  UtilityCache cache(2);
  const UtilityCache::QueueEntry a = entry(10.0, 1);
  const UtilityCache::DelayInputs inputs{0, 100_KB, 300.0};
  const UtilityCache::RateInputs rate_inputs{inputs, 1, true};
  cache.queue_insert(1, a);
  UtilityCache::Memo* memo = cache.locate(1, a).memo;
  cache.rate(memo, rate_inputs,
             [&] { return cache.direct_delay(memo, inputs, [] { return 2.0; }); });
  EXPECT_EQ(cache.tracked_packets(), 1u);

  // Dropped and stored again with identical inputs: nothing survives the
  // erase, so both values are recomputed.
  cache.queue_erase(1, a);
  EXPECT_EQ(cache.locate(1, a).memo, nullptr);
  cache.queue_insert(1, a);
  memo = cache.locate(1, a).memo;
  ASSERT_NE(memo, nullptr);
  EXPECT_FALSE(memo->delay_valid);
  EXPECT_FALSE(memo->rate_valid);
  int calls = 0;
  EXPECT_DOUBLE_EQ(cache.direct_delay(memo, inputs,
                                      [&] {
                                        ++calls;
                                        return 3.0;
                                      }),
                   3.0);
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_inputs,
                              [&] {
                                ++calls;
                                return 4.0;
                              }),
                   4.0);
  EXPECT_EQ(calls, 2);
  // The slot count is a high-water mark: one packet was queued at a time.
  EXPECT_EQ(cache.tracked_packets(), 1u);
}

TEST(UtilityCacheQueueMemo, UnqueuedPacketComputesEveryCallAndStoresNothing) {
  UtilityCache cache(2);
  // `queued` is at the position an unqueued probe with the same creation
  // time and a smaller id sorts to, so a slot served by position alone
  // would be the wrong packet's.
  const UtilityCache::QueueEntry queued = entry(10.0, 5);
  const UtilityCache::QueueEntry probe = entry(10.0, 4);
  cache.queue_insert(1, queued);
  const UtilityCache::DelayInputs inputs{0, 100_KB, 300.0};
  UtilityCache::Memo* memo = cache.locate(1, queued).memo;
  cache.rate(memo, UtilityCache::RateInputs{inputs, 1, true},
             [&] { return cache.direct_delay(memo, inputs, [] { return 7.0; }); });

  const UtilityCache::Location at = cache.locate(1, probe);
  EXPECT_EQ(at.memo, nullptr);
  EXPECT_EQ(at.bytes_ahead, 0);
  EXPECT_EQ(cache.locate(0, probe).memo, nullptr);  // destination never queued
  const UtilityCacheStats before = cache.stats();
  int calls = 0;
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(cache.direct_delay(at.memo, inputs,
                                        [&] {
                                          ++calls;
                                          return 9.0;
                                        }),
                     9.0);
    EXPECT_DOUBLE_EQ(cache.rate(at.memo, UtilityCache::RateInputs{inputs, 1, true},
                                [&] {
                                  ++calls;
                                  return 11.0;
                                }),
                     11.0);
  }
  EXPECT_EQ(calls, 6);
  EXPECT_EQ(cache.stats().delay_hits, before.delay_hits);
  EXPECT_EQ(cache.stats().rate_hits, before.rate_hits);
  EXPECT_EQ(cache.stats().delay_recomputes, before.delay_recomputes + 3);
  EXPECT_EQ(cache.stats().rate_recomputes, before.rate_recomputes + 3);
  // The queued packet's slot is untouched by the probe's evaluations.
  EXPECT_DOUBLE_EQ(memo->delay, 7.0);
  EXPECT_DOUBLE_EQ(memo->rate, 7.0);
  EXPECT_EQ(cache.tracked_packets(), 1u);
}

TEST(UtilityCacheQueueMemo, RateComputeFillsTheSameSlotsDelay) {
  UtilityCache cache(2);
  cache.queue_insert(1, entry(10.0, 1));
  UtilityCache::Memo* memo = cache.locate(1, entry(10.0, 1)).memo;
  const UtilityCache::DelayInputs inputs{0, 100_KB, 300.0};
  const UtilityCache::RateInputs rate_inputs{inputs, 3, true};
  int delay_calls = 0;
  const auto delay = [&] {
    return cache.direct_delay(memo, inputs, [&] {
      ++delay_calls;
      return 4.0;
    });
  };
  // The rate recompute computes the self delay into the same slot; storing
  // the rate under the same delay inputs keeps that delay valid.
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_inputs, [&] { return 1.0 / delay(); }), 0.25);
  EXPECT_EQ(delay_calls, 1);
  EXPECT_DOUBLE_EQ(delay(), 4.0);
  EXPECT_EQ(delay_calls, 1);
  EXPECT_EQ(cache.stats().delay_hits, 1u);
  EXPECT_DOUBLE_EQ(cache.rate(memo, rate_inputs, [] { return -1.0; }), 0.25);
  EXPECT_EQ(cache.stats().rate_hits, 1u);
}

// --- invalidation edges through a RapidRouter ---------------------------------

class InvalidationEdgeTest : public ::testing::Test {
 protected:
  // Nodes: 0 = router under test, 1 = peer/relay, 2 and 3 = destinations.
  void init(const RapidConfig& config, Bytes capacity = -1) {
    ctx_.pool = &pool_;
    ctx_.metrics = &metrics_;
    ctx_.num_nodes = 4;
    ctx_.oracle = &oracle_;
    oracle_.reset(4);
    for (NodeId n = 0; n < 4; ++n) {
      routers_.push_back(std::make_unique<RapidRouter>(
          n, n == 0 ? capacity : Bytes{-1}, &ctx_, config, nullptr));
      oracle_.set(n, routers_.back().get());
    }
  }

  RapidRouter& router(NodeId n) { return *routers_[static_cast<std::size_t>(n)]; }

  PacketId make_packet(NodeId src, NodeId dst, Time created,
                       Time deadline = kTimeInfinity) {
    Packet p;
    p.src = src;
    p.dst = dst;
    p.size = 1_KB;
    p.created = created;
    p.deadline = deadline;
    const PacketId id = pool_.add(p);
    MeetingSchedule s;
    s.num_nodes = 4;
    s.duration = 100000;
    metrics_.begin(pool_, s);
    return id;
  }

  // Three packets each to destinations 2 and 3, received as a relay (src 1)
  // so eviction tests are not blocked by source protection.
  void seed_and_warm() {
    for (int i = 0; i < 3; ++i) group_a_.push_back(receive(2, static_cast<Time>(i)));
    for (int i = 0; i < 3; ++i) group_b_.push_back(receive(3, 3.0 + static_cast<Time>(i)));
    probe();  // fill the cache
  }

  PacketId receive(NodeId dst, Time created, Time deadline = kTimeInfinity) {
    const PacketId id = make_packet(1, dst, created, deadline);
    EXPECT_EQ(router(0).receive_copy(pool_.get(id), PeerView(router(1)), 0, created),
              ReceiveOutcome::kStored);
    return id;
  }

  // Evaluates the rate of every still-buffered seeded packet and returns the
  // probe-counter deltas of the evaluation.
  UtilityCacheStats probe() {
    const UtilityCacheStats before = router(0).utility_cache().stats();
    for (const PacketId id : group_a_)
      if (router(0).buffer().contains(id)) router(0).replica_rate(pool_.get(id));
    for (const PacketId id : group_b_)
      if (router(0).buffer().contains(id)) router(0).replica_rate(pool_.get(id));
    const UtilityCacheStats& after = router(0).utility_cache().stats();
    return UtilityCacheStats{after.delay_hits - before.delay_hits,
                             after.delay_recomputes - before.delay_recomputes,
                             after.rate_hits - before.rate_hits,
                             after.rate_recomputes - before.rate_recomputes};
  }

  PacketPool pool_;
  MetricsCollector metrics_;
  SimContext ctx_;
  RouterOracle oracle_;
  std::vector<std::unique_ptr<RapidRouter>> routers_;
  std::vector<PacketId> group_a_;  // destination 2
  std::vector<PacketId> group_b_;  // destination 3
};

TEST_F(InvalidationEdgeTest, SteadyStateProbesAllHit) {
  init(RapidConfig{});
  seed_and_warm();
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 0u);
  EXPECT_EQ(delta.delay_recomputes, 0u);
  EXPECT_EQ(delta.rate_hits, 6u);
}

TEST_F(InvalidationEdgeTest, AckArrivalDirtiesOnlyTheAckedDestination) {
  init(RapidConfig{});
  seed_and_warm();
  // Delivery ack for one destination-2 packet: purges it, shortens that
  // queue, and must leave destination 3's estimates untouched.
  PeerView(router(0)).learn_ack(group_a_[0], 50.0);
  EXPECT_FALSE(router(0).buffer().contains(group_a_[0]));
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 2u);   // the two surviving dst-2 packets
  EXPECT_EQ(delta.delay_recomputes, 2u);  // their queue positions moved
  EXPECT_EQ(delta.rate_hits, 3u);         // all of destination 3 still hits
}

TEST_F(InvalidationEdgeTest, MetadataReplicaDirtiesExactlyThatPacket) {
  init(RapidConfig{});
  seed_and_warm();
  // A replica of one packet materializes at node 2's router (learned through
  // the post-transfer metadata hand-off): only that packet's rate sum is
  // stale; queue positions and every other packet are untouched.
  router(0).on_transfer_success(pool_.get(group_a_[0]), PeerView(router(3)),
                                ReceiveOutcome::kStored, 60.0);
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 1u);
  EXPECT_EQ(delta.delay_recomputes, 0u);  // no queue or matrix change
  EXPECT_EQ(delta.rate_hits, 5u);
}

TEST_F(InvalidationEdgeTest, MeetingTimeMoveDirtiesOnlyAffectedDestinations) {
  init(RapidConfig{});
  // Meet destination 2 twice so E[M](0,2) is finite before warming the cache.
  router(0).contact_begin(PeerView(router(2)), 10.0, 0);
  router(0).contact_begin(PeerView(router(2)), 30.0, 0);
  seed_and_warm();
  // A third meeting moves the running inter-meeting mean for destination 2
  // (matrix generation bump): its packets recompute. Destination 3 remains
  // unreachable — its meeting-time estimate did not move, so a contact that
  // merely perturbed the matrix costs it nothing.
  router(0).contact_begin(PeerView(router(2)), 60.0, 0);
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 3u);
  EXPECT_EQ(delta.delay_recomputes, 3u);
  EXPECT_EQ(delta.rate_hits, 3u);
}

TEST_F(InvalidationEdgeTest, ExpiryEvictionMidContactDirtiesAffectedQueuesOnly) {
  RapidConfig config;
  config.metric = RoutingMetric::kMissedDeadlines;
  init(config, 6_KB);  // room for exactly the six seeded packets
  // First destination-2 packet expires at t=10; everything else is viable.
  group_a_.push_back(receive(2, 0.0, 10.0));
  group_a_.push_back(receive(2, 1.0, 10000.0));
  group_a_.push_back(receive(2, 2.0, 10000.0));
  group_b_.push_back(receive(3, 3.0, 10000.0));
  group_b_.push_back(receive(3, 4.0, 10000.0));
  group_b_.push_back(receive(3, 5.0, 10000.0));
  probe();

  // A seventh packet arrives mid-contact after the deadline passed: the
  // expired packet is the designated drop victim (§3.4 lowest utility
  // first). Its eviction and the arrival both edit destination-2's queue;
  // destination 3 must keep hitting.
  const PacketId incoming = receive(2, 100.0, 10000.0);
  EXPECT_FALSE(router(0).buffer().contains(group_a_[0]));  // expired copy gone
  group_a_[0] = incoming;
  const UtilityCacheStats delta = probe();
  EXPECT_EQ(delta.rate_recomputes, 3u);  // dst-2 survivors + the new arrival
  EXPECT_EQ(delta.rate_hits, 3u);        // dst 3 untouched
}

// --- whole-simulation recomputation savings -----------------------------------

TEST(UtilityCacheSavings, PowerlawLargeRecomputesAtLeastThreeTimesLess) {
  // One run of the registered powerlaw-large scenario (500 nodes, >= 10k
  // packets), eager vs cached. The cached run must deliver identical results
  // (the dual-path figure tests in runner_test.cpp cover full bit-identity)
  // with >= 3x fewer utility recomputations — the acceptance bar for the
  // incremental engine.
  ScenarioConfig config = runner::ScenarioRegistry::global().make("powerlaw-large");
  const Scenario scenario(config);
  const Instance inst = scenario.instance(0, 3.0);

  const auto run = [&](bool cached) {
    RunSpec spec;
    spec.protocol = ProtocolKind::kRapid;
    spec.rapid_incremental_cache = cached;
    reset_utility_cache_global_stats();
    const SimResult result = run_instance(scenario, inst, spec);
    return std::make_pair(result, utility_cache_global_stats());
  };

  const auto [eager_result, eager_stats] = run(false);
  const auto [cached_result, cached_stats] = run(true);

  EXPECT_EQ(eager_result.delivered, cached_result.delivered);
  EXPECT_EQ(eager_result.avg_delay, cached_result.avg_delay);
  EXPECT_EQ(eager_result.data_bytes, cached_result.data_bytes);
  ASSERT_GT(cached_stats.recomputes(), 0u);
  EXPECT_GE(eager_stats.recomputes(), 3 * cached_stats.recomputes())
      << "eager=" << eager_stats.recomputes() << " cached=" << cached_stats.recomputes();
}

}  // namespace
}  // namespace rapid
