// Micro-benchmarks (google-benchmark) for the hot paths of the library:
// Estimate Delay arithmetic, meeting-matrix recomputation, the metadata
// store, DAG_DELAY distribution algebra, the LP solver, and a full small
// simulation. Also covers the meetings_needed literal-vs-corrected ablation
// called out in DESIGN.md, the replica_rate eager-vs-cached regression pair,
// and the powerlaw-large utility-cache comparison (the `recomputes` counter
// of the cached run must be >= 3x smaller than the eager run's).
#include <benchmark/benchmark.h>

#include <memory>
#include <vector>

#include "../tests/support/legacy_map_shim.h"

#include "core/dag_delay.h"
#include "core/delay_estimator.h"
#include "core/meeting_matrix.h"
#include "core/metadata.h"
#include "core/rapid_router.h"
#include "core/utility_cache.h"
#include "dtn/metrics.h"
#include "dtn/workload.h"
#include "mobility/exponential_model.h"
#include "opt/simplex.h"
#include "runner/scenario_registry.h"
#include "sim/engine.h"
#include "sim/experiment.h"
#include "sim/protocols.h"
#include "util/rng.h"

namespace rapid {
namespace {

void BM_MeetingsNeeded(benchmark::State& state) {
  Bytes ahead = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(meetings_needed(ahead, 1_KB, 100_KB));
    ahead = (ahead + 1_KB) % 1_MB;
  }
}
BENCHMARK(BM_MeetingsNeeded);

void BM_MeetingsNeededLiteral(benchmark::State& state) {
  Bytes ahead = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(meetings_needed_literal(ahead, 100_KB));
    ahead = (ahead + 1_KB) % 1_MB;
  }
}
BENCHMARK(BM_MeetingsNeededLiteral);

void BM_CombinedRate(benchmark::State& state) {
  std::vector<double> delays;
  for (int i = 1; i <= state.range(0); ++i) delays.push_back(100.0 * i);
  for (auto _ : state) benchmark::DoNotOptimize(combined_rate(delays));
}
BENCHMARK(BM_CombinedRate)->Arg(2)->Arg(8)->Arg(32);

void BM_EstimateDelaySnapshot(benchmark::State& state) {
  QueueSnapshot snapshot;
  const int nodes = static_cast<int>(state.range(0));
  Rng rng(1);
  snapshot.queues.resize(static_cast<std::size_t>(nodes));
  snapshot.meeting_rate.assign(static_cast<std::size_t>(nodes), 0.05);
  PacketId id = 0;
  for (auto& q : snapshot.queues)
    for (int i = 0; i < 50; ++i) q.push_back(id++ % 200);
  for (auto _ : state) benchmark::DoNotOptimize(estimate_delay_snapshot(snapshot));
}
BENCHMARK(BM_EstimateDelaySnapshot)->Arg(4)->Arg(16)->Arg(40);

void BM_MeetingMatrixRecompute(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  MeetingMatrix matrix(0, n);
  Rng rng(2);
  for (NodeId u = 1; u < n; ++u) {
    std::vector<Time> row(static_cast<std::size_t>(n), kTimeInfinity);
    for (NodeId v = 0; v < n; ++v)
      if (v != u && rng.bernoulli(0.3)) row[static_cast<std::size_t>(v)] = rng.uniform(60, 7200);
    matrix.merge_row(u, row, static_cast<Time>(u));
  }
  int flip = 0;
  for (auto _ : state) {
    matrix.observe_meeting(1 + (flip++ % (n - 1)), 10.0 * flip);  // dirties the cache
    benchmark::DoNotOptimize(matrix.expected_meeting_time(0, n - 1));
  }
}
BENCHMARK(BM_MeetingMatrixRecompute)->Arg(20)->Arg(40);

void BM_MetadataStoreUpdate(benchmark::State& state) {
  MetadataStore store;
  Rng rng(3);
  Time stamp = 0;
  for (auto _ : state) {
    const PacketId id = static_cast<PacketId>(rng.uniform_int(0, 5000));
    const NodeId holder = static_cast<NodeId>(rng.uniform_int(0, 39));
    store.update_replica(id, ReplicaEstimate{holder, rng.uniform(10, 10000), stamp});
    stamp += 1.0;
  }
}
BENCHMARK(BM_MetadataStoreUpdate);

void BM_DagDelay(benchmark::State& state) {
  QueueSnapshot snapshot;
  snapshot.queues = {{1, 2, 3}, {1, 4}, {2, 5, 6}};
  snapshot.meeting_rate = {0.05, 0.08, 0.02};
  for (auto _ : state)
    benchmark::DoNotOptimize(dag_delay(snapshot, 400.0, static_cast<std::size_t>(state.range(0))));
}
BENCHMARK(BM_DagDelay)->Arg(200)->Arg(1000);

void BM_SimplexSolve(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  LinearProgram lp;
  for (int i = 0; i < n; ++i) lp.add_variable(rng.uniform(0.5, 2.0));
  for (int c = 0; c < n; ++c) {
    std::vector<std::pair<int, double>> terms;
    for (int i = 0; i < n; ++i)
      if (rng.bernoulli(0.3)) terms.emplace_back(i, rng.uniform(0.1, 1.0));
    if (terms.empty()) terms.emplace_back(c, 1.0);
    lp.add_constraint(terms, Relation::kLe, rng.uniform(2.0, 8.0));
  }
  for (auto _ : state) benchmark::DoNotOptimize(solve_lp(lp));
}
BENCHMARK(BM_SimplexSolve)->Arg(20)->Arg(60);

// Standalone RAPID router with `num_packets` buffered packets, each known to
// be held by twelve peers as well (the replication regime the paper's loaded
// runs reach, where the per-packet replica-list scan hurts). The regression
// pair for the hoisted/memoized replica_rate scan: cached steady-state
// lookups must stay O(1) per packet regardless of replica-list length.
struct ReplicaRateFixture {
  static constexpr int kNodes = 40;
  static constexpr NodeId kPeers = 13;  // routers 1..12 hold replicas too
  PacketPool pool;
  MetricsCollector metrics;
  RouterOracle oracle;
  SimContext ctx;
  std::vector<std::unique_ptr<RapidRouter>> routers;
  std::vector<PacketId> ids;

  ReplicaRateFixture(int num_packets, bool cached) {
    ctx.pool = &pool;
    ctx.metrics = &metrics;
    ctx.oracle = &oracle;
    ctx.num_nodes = kNodes;
    oracle.reset(kNodes);
    RapidConfig config;
    config.use_utility_cache = cached;
    for (NodeId n = 0; n < kPeers; ++n) {
      routers.push_back(std::make_unique<RapidRouter>(n, Bytes{-1}, &ctx, config));
      oracle.set(n, routers.back().get());
    }
    for (int i = 0; i < num_packets; ++i) {
      Packet p;
      p.src = 0;
      p.dst = kPeers + (i % (kNodes - kPeers));
      p.size = 1_KB;
      p.created = static_cast<Time>(i);
      ids.push_back(pool.add(p));
    }
    MeetingSchedule s;
    s.num_nodes = kNodes;
    s.duration = 1e9;
    metrics.begin(pool, s);
    for (const PacketId id : ids) {
      routers[0]->on_generate(pool.get(id));
      for (NodeId peer = 1; peer < kPeers; ++peer)
        routers[0]->on_transfer_success(pool.get(id), PeerView(*routers[peer]),
                                        ReceiveOutcome::kStored,
                                        1000.0 + static_cast<Time>(peer));
    }
  }
};

void BM_ReplicaRate(benchmark::State& state) {
  // Arg0 = buffered packets, Arg1 = cache enabled.
  ReplicaRateFixture fixture(static_cast<int>(state.range(0)), state.range(1) != 0);
  double sink = 0;
  for (auto _ : state) {
    for (const PacketId id : fixture.ids)
      sink += fixture.routers[0]->replica_rate(fixture.pool.get(id));
    benchmark::DoNotOptimize(sink);
  }
  const UtilityCacheStats& stats = fixture.routers[0]->utility_cache().stats();
  state.counters["rate_recomputes"] = static_cast<double>(stats.rate_recomputes);
  state.counters["rate_hits"] = static_cast<double>(stats.rate_hits);
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(fixture.ids.size()));
}
BENCHMARK(BM_ReplicaRate)
    ->ArgNames({"packets", "cached"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({10000, 0})
    ->Args({10000, 1});

// The headline comparison behind the incremental utility engine: one full
// RAPID run of the registered powerlaw-large scenario (500 nodes, >= 10k
// packets at load 3) with the cache off vs on. The figures are bit-identical
// (asserted by the dual-path tests); what changes is the `recomputes`
// counter — the cached run must come in >= 3x below the eager run.
void BM_PowerlawLargeRapid(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const Scenario scenario(runner::ScenarioRegistry::global().make("powerlaw-large"));
  const Instance inst = scenario.instance(0, 3.0);
  RunSpec spec;
  spec.protocol = ProtocolKind::kRapid;
  spec.rapid_incremental_cache = cached;

  std::size_t delivered = 0;
  for (auto _ : state) {
    reset_utility_cache_global_stats();
    const SimResult r = run_instance(scenario, inst, spec);
    delivered = r.delivered;
    benchmark::DoNotOptimize(delivered);
  }
  const UtilityCacheStats stats = utility_cache_global_stats();
  state.counters["packets"] = static_cast<double>(inst.workload.size());
  state.counters["meetings"] = static_cast<double>(inst.schedule.size());
  state.counters["delivered"] = static_cast<double>(delivered);
  state.counters["recomputes"] = static_cast<double>(stats.recomputes());
  state.counters["lookups"] = static_cast<double>(stats.lookups());
}
BENCHMARK(BM_PowerlawLargeRapid)
    ->ArgNames({"cached"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1);

// Flat-table vs legacy-hash-map regression pair for the memory-layout
// overhaul: a full-buffer scan (the per-contact candidate walk) over the
// packed entry list vs the unordered_map shim it replaced. The enforced
// >= 2x bound lives in tests/flat_state_test.cpp; these benches chart the
// actual margin.
void BM_BufferScan(benchmark::State& state) {
  const bool flat = state.range(1) != 0;
  const int packets = static_cast<int>(state.range(0));
  Buffer flat_buffer(-1);
  testing::LegacyMapBuffer map_buffer(-1);
  for (PacketId id = 0; id < packets; ++id) {
    flat_buffer.insert(id, 1_KB);
    map_buffer.insert(id, 1_KB);
  }
  Bytes total = 0;
  for (auto _ : state) {
    if (flat) {
      flat_buffer.for_each([&](PacketId, Bytes size) { total += size; });
    } else {
      map_buffer.for_each([&](PacketId, Bytes size) { total += size; });
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_BufferScan)
    ->ArgNames({"packets", "flat"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1});

// Ack-membership probes (the knows_ack filter that runs per candidate per
// contact): direct slot load vs hash find.
void BM_AckLookup(benchmark::State& state) {
  const bool flat = state.range(1) != 0;
  const int packets = static_cast<int>(state.range(0));
  AckTable flat_acks;
  testing::LegacyAckMap map_acks;
  for (PacketId id = 0; id < packets; id += 2) {
    flat_acks.insert(id, static_cast<Time>(id));
    map_acks.insert(id, static_cast<Time>(id));
  }
  std::uint64_t hits = 0;
  for (auto _ : state) {
    if (flat) {
      for (PacketId id = 0; id < packets; ++id) hits += flat_acks.contains(id) ? 1u : 0u;
    } else {
      for (PacketId id = 0; id < packets; ++id) hits += map_acks.knows_ack(id) ? 1u : 0u;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(state.iterations() * packets);
}
BENCHMARK(BM_AckLookup)
    ->ArgNames({"packets", "flat"})
    ->Args({1000, 0})
    ->Args({1000, 1})
    ->Args({20000, 0})
    ->Args({20000, 1});

// Contact churn: the allocation-sensitive part of the hot path — repeated
// short contacts against a storage-constrained RAPID pair, each contact
// re-planning, exchanging metadata/acks and evicting under pressure. This
// is the path the flat tables, skip marks and scratch arena are for;
// the counter reports contacts/second.
void BM_ContactChurn(benchmark::State& state) {
  constexpr int kNodes = 24;
  PacketPool pool;
  for (int i = 0; i < 4000; ++i) {
    Packet p;
    p.src = i % 2;
    p.dst = 2 + (i % (kNodes - 2));
    p.size = 1_KB;
    p.created = static_cast<Time>(i) * 0.25;
    pool.add(p);
  }
  MetricsCollector metrics;
  RouterOracle oracle;
  ScratchArena arena;
  SimContext ctx;
  ctx.pool = &pool;
  ctx.metrics = &metrics;
  ctx.oracle = &oracle;
  ctx.arena = &arena;
  ctx.num_nodes = kNodes;
  oracle.reset(kNodes);
  RapidConfig config;
  config.prior_opportunity_bytes = 32_KB;
  std::vector<std::unique_ptr<RapidRouter>> routers;
  for (NodeId n = 0; n < kNodes; ++n) {
    routers.push_back(
        std::make_unique<RapidRouter>(n, Bytes{48_KB} /* forces eviction churn */, &ctx, config));
    oracle.set(n, routers.back().get());
  }
  MeetingSchedule schedule;
  schedule.num_nodes = kNodes;
  schedule.duration = 1e9;
  metrics.begin(pool, schedule);

  std::size_t next_packet = 0;
  int meeting_index = 0;
  Time now = 0;
  std::uint64_t contacts = 0;
  for (auto _ : state) {
    now += 1.0;
    // Feed a trickle of fresh packets so queues and metadata keep moving.
    while (next_packet < pool.size() && pool.get(static_cast<PacketId>(next_packet)).created <= now) {
      const Packet& p = pool.get(static_cast<PacketId>(next_packet));
      routers[static_cast<std::size_t>(p.src)]->on_generate(p);
      ++next_packet;
    }
    Meeting m;
    m.a = static_cast<NodeId>(meeting_index % 2);
    m.b = static_cast<NodeId>(2 + (meeting_index % (kNodes - 2)));
    m.time = now;
    m.capacity = 32_KB;
    run_contact(*routers[static_cast<std::size_t>(m.a)], *routers[static_cast<std::size_t>(m.b)],
                m, meeting_index, ContactConfig{}, pool, metrics);
    ++meeting_index;
    ++contacts;
  }
  state.counters["contacts_per_s"] =
      benchmark::Counter(static_cast<double>(contacts), benchmark::Counter::kIsRate);
}
// Fixed iteration count: the packet feed spans 1000 s of simulated time at
// one contact per second, so every run measures the same loaded regime (and
// old-vs-new comparisons stay apples-to-apples).
BENCHMARK(BM_ContactChurn)->Iterations(800)->Unit(benchmark::kMicrosecond);

void BM_FullSimulationRapid(benchmark::State& state) {
  ExponentialMobilityConfig mobility;
  mobility.num_nodes = 12;
  mobility.duration = 300;
  mobility.pair_mean_intermeeting = 40;
  mobility.mean_opportunity = 32_KB;
  Rng rng(5);
  const MeetingSchedule schedule = generate_exponential_schedule(mobility, rng);
  WorkloadConfig wl;
  wl.packets_per_period_per_pair = 1.0;
  wl.load_period = 50;
  wl.duration = 300;
  Rng wrng = rng.split("wl");
  const PacketPool workload = generate_workload(wl, mobility.num_nodes, wrng);
  ProtocolParams params;
  params.rapid_prior_meeting_time = 300;
  params.rapid_prior_opportunity = 32_KB;
  for (auto _ : state) {
    const SimResult r = run_simulation(
        schedule, workload, make_protocol_factory(ProtocolKind::kRapid, params, -1),
        SimConfig{});
    benchmark::DoNotOptimize(r.delivered);
  }
  state.counters["packets"] = static_cast<double>(workload.size());
  state.counters["meetings"] = static_cast<double>(schedule.size());
}
BENCHMARK(BM_FullSimulationRapid)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace rapid

BENCHMARK_MAIN();
