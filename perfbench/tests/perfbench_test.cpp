// The benchmark's own tests: span nesting and self time, seed determinism,
// serial-vs-parallel identity of the figure grid, and each workload's
// reduced-size smoke run passing its correctness checks.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <map>
#include <string>
#include <thread>

#include "perfbench.h"
#include "tracer.h"

namespace perfbench {
namespace {

RepOptions smoke(const std::string& workload, Mode mode = Mode::kRun) {
  RepOptions o;
  o.workload = workload;
  o.seed = default_seed();
  o.mode = mode;
  o.smoke = true;
  o.scratch_dir = ::testing::TempDir();
  return o;
}

void expect_passed(const RepResult& r) {
  EXPECT_GT(r.attempted, 0u);
  for (const std::string& f : r.failures) ADD_FAILURE() << f;
}

// Every kept span lies inside its parent, and no span's children on its own
// thread cover more than its duration.
void expect_well_nested(const std::vector<Span>& spans) {
  ASSERT_FALSE(spans.empty());
  std::map<SpanId, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::map<SpanId, long double> same_thread_children;
  for (const Span& s : spans) {
    EXPECT_LE(s.start_ns, s.end_ns) << span_name(s.name);
    EXPECT_LE(s.self_ns, s.end_ns - s.start_ns) << span_name(s.name);
    if (s.parent == kNoSpan) continue;
    const auto it = by_id.find(s.parent);
    ASSERT_NE(it, by_id.end()) << "orphan " << span_name(s.name);
    const Span& p = *it->second;
    EXPECT_GE(s.start_ns, p.start_ns) << span_name(s.name) << " in " << span_name(p.name);
    EXPECT_LE(s.end_ns, p.end_ns) << span_name(s.name) << " in " << span_name(p.name);
    if (p.thread == s.thread)
      same_thread_children[p.id] += static_cast<long double>(s.end_ns - s.start_ns);
  }
  for (const auto& [id, covered] : same_thread_children) {
    const Span& p = *by_id[id];
    const long double self = static_cast<long double>(p.end_ns - p.start_ns) - covered;
    EXPECT_GE(self, 0.0L) << span_name(p.name);
    EXPECT_EQ(static_cast<std::uint64_t>(self), p.self_ns) << span_name(p.name);
  }
}

// Reads back the spans a traced run wrote (names are not needed here).
std::vector<Span> read_spans(const std::string& path) {
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  std::vector<Span> spans;
  std::string parent;
  std::string name;
  Span s;
  while (in >> s.id >> parent >> s.thread >> name >> s.start_ns >> s.end_ns >> s.self_ns) {
    s.parent = parent == "-" ? kNoSpan : std::stoull(parent);
    spans.push_back(s);
  }
  return spans;
}

TEST(Tracer, SpansNestAndSelfTimeIsNeverNegative) {
  Tracer tracer;
  {
    const Tracer::Scope outer(&tracer, SpanName::kRep);
    for (int i = 0; i < 3; ++i) {
      Tracer::Scope step(&tracer, SpanName::kStepOther);
      { const Tracer::Scope peek(&tracer, SpanName::kMobilityPeek); }
      step.rename(SpanName::kStepMeeting);
    }
    const SpanId parent = tracer.current();
    std::thread worker([&] {
      tracer.adopt(parent);
      const Tracer::Scope cell(&tracer, SpanName::kCell);
      { const Tracer::Scope inner(&tracer, SpanName::kSimRun); }
    });
    worker.join();
  }
  const std::vector<Span> spans = tracer.spans();
  EXPECT_EQ(spans.size(), 9u);
  expect_well_nested(spans);
  EXPECT_EQ(tracer.stats(SpanName::kStepMeeting).count, 3u);
  EXPECT_EQ(tracer.stats(SpanName::kStepOther).count, 0u);
}

TEST(Tracer, SpansPastTheLimitStillCountInTheAggregates) {
  Tracer tracer(2);
  for (int i = 0; i < 5; ++i) const Tracer::Scope s(&tracer, SpanName::kIngest);
  EXPECT_EQ(tracer.spans().size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  EXPECT_EQ(tracer.stats(SpanName::kIngest).count, 5u);
  EXPECT_EQ(tracer.stats(SpanName::kIngest).durations_ns.size(), 5u);
}

TEST(Tracer, NullTracerScopesAreNoOps) {
  Tracer::Scope s(nullptr, SpanName::kRep);
  s.rename(SpanName::kCell);
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(percentile({5, 1, 3, 2, 4}, 0.5), 3.0);
  EXPECT_EQ(percentile({5, 1, 3, 2, 4}, 0.99), 5.0);
  EXPECT_EQ(percentile({7}, 0.0), 7.0);
  EXPECT_TRUE(std::isnan(percentile({}, 0.5)));
}

TEST(FleetSmoke, SameSeedSameDigestOtherSeedDiffers) {
  RepOptions o = smoke("fleet-2k");
  const RepResult a = run_rep(o);
  const RepResult b = run_rep(o);
  o.seed += 1;
  const RepResult c = run_rep(o);
  expect_passed(a);
  expect_passed(c);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_NE(a.digest, c.digest);
  EXPECT_GT(a.get("contacts_per_s"), 0.0);
  EXPECT_GT(a.get("delivery_rate"), 0.0);
}

TEST(FleetSmoke, TracedRunMatchesAndNests) {
  RepOptions o = smoke("fleet-2k");
  const RepResult plain = run_rep(o);
  o.mode = Mode::kTraced;
  o.spans_path = ::testing::TempDir() + "/perfbench-fleet-spans.tsv";
  const RepResult traced = run_rep(o);
  expect_passed(traced);
  expect_well_nested(read_spans(o.spans_path));
  EXPECT_EQ(plain.digest, traced.digest);
  EXPECT_EQ(traced.get("mobility.contacts"), traced.get("meetings"));
  EXPECT_GT(traced.get("sim.contact_us_p99"), 0.0);
  EXPECT_GT(traced.get("sim.router_build_mb"), 0.0);
  if (obs_enabled()) {
    EXPECT_GT(traced.get("core.routing_share"), 0.5);
  } else {
    EXPECT_TRUE(std::isnan(traced.get("core.routing_share")));
  }
}

TEST(SweepSmoke, SerialEqualsTwoThreadsAndTracedEqualsUntraced) {
  RepOptions o = smoke("figure-sweep");
  o.threads = 1;
  const RepResult serial = run_rep(o);
  o.threads = 2;
  const RepResult parallel = run_rep(o);
  o.mode = Mode::kTraced;
  o.spans_path = ::testing::TempDir() + "/perfbench-sweep-spans.tsv";
  const RepResult traced = run_rep(o);
  expect_well_nested(read_spans(o.spans_path));
  expect_passed(serial);
  expect_passed(parallel);
  expect_passed(traced);
  EXPECT_EQ(serial.digest, parallel.digest);
  EXPECT_EQ(parallel.digest, traced.digest);
  if (obs_enabled()) {
    EXPECT_GT(traced.get("runner.cell_s_p50"), 0.0);
    EXPECT_GT(traced.get("core.run_s.rapid"), 0.0);
  } else {
    EXPECT_TRUE(std::isnan(traced.get("runner.cell_s_p50")));
    EXPECT_TRUE(std::isnan(traced.get("core.run_s.rapid")));
  }
}

TEST(SweepSmoke, SeedChangesTheGrid) {
  RepOptions o = smoke("figure-sweep");
  const RepResult a = run_rep(o);
  o.seed += 1;
  const RepResult b = run_rep(o);
  EXPECT_NE(a.digest, b.digest);
}

TEST(ServiceSmoke, OpenLoopDrainAndRestorePass) {
  RepOptions o = smoke("service-live");
  const RepResult r = run_rep(o);
  const RepResult again = run_rep(o);
  o.seed += 1;
  const RepResult other = run_rep(o);
  expect_passed(r);
  EXPECT_EQ(r.digest, again.digest);
  EXPECT_NE(r.digest, other.digest);
  EXPECT_GT(r.get("query_p99_us"), 0.0);
  EXPECT_GT(r.get("ingest_capacity_cps"), 0.0);
  EXPECT_GE(r.get("query_p99_us"), r.get("query_p50_us"));
}

TEST(ServiceSmoke, TracedSpansNest) {
  RepOptions o = smoke("service-live", Mode::kTraced);
  o.spans_path = ::testing::TempDir() + "/perfbench-service-spans.tsv";
  const RepResult r = run_rep(o);
  expect_passed(r);
  expect_well_nested(read_spans(o.spans_path));
  EXPECT_GT(r.get("service.snapshot_bytes"), 0.0);
  EXPECT_GT(r.get("service.query_us.delay"), 0.0);
}

TEST(Workloads, UnknownNameThrows) {
  EXPECT_THROW(run_rep(smoke("no-such-workload")), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
