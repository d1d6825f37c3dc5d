// service-live: an open-loop ServiceEngine run, then a closed-loop drain.
//
// Open loop (single thread): contact i is due at i / kContactRate host
// seconds after the start, query j at j / kQueryRate, a snapshot every
// kSnapshotEvery seconds. The loop serves whatever is due earliest (a
// contact before a query due at the same instant, so each query reads
// behind the write it was issued with) and sleeps when nothing is due. A
// contact is ingest()ed and followed by advance_to(its time). Latencies are
// timed from the due time, so a stall shows up in everything queued behind
// it. The contact rate is an absolute number, about half the closed-loop
// capacity this code measured when the benchmark was defined (README.md).
// The drain then feeds the next kDrainContacts contacts with queries off
// and measures that capacity.
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <thread>
#include <vector>

#include "batch.h"
#include "runner/scenario_registry.h"
#include "service/service_engine.h"

namespace perfbench {
namespace {

constexpr int kNodes = 300;
constexpr double kSimSeconds = 900.0;  // contact-stream horizon, simulated
constexpr double kLoad = 1.0;          // packets per 50 s per destination
constexpr double kContactRate = 1500.0;  // contacts due per host second
constexpr double kQueryRate = 500.0;     // queries due per host second
constexpr double kOpenSeconds = 4.0;
constexpr double kSnapshotEvery = 2.0;
constexpr std::size_t kDrainContacts = 8000;

struct SmokeScale {
  int nodes;
  double open_seconds;
  std::size_t drain;
};

enum class QueryKind { kDelay, kUtility, kStatus, kStats };

SpanName span_of(QueryKind kind) {
  switch (kind) {
    case QueryKind::kDelay: return SpanName::kQueryDelay;
    case QueryKind::kUtility: return SpanName::kQueryUtility;
    case QueryKind::kStatus: return SpanName::kQueryStatus;
    case QueryKind::kStats: break;
  }
  return SpanName::kQueryStats;
}

bool same_report(const rapid::SimResult& a, const rapid::SimResult& b) {
  Digest da;
  da.add_result(a);
  Digest db;
  db.add_result(b);
  return da.hex() == db.hex();
}

}  // namespace

RepResult run_service(const RepOptions& options) {
  const bool traced = options.mode == Mode::kTraced;
  std::unique_ptr<Tracer> tracer = traced ? std::make_unique<Tracer>() : nullptr;
  Tracer* tr = tracer.get();
  const SmokeScale scale = options.smoke ? SmokeScale{60, 0.5, 2000}
                                         : SmokeScale{kNodes, kOpenSeconds, kDrainContacts};
  // Unique per process, workload and repetition; removed before returning.
  const std::string snapshot_path = options.scratch_dir + "/service-live-" +
                                    std::to_string(::getpid()) + "-rep" +
                                    std::to_string(options.rep) + ".snap";
  RepResult out;
  {
    const Tracer::Scope rep_span(tr, SpanName::kRep);
    const std::uint64_t setup_start = now_ns();
    rapid::ScenarioConfig config = rapid::runner::ScenarioRegistry::global().make("powerlaw");
    config.stream_mobility = true;
    config.synthetic_runs = 1;
    config.powerlaw.num_nodes = scale.nodes;
    config.powerlaw.duration = kSimSeconds;
    std::unique_ptr<rapid::Scenario> scenario;
    {
      const Tracer::Scope span(tr, SpanName::kScenario);
      scenario = std::make_unique<rapid::Scenario>(config);
    }
    rapid::Instance instance;
    {
      const Tracer::Scope span(tr, SpanName::kScenarioInstance);
      instance = scenario->instance(0, kLoad);
    }
    const rapid::MeetingSchedule stream = rapid::materialize(*instance.make_model());
    const std::vector<rapid::Meeting>& contacts = stream.meetings();
    const auto open_contacts = static_cast<std::size_t>(kContactRate * scale.open_seconds);
    const auto open_queries = static_cast<std::size_t>(kQueryRate * scale.open_seconds);
    const std::size_t total_contacts = open_contacts + scale.drain;
    out.check(contacts.size() >= total_contacts,
              "contact stream holds " + std::to_string(contacts.size()) + " contacts, needs " +
                  std::to_string(total_contacts));
    if (!out.failures.empty()) return out;

    rapid::ServiceConfig service;
    service.num_nodes = scale.nodes;
    service.protocol = rapid::ProtocolKind::kRapid;
    service.params = scenario->protocol_params();
    service.buffer_capacity = config.buffer_capacity;
    rapid::RunSpec spec;
    spec.obs.profile = traced;
    service.sim = sim_config_for(*scenario, instance, spec);
    std::unique_ptr<rapid::ServiceEngine> engine;
    alloc_counting(traced);
    const AllocTotals before_build = alloc_totals();
    {
      const Tracer::Scope span(tr, SpanName::kEngineConstruct);
      engine = std::make_unique<rapid::ServiceEngine>(service, instance.workload);
    }
    const AllocTotals build_allocs = alloc_totals() - before_build;
    alloc_counting(false);
    out.set("setup_s", static_cast<double>(now_ns() - setup_start) / 1e9);
    if (options.mode == Mode::kSetup) return out;

    // The seed draws the query plan (kind and packet id per query); contacts
    // and packets are the scenario's own, so every seed serves the same
    // writes. Queries are served in due-time order even when the loop runs
    // behind, so query j always reads the state after contact 3j and its
    // answers enter the digest.
    std::mt19937_64 rng(options.seed ^ 0x5e4a1ce5eedULL);
    const auto n_packets = static_cast<std::uint64_t>(instance.workload.size());
    std::vector<std::pair<QueryKind, rapid::PacketId>> queries(open_queries);
    for (auto& [kind, id] : queries) {
      kind = static_cast<QueryKind>(rng() % 4);
      id = static_cast<rapid::PacketId>(rng() % n_packets);
    }

    std::vector<float> query_latency_ns;
    std::vector<float> lag_ns;
    std::vector<float> snapshot_ns;
    query_latency_ns.reserve(open_queries);
    lag_ns.reserve(open_contacts);
    Digest answers;
    std::uint64_t snapshot_bytes = 0;
    std::uint64_t backlog_max = 0;
    std::uint64_t late_max_ns = 0;

    // Wake sleeps on time: the default 50 us timer slack would otherwise
    // add to every latency measured from an idle loop.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    const double cpu_start = process_cpu_s();
    const std::uint64_t t0 = now_ns();
    const auto contact_due = [&](std::size_t i) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(i) * 1e9 / kContactRate);
    };
    const auto query_due = [&](std::size_t j) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(j) * 1e9 / kQueryRate);
    };
    const auto snapshot_due = [&](std::size_t k) {
      return t0 + static_cast<std::uint64_t>(static_cast<double>(k + 1) * kSnapshotEvery * 1e9);
    };
    const std::uint64_t open_end = t0 + static_cast<std::uint64_t>(scale.open_seconds * 1e9);
    constexpr std::uint64_t kNever = ~std::uint64_t{0};
    std::size_t ci = 0;
    std::size_t qi = 0;
    std::size_t si = 0;
    try {
      while (true) {
        const std::uint64_t dc = ci < open_contacts ? contact_due(ci) : kNever;
        const std::uint64_t dq = qi < open_queries ? query_due(qi) : kNever;
        const std::uint64_t ds = snapshot_due(si) < open_end ? snapshot_due(si) : kNever;
        const std::uint64_t due = std::min({dc, dq, ds});
        if (due == kNever) break;
        std::uint64_t now = now_ns();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          continue;
        }
        late_max_ns = std::max(late_max_ns, now - due);
        // Requests already due and not yet served.
        const auto due_by = [&](std::uint64_t t, double rate, std::size_t cap) {
          const double n = static_cast<double>(t - t0) * rate / 1e9;
          return std::min(cap, static_cast<std::size_t>(n) + 1);
        };
        const std::size_t backlog = (due_by(now, kContactRate, open_contacts) - ci) +
                                    (due_by(now, kQueryRate, open_queries) - qi);
        backlog_max = std::max<std::uint64_t>(backlog_max, backlog);

        if (due == dc) {
          const rapid::Meeting& c = contacts[ci++];
          {
            const Tracer::Scope span(tr, SpanName::kIngest);
            engine->ingest(c);
          }
          {
            const Tracer::Scope span(tr, SpanName::kAdvance);
            engine->advance_to(c.time);
          }
          lag_ns.push_back(static_cast<float>(now_ns() - due));
        } else if (due == dq) {
          const auto [kind, id] = queries[qi++];
          {
            const Tracer::Scope span(tr, span_of(kind));
            switch (kind) {
              case QueryKind::kDelay: answers.add_double(engine->query_delay(id)); break;
              case QueryKind::kUtility: answers.add_double(engine->query_utility(id)); break;
              case QueryKind::kStatus: {
                const rapid::PacketStatus st = engine->query_status(id);
                answers.add_u64(static_cast<std::uint64_t>(st.replicas));
                answers.add_double(st.delivery_time);
                break;
              }
              case QueryKind::kStats: {
                const rapid::FleetStats st = engine->stats();
                answers.add_u64(st.buffered_copies);
                answers.add_u64(static_cast<std::uint64_t>(st.buffered_bytes));
                answers.add_u64(st.delivered);
                break;
              }
            }
          }
          ++out.attempted;
          query_latency_ns.push_back(static_cast<float>(now_ns() - due));
        } else {
          ++si;
          const std::uint64_t start = now_ns();
          {
            const Tracer::Scope span(tr, SpanName::kSnapshot);
            snapshot_bytes = engine->snapshot(snapshot_path);
          }
          snapshot_ns.push_back(static_cast<float>(now_ns() - start));
        }
      }
    } catch (const std::exception& e) {
      out.check(false, std::string("open loop threw: ") + e.what());
    }

    // Closed-loop drain: the next contacts as fast as the engine takes them.
    const std::uint64_t drain_start = now_ns();
    try {
      for (std::size_t i = open_contacts; i < total_contacts; ++i) {
        {
          const Tracer::Scope span(tr, SpanName::kIngest);
          engine->ingest(contacts[i]);
        }
        const Tracer::Scope span(tr, SpanName::kAdvance);
        engine->advance_to(contacts[i].time);
      }
    } catch (const std::exception& e) {
      out.check(false, std::string("drain threw: ") + e.what());
    }
    const double drain_s = static_cast<double>(now_ns() - drain_start) / 1e9;
    const double cpu_s = process_cpu_s() - cpu_start;
    out.attempted += 2;  // the open loop and the drain as runs

    const rapid::SimResult live = engine->report();
    const double capacity = static_cast<double>(scale.drain) / drain_s;
    out.set("contacts_per_s", capacity);
    out.set("cpu_s", cpu_s);
    out.set("delivery_rate",
            static_cast<double>(live.delivered) / static_cast<double>(live.total_packets));
    out.set("metadata_share", static_cast<double>(live.metadata_bytes) /
                                  static_cast<double>(live.capacity_bytes));
    out.set("query_p50_us", percentile(query_latency_ns, 0.5) / 1e3);
    out.set("query_p99_us", percentile(query_latency_ns, 0.99) / 1e3);
    out.set("ingest_lag_p99_ms", percentile(lag_ns, 0.99) / 1e6);
    out.set("ingest_capacity_cps", capacity);
    out.set("service.backlog_max", static_cast<double>(backlog_max));
    out.set("service.generator_late_ms", static_cast<double>(late_max_ns) / 1e6);
    out.set("meetings", static_cast<double>(live.meetings));
    out.set("packets", static_cast<double>(live.total_packets));
    out.check(live.meetings == total_contacts,
              "engine dispatched " + std::to_string(live.meetings) + " of " +
                  std::to_string(total_contacts) + " contacts");
    out.check(query_latency_ns.size() == open_queries, "not every query was served");
    Digest digest = answers;
    digest.add_result(live);
    out.digest = digest.hex();

    // The last snapshot must restore into an engine that reports the same.
    try {
      snapshot_bytes = engine->snapshot(snapshot_path);
      std::unique_ptr<rapid::ServiceEngine> restored;
      {
        const Tracer::Scope span(tr, SpanName::kRestore);
        restored = rapid::ServiceEngine::restore(snapshot_path, service, instance.workload);
      }
      out.check(same_report(restored->report(), live),
                "restored engine reports differently from the live one");
    } catch (const std::exception& e) {
      out.check(false, std::string("snapshot/restore threw: ") + e.what());
    }
    std::remove(snapshot_path.c_str());

    if (traced) {
      const auto p50_us = [&](SpanName name) {
        return percentile(tracer->stats(name).durations_ns, 0.5) / 1e3;
      };
      out.set("service.ingest_us_p50", p50_us(SpanName::kIngest));
      out.set("service.advance_us_p50", p50_us(SpanName::kAdvance));
      out.set("service.advance_us_p99",
              percentile(tracer->stats(SpanName::kAdvance).durations_ns, 0.99) / 1e3);
      out.set("service.snapshot_ms", percentile(snapshot_ns, 0.5) / 1e6);
      out.set("service.query_us.delay", p50_us(SpanName::kQueryDelay));
      out.set("service.query_us.utility", p50_us(SpanName::kQueryUtility));
      out.set("service.query_us.status", p50_us(SpanName::kQueryStatus));
      out.set("service.query_us.stats", p50_us(SpanName::kQueryStats));
      out.set("service.snapshot_bytes", static_cast<double>(snapshot_bytes));
      out.set("dtn.packets", static_cast<double>(instance.workload.size()));
      out.set("dtn.workload_gen_s",
              static_cast<double>(tracer->stats(SpanName::kScenarioInstance).total_ns) / 1e9);
      out.set("sim.router_build_s",
              static_cast<double>(tracer->stats(SpanName::kEngineConstruct).total_ns) / 1e9);
      out.set("sim.router_build_mb", static_cast<double>(build_allocs.bytes) / (1 << 20));
      ObsTotals totals;
      totals.add(engine->finish());
      add_obs_layers(out, totals);
    }
  }
  out.set("peak_rss_mb", peak_rss_mb());
  if (traced && !options.spans_path.empty())
    out.check(tracer->write_tsv(options.spans_path),
              "cannot write spans to " + options.spans_path);
  return out;
}

}  // namespace perfbench
