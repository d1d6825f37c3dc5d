#include "obs/metrics_registry.h"

#include <algorithm>

namespace rapid::obs {

const char* counter_name(Counter c) {
  switch (c) {
    case Counter::kContactDataBytes: return "contact.data_bytes";
    case Counter::kContactDeliveries: return "contact.deliveries";
    case Counter::kContactMetadataBytes: return "contact.metadata_bytes";
    case Counter::kContactPartialBytes: return "contact.partial_bytes";
    case Counter::kContactPartialTransfers: return "contact.partial_transfers";
    case Counter::kContactSessions: return "contact.sessions";
    case Counter::kContactTransfers: return "contact.transfers";
    case Counter::kFaultCorruptedBytes: return "fault.corrupted_bytes";
    case Counter::kFaultCorruptedTransfers: return "fault.corrupted_transfers";
    case Counter::kFaultCrashes: return "fault.crashes";
    case Counter::kFaultMeetingsSuppressed: return "fault.meetings_suppressed";
    case Counter::kFaultMetaDegraded: return "fault.meta_degraded";
    case Counter::kFaultPacketsLost: return "fault.packets_lost";
    case Counter::kFaultRecoveries: return "fault.recoveries";
    case Counter::kFaultTailRetries: return "fault.tail_retries";
    case Counter::kLogMessages: return "log.messages";
    case Counter::kMobilityPops: return "mobility.pops";
    case Counter::kPoolSteals: return "pool.steals";
    case Counter::kPoolSubmitted: return "pool.submitted";
    case Counter::kRouterDrops: return "router.drops";
    case Counter::kServiceContactsIngested: return "service.contacts_ingested";
    case Counter::kServiceQueries: return "service.queries";
    case Counter::kServiceSnapshotBytes: return "service.snapshot_bytes";
    case Counter::kServiceSnapshots: return "service.snapshots";
    case Counter::kShardCrossMeetings: return "shard.cross_meetings";
    case Counter::kShardWindows: return "shard.windows";
    case Counter::kSimEventsFault: return "sim.events.fault";
    case Counter::kSimEventsMeeting: return "sim.events.meeting";
    case Counter::kSimEventsPacket: return "sim.events.packet";
    case Counter::kSimEventsSkipped: return "sim.events.skipped";
    case Counter::kTraceDropped: return "trace.dropped";
    case Counter::kUtilityDelayHits: return "utility.delay_hits";
    case Counter::kUtilityDelayRecomputes: return "utility.delay_recomputes";
    case Counter::kUtilityForgets: return "utility.forgets";
    case Counter::kUtilityRateHits: return "utility.rate_hits";
    case Counter::kUtilityRateRecomputes: return "utility.rate_recomputes";
    case Counter::kCount: break;
  }
  return "?";
}

const char* gauge_name(Gauge g) {
  switch (g) {
    case Gauge::kPoolMaxQueueDepth: return "pool.max_queue_depth";
    case Gauge::kTraceEvents: return "trace.events";
    case Gauge::kUtilityTrackedPackets: return "utility.tracked_packets";
    case Gauge::kCount: break;
  }
  return "?";
}

const char* hist_name(Hist h) {
  switch (h) {
    case Hist::kContactCapacityBytes: return "contact.capacity_bytes";
    case Hist::kContactTransferBytes: return "contact.transfer_bytes";
    case Hist::kCount: break;
  }
  return "?";
}

namespace {

int bucket_of(std::uint64_t value) {
  int width = 0;
  while (value != 0) {
    ++width;
    value >>= 1;
  }
  return width == 0 ? 0 : width - 1;
}

}  // namespace

void Histogram::observe(std::uint64_t value) {
  ++buckets[static_cast<std::size_t>(bucket_of(value))];
  if (count == 0 || value < min) min = value;
  if (value > max) max = value;
  ++count;
  sum += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count == 0) return;
  for (int i = 0; i < kBuckets; ++i) buckets[static_cast<std::size_t>(i)] +=
      other.buckets[static_cast<std::size_t>(i)];
  if (count == 0 || other.min < min) min = other.min;
  if (other.max > max) max = other.max;
  count += other.count;
  sum += other.sum;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (std::size_t i = 0; i < counters_.size(); ++i) counters_[i] += other.counters_[i];
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    if (other.gauges_[i] > gauges_[i]) gauges_[i] = other.gauges_[i];
  for (std::size_t i = 0; i < hists_.size(); ++i) hists_[i].merge(other.hists_[i]);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.samples.reserve(counters_.size() + gauges_.size() + hists_.size() * 4);
  for (std::size_t i = 0; i < counters_.size(); ++i)
    snap.samples.push_back({counter_name(static_cast<Counter>(i)), counters_[i]});
  for (std::size_t i = 0; i < gauges_.size(); ++i)
    snap.samples.push_back({gauge_name(static_cast<Gauge>(i)), gauges_[i]});
  for (std::size_t i = 0; i < hists_.size(); ++i) {
    const std::string base = hist_name(static_cast<Hist>(i));
    const Histogram& h = hists_[i];
    snap.samples.push_back({base + ".count", h.count});
    snap.samples.push_back({base + ".max", h.max});
    snap.samples.push_back({base + ".min", h.min});
    snap.samples.push_back({base + ".sum", h.sum});
  }
  std::sort(snap.samples.begin(), snap.samples.end(),
            [](const MetricSample& a, const MetricSample& b) { return a.name < b.name; });
  return snap;
}

std::uint64_t MetricsSnapshot::value(const std::string& name) const {
  for (const MetricSample& s : samples)
    if (s.name == name) return s.value;
  return 0;
}

std::string MetricsSnapshot::to_json(int indent) const {
  const std::string pad(static_cast<std::size_t>(indent < 0 ? 0 : indent), ' ');
  std::string out = "{\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    out += pad + "\"" + samples[i].name + "\": " + std::to_string(samples[i].value);
    if (i + 1 < samples.size()) out += ",";
    out += "\n";
  }
  out += pad.substr(0, pad.size() >= 2 ? pad.size() - 2 : 0) + "}";
  return out;
}

}  // namespace rapid::obs
