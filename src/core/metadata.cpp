#include "core/metadata.h"

#include <algorithm>
#include <stdexcept>

#include "util/binio.h"

namespace rapid {

const std::vector<ReplicaEstimate> MetadataStore::kEmpty;

bool MetadataStore::update_replica(PacketId id, const ReplicaEstimate& estimate) {
  if (id < 0) throw std::invalid_argument("MetadataStore: negative packet id");
  PacketMetadata& meta = records_.find_or_insert(id).meta;
  for (ReplicaEstimate& existing : meta.replicas) {
    if (existing.holder == estimate.holder) {
      if (estimate.stamp <= existing.stamp) return false;
      existing = estimate;
      meta.last_changed = std::max(meta.last_changed, estimate.stamp);
      meta.generation = ++next_generation_;
      return true;
    }
  }
  meta.replicas.push_back(estimate);
  meta.last_changed = std::max(meta.last_changed, estimate.stamp);
  meta.generation = ++next_generation_;
  return true;
}

bool MetadataStore::remove_replica(PacketId id, NodeId holder, Time stamp) {
  Record* record = records_.find(id);
  if (record == nullptr) return false;
  PacketMetadata& meta = record->meta;
  auto& replicas = meta.replicas;
  for (std::size_t i = 0; i < replicas.size(); ++i) {
    if (replicas[i].holder == holder) {
      if (stamp <= replicas[i].stamp) return false;  // we have fresher info
      replicas.erase(replicas.begin() + static_cast<std::ptrdiff_t>(i));
      meta.last_changed = std::max(meta.last_changed, stamp);
      meta.generation = ++next_generation_;
      return true;
    }
  }
  return false;
}

void MetadataStore::forget_packet(PacketId id) { records_.erase(id); }

void MetadataStore::changed_since(
    Time since, std::vector<std::pair<PacketId, const PacketMetadata*>>& out) const {
  out.clear();
  for (const Record& r : records_)
    if (r.meta.last_changed > since) out.emplace_back(r.id, &r.meta);
}

std::vector<std::pair<PacketId, const PacketMetadata*>> MetadataStore::changed_since(
    Time since) const {
  std::vector<std::pair<PacketId, const PacketMetadata*>> out;
  changed_since(since, out);
  return out;
}

Bytes MetadataStore::record_bytes(const PacketMetadata& meta) {
  return kPacketRecordHeaderBytes +
         kReplicaEntryBytes * static_cast<Bytes>(meta.replicas.size());
}

std::size_t MetadataStore::bytes() const {
  std::size_t total = records_.bytes();
  for (const Record& r : records_) total += r.meta.replicas.capacity() * sizeof(ReplicaEstimate);
  return total;
}

void MetadataStore::save(BinWriter& out) const {
  out.tag("META");
  out.u64(next_generation_);
  out.u64(records_.size());
  for (const Record& r : records_) {
    const PacketMetadata& meta = r.meta;
    out.i64(r.id);
    out.f64(meta.last_changed);
    out.u64(meta.generation);
    out.u64(meta.replicas.size());
    for (const ReplicaEstimate& r : meta.replicas) {
      out.i64(r.holder);
      out.f64(r.direct_delay);
      out.f64(r.stamp);
    }
  }
}

void MetadataStore::load(BinReader& in) {
  in.expect_tag("META");
  next_generation_ = in.u64();
  const std::uint64_t count = in.u64();
  records_.clear();
  for (std::uint64_t i = 0; i < count; ++i) {
    const PacketId id = static_cast<PacketId>(in.i64());
    if (id < 0) BinReader::fail("negative packet id in metadata record");
    if (records_.contains(id)) BinReader::fail("duplicate packet id in metadata records");
    PacketMetadata& meta = records_.find_or_insert(id).meta;
    meta.last_changed = in.f64();
    meta.generation = in.u64();
    const std::uint64_t replicas = in.u64();
    meta.replicas.reserve(replicas);
    for (std::uint64_t j = 0; j < replicas; ++j) {
      ReplicaEstimate r;
      r.holder = static_cast<NodeId>(in.i64());
      r.direct_delay = in.f64();
      r.stamp = in.f64();
      meta.replicas.push_back(r);
    }
  }
}

}  // namespace rapid
