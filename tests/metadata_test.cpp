#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/metadata.h"
#include "util/binio.h"

namespace rapid {
namespace {

TEST(MetadataStore, UpdateAndLookup) {
  MetadataStore store;
  EXPECT_FALSE(store.knows(1));
  EXPECT_TRUE(store.update_replica(1, {3, 120.0, 10.0}));
  ASSERT_TRUE(store.knows(1));
  ASSERT_EQ(store.replicas(1).size(), 1u);
  EXPECT_EQ(store.replicas(1)[0].holder, 3);
  EXPECT_DOUBLE_EQ(store.replicas(1)[0].direct_delay, 120.0);
}

TEST(MetadataStore, FreshStampWins) {
  MetadataStore store;
  store.update_replica(1, {3, 120.0, 10.0});
  EXPECT_FALSE(store.update_replica(1, {3, 50.0, 5.0}));  // stale, ignored
  EXPECT_DOUBLE_EQ(store.replicas(1)[0].direct_delay, 120.0);
  EXPECT_TRUE(store.update_replica(1, {3, 50.0, 20.0}));
  EXPECT_DOUBLE_EQ(store.replicas(1)[0].direct_delay, 50.0);
}

TEST(MetadataStore, MultipleHolders) {
  MetadataStore store;
  store.update_replica(1, {3, 120.0, 10.0});
  store.update_replica(1, {5, 60.0, 11.0});
  store.update_replica(1, {7, 90.0, 12.0});
  EXPECT_EQ(store.replicas(1).size(), 3u);
}

TEST(MetadataStore, RemoveReplicaRespectsStamps) {
  MetadataStore store;
  store.update_replica(1, {3, 120.0, 10.0});
  EXPECT_FALSE(store.remove_replica(1, 3, 5.0));  // stale removal ignored
  EXPECT_EQ(store.replicas(1).size(), 1u);
  EXPECT_TRUE(store.remove_replica(1, 3, 15.0));
  EXPECT_TRUE(store.replicas(1).empty());
  EXPECT_FALSE(store.remove_replica(2, 3, 1.0));  // unknown packet
}

TEST(MetadataStore, ForgetPacket) {
  MetadataStore store;
  store.update_replica(1, {3, 120.0, 10.0});
  store.forget_packet(1);
  EXPECT_FALSE(store.knows(1));
  EXPECT_TRUE(store.replicas(1).empty());
  EXPECT_EQ(store.find(1), nullptr);
}

TEST(MetadataStore, ChangedSinceDeltaEncoding) {
  MetadataStore store;
  store.update_replica(1, {3, 120.0, 10.0});
  store.update_replica(2, {4, 60.0, 20.0});
  store.update_replica(3, {5, 30.0, 30.0});

  EXPECT_EQ(store.changed_since(-kTimeInfinity).size(), 3u);
  EXPECT_EQ(store.changed_since(15.0).size(), 2u);
  EXPECT_EQ(store.changed_since(30.0).size(), 0u);  // strict >

  // Touching an old record bumps it back into the delta.
  store.update_replica(1, {9, 10.0, 40.0});
  EXPECT_EQ(store.changed_since(35.0).size(), 1u);
}

TEST(MetadataStore, RecordBytes) {
  PacketMetadata meta;
  meta.replicas.push_back({1, 10.0, 1.0});
  meta.replicas.push_back({2, 20.0, 2.0});
  EXPECT_EQ(MetadataStore::record_bytes(meta),
            kPacketRecordHeaderBytes + 2 * kReplicaEntryBytes);
}

TEST(MetadataStore, GenerationTracksAcceptedChangesOnly) {
  MetadataStore store;
  EXPECT_EQ(store.generation(1), 0u);  // unknown packet
  ASSERT_TRUE(store.update_replica(1, {3, 120.0, 10.0}));
  const std::uint64_t g1 = store.generation(1);
  EXPECT_GT(g1, 0u);
  // Stale update rejected: the record did not change, the generation holds.
  EXPECT_FALSE(store.update_replica(1, {3, 50.0, 5.0}));
  EXPECT_EQ(store.generation(1), g1);
  // Accepted refresh bumps; other packets draw from the same counter, so
  // values are store-unique and never reused.
  ASSERT_TRUE(store.update_replica(1, {3, 50.0, 20.0}));
  const std::uint64_t g2 = store.generation(1);
  EXPECT_GT(g2, g1);
  ASSERT_TRUE(store.update_replica(2, {4, 9.0, 1.0}));
  EXPECT_GT(store.generation(2), g2);
  // Removal is a change; a stale removal is not.
  EXPECT_FALSE(store.remove_replica(1, 3, 15.0));
  EXPECT_EQ(store.generation(1), g2);
  EXPECT_TRUE(store.remove_replica(1, 3, 30.0));
  EXPECT_GT(store.generation(1), g2);
  // Forgetting resets to the unknown state.
  store.forget_packet(1);
  EXPECT_EQ(store.generation(1), 0u);
}

TEST(MetadataStore, ForEachVisitsAll) {
  MetadataStore store;
  store.update_replica(1, {3, 1.0, 1.0});
  store.update_replica(2, {3, 1.0, 1.0});
  int seen = 0;
  store.for_each([&](PacketId, const PacketMetadata&) { ++seen; });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(store.packet_count(), 2u);
}

std::string save_store(const MetadataStore& store) {
  std::ostringstream bytes;
  BinWriter writer(bytes);
  store.save(writer);
  return bytes.str();
}

// Loading replaces the store's contents: packets the store knew before the
// load and the snapshot does not hold are unknown afterwards.
TEST(MetadataStore, LoadForgetsPacketsTheSnapshotLacks) {
  MetadataStore source;
  source.update_replica(7, {2, 40.0, 4.0});
  const std::string snapshot = save_store(source);

  MetadataStore store;
  for (PacketId id : {1, 2, 3}) store.update_replica(id, {3, 10.0 * id, 1.0});
  std::istringstream in(snapshot);
  BinReader reader(in);
  store.load(reader);

  for (PacketId id : {1, 2, 3}) {
    EXPECT_FALSE(store.knows(id)) << id;
    EXPECT_EQ(store.find(id), nullptr) << id;
    EXPECT_TRUE(store.replicas(id).empty()) << id;
    EXPECT_EQ(store.generation(id), 0u) << id;
  }
  EXPECT_EQ(store.packet_count(), 1u);
  ASSERT_TRUE(store.knows(7));
  ASSERT_EQ(store.replicas(7).size(), 1u);
  EXPECT_EQ(store.replicas(7)[0].holder, 2);
  EXPECT_EQ(save_store(store), snapshot);
  // The loaded store keeps working: a forgotten id can be learned again.
  EXPECT_TRUE(store.update_replica(3, {4, 5.0, 2.0}));
  EXPECT_EQ(store.packet_count(), 2u);
  EXPECT_EQ(store.replicas(3).size(), 1u);
}

}  // namespace
}  // namespace rapid
