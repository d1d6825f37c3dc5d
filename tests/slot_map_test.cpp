// SlotMap (util/slab.h): the id → packed-entry map behind the buffer, the
// ack table, the metadata ledger, RAPID's peer table and the utility
// cache's destination queues. Randomized insert / find-or-insert / erase
// sequences are checked against a reference model (std::map plus the packed
// order swap-with-last erase produces), and the edge cases are pinned: erase
// of the last entry, erase of an absent key, clear followed by reuse, and
// bytes().
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

#include "util/slab.h"

namespace rapid {
namespace {

struct Item {
  std::int64_t id = -1;
  int value = 0;
};

using ItemMap = SlotMap<std::int64_t, Item, &Item::id>;

std::vector<std::int64_t> packed_ids(const ItemMap& map) {
  std::vector<std::int64_t> ids;
  for (const Item& item : map) ids.push_back(item.id);
  return ids;
}

// The reference: values by id, and the packed order kept by hand.
struct Model {
  std::map<std::int64_t, int> values;
  std::vector<std::int64_t> order;

  void insert_or_assign(std::int64_t id, int value) {
    if (values.count(id) == 0) order.push_back(id);
    values[id] = value;
  }
  bool erase(std::int64_t id) {
    if (values.erase(id) == 0) return false;
    for (std::size_t i = 0; i < order.size(); ++i) {
      if (order[i] == id) {
        order[i] = order.back();
        order.pop_back();
        break;
      }
    }
    return true;
  }
};

void expect_matches(const ItemMap& map, const Model& model, std::int64_t id_range) {
  ASSERT_EQ(map.size(), model.values.size());
  EXPECT_EQ(map.empty(), model.values.empty());
  EXPECT_EQ(packed_ids(map), model.order);
  for (std::int64_t id = -2; id < id_range + 2; ++id) {
    const auto it = model.values.find(id);
    const Item* found = map.find(id);
    ASSERT_EQ(map.contains(id), it != model.values.end()) << id;
    ASSERT_EQ(found != nullptr, it != model.values.end()) << id;
    if (found != nullptr) {
      EXPECT_EQ(found->id, id);
      EXPECT_EQ(found->value, it->second) << id;
    }
  }
}

TEST(SlotMap, RandomizedOperationsMatchReferenceModel) {
  constexpr std::int64_t kIds = 48;
  for (const unsigned seed : {1u, 7u, 2024u}) {
    std::mt19937 rng(seed);
    std::uniform_int_distribution<std::int64_t> pick_id(0, kIds - 1);
    std::uniform_int_distribution<int> pick_op(0, 9);
    ItemMap map;
    Model model;
    for (int step = 0; step < 4000; ++step) {
      const std::int64_t id = pick_id(rng);
      const int op = pick_op(rng);
      if (op < 5) {
        // Find-or-insert, then write through the returned reference.
        const bool had = map.contains(id);
        Item& item = map.find_or_insert(id);
        EXPECT_EQ(item.id, id);
        if (!had) EXPECT_EQ(item.value, 0);  // new entries start value-initialized
        item.value = step;
        model.insert_or_assign(id, step);
      } else if (op < 9) {
        EXPECT_EQ(map.erase(id), model.erase(id)) << "seed " << seed << " step " << step;
      } else if (Item* item = map.find(id)) {
        item->value = -step;
        model.values[id] = -step;
      }
      if (step % 97 == 0) expect_matches(map, model, kIds);
    }
    expect_matches(map, model, kIds);
  }
}

TEST(SlotMap, EraseOfTheLastEntryMovesNothing) {
  ItemMap map;
  for (std::int64_t id : {10, 20, 30}) map.find_or_insert(id).value = static_cast<int>(id);
  EXPECT_TRUE(map.erase(30));
  EXPECT_EQ(packed_ids(map), (std::vector<std::int64_t>{10, 20}));
  // Erasing the first entry swaps the last one into its place.
  EXPECT_TRUE(map.erase(10));
  EXPECT_EQ(packed_ids(map), (std::vector<std::int64_t>{20}));
  EXPECT_EQ(map.find(20)->value, 20);
  EXPECT_TRUE(map.erase(20));
  EXPECT_TRUE(map.empty());
  EXPECT_FALSE(map.contains(20));
}

TEST(SlotMap, EraseOfAnAbsentKeyIsANoOp) {
  ItemMap map;
  EXPECT_FALSE(map.erase(3));  // empty map, index never grown
  map.find_or_insert(5).value = 1;
  map.find_or_insert(2).value = 2;
  EXPECT_FALSE(map.erase(3));     // inside the index, never inserted
  EXPECT_FALSE(map.erase(1000));  // past the index
  EXPECT_FALSE(map.erase(-1));
  EXPECT_TRUE(map.erase(5));
  EXPECT_FALSE(map.erase(5));  // already gone
  EXPECT_EQ(packed_ids(map), (std::vector<std::int64_t>{2}));
  EXPECT_EQ(map.find(2)->value, 2);
}

TEST(SlotMap, NegativeIdsAreAbsentAndCannotBeInserted) {
  ItemMap map;
  EXPECT_FALSE(map.contains(-1));
  EXPECT_EQ(map.find(-1), nullptr);
  EXPECT_THROW(map.find_or_insert(-1), std::out_of_range);
  EXPECT_TRUE(map.empty());
}

TEST(SlotMap, ClearThenReuse) {
  ItemMap map;
  for (std::int64_t id = 0; id < 20; ++id) map.find_or_insert(id).value = 1;
  const std::size_t bytes = map.bytes();
  map.clear();
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.entries().size(), 0u);
  for (std::int64_t id = 0; id < 20; ++id) {
    EXPECT_FALSE(map.contains(id)) << id;
    EXPECT_EQ(map.find(id), nullptr) << id;
  }
  EXPECT_EQ(map.bytes(), bytes);  // capacity and index width are kept
  // Reuse starts a fresh packed order with fresh entries.
  map.find_or_insert(7);
  map.find_or_insert(3).value = 9;
  EXPECT_EQ(packed_ids(map), (std::vector<std::int64_t>{7, 3}));
  EXPECT_EQ(map.find(7)->value, 0);
  EXPECT_EQ(map.find(3)->value, 9);
  EXPECT_TRUE(map.erase(7));
  EXPECT_EQ(packed_ids(map), (std::vector<std::int64_t>{3}));
}

TEST(SlotMap, BytesCountEntriesAndIndex) {
  ItemMap map;
  EXPECT_EQ(map.bytes(), 0u);
  map.reserve(1000);
  const std::size_t index_bytes = map.bytes();
  EXPECT_GE(index_bytes, 1000 * sizeof(std::int32_t));
  // A reserved index is not grown by ids below the reservation.
  map.find_or_insert(999);
  EXPECT_GE(map.bytes(), index_bytes + sizeof(Item));
  EXPECT_LT(map.bytes(), index_bytes + 16 * sizeof(Item));
  // An id past it grows the index geometrically.
  map.find_or_insert(1000);
  EXPECT_GE(map.bytes(), 2000 * sizeof(std::int32_t));
  // Erasing keeps the capacity; the bytes count what is held, not used.
  const std::size_t held = map.bytes();
  map.erase(999);
  map.erase(1000);
  EXPECT_EQ(map.bytes(), held);
}

TEST(SlotMap, GrowSlotNeverReallocatesAReservedSlab) {
  std::vector<std::int32_t> slab;
  slab.reserve(100);
  const std::int32_t* data = slab.data();
  grow_slot(slab, 10, -1) = 7;
  EXPECT_EQ(slab.size(), 11u);  // only as far as the id reaches
  grow_slot(slab, 60, -1);
  EXPECT_EQ(slab.size(), 61u);
  const std::size_t capacity = slab.capacity();
  grow_slot(slab, 70, -1);
  EXPECT_EQ(slab.size(), capacity);  // doubling capped at the capacity held
  EXPECT_EQ(slab.data(), data);
  EXPECT_EQ(slab[10], 7);
  EXPECT_EQ(slab[capacity - 1], -1);
  // Past the capacity it grows geometrically again.
  grow_slot(slab, capacity, -1);
  EXPECT_EQ(slab.size(), 2 * capacity);
  EXPECT_EQ(slab[10], 7);
}

// RAPID's peer table never erases, so its entries carry no key.
TEST(SlotMap, KeylessMapFindsAndInserts) {
  struct Peer {
    double last = -1;
  };
  SlotMap<int, Peer> map;
  map.reserve(8);
  EXPECT_EQ(map.find(5), nullptr);
  map.find_or_insert(5).last = 2.5;
  map.find_or_insert(1).last = 1.0;
  EXPECT_EQ(map.find_or_insert(5).last, 2.5);  // found, not re-inserted
  EXPECT_EQ(map.size(), 2u);
  EXPECT_EQ(map.find(1)->last, 1.0);
  EXPECT_EQ(map.find(0), nullptr);
  map.clear();
  EXPECT_EQ(map.find(5), nullptr);
  EXPECT_EQ(map.find_or_insert(5).last, -1);  // default member initializer
}

}  // namespace
}  // namespace rapid
