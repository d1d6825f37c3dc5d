// A node's in-transit packet store with a byte capacity (§3.1: "limited
// storage ... only storage for in-transit data is limited").
//
// The buffer enforces the capacity invariant; *which* packet to evict is a
// routing-protocol decision and lives in Router::choose_drop_victim.
//
// Storage is a SlotMap (util/slab.h) of packed {id, size} entries:
// contains/insert/erase are O(1) (erase is swap-with-last), and iteration
// walks contiguous memory. The packed order is insertion order perturbed by
// swap-erase; protocols that need a specific order sort the ids themselves
// (see dtn/age_order.h).
#pragma once

#include <cstddef>
#include <vector>

#include "util/slab.h"
#include "util/span.h"
#include "util/types.h"

namespace rapid {

class Buffer {
 public:
  struct Entry {
    PacketId id = kNoPacket;
    Bytes size = 0;
  };

  // capacity < 0 means unlimited.
  explicit Buffer(Bytes capacity = -1) : capacity_(capacity) {}

  bool contains(PacketId id) const { return entries_.contains(id); }
  // Inserts if it fits; returns false (and stores nothing) otherwise.
  bool insert(PacketId id, Bytes size);
  // Removes the packet (swap-with-last in the packed list); returns false if
  // absent.
  bool erase(PacketId id);

  bool fits(Bytes size) const { return capacity_ < 0 || used_ + size <= capacity_; }
  Bytes used() const { return used_; }
  Bytes capacity() const { return capacity_; }
  Bytes free_bytes() const;
  std::size_t count() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  Bytes size_of(PacketId id) const;
  // Heap bytes held: the packed entries and the slot index.
  std::size_t bytes() const { return entries_.bytes(); }

  // The packed entries themselves — a zero-copy view, valid until the next
  // insert/erase. Order is unspecified (insertion order perturbed by
  // swap-erase).
  Span<Entry> entries() const { return entries_.entries(); }

  // Stable snapshot of buffered packet ids (unspecified order). Allocates;
  // hot paths should use entries()/for_each instead.
  std::vector<PacketId> packet_ids() const;

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.id, e.size);
  }

 private:
  Bytes capacity_;
  Bytes used_ = 0;
  SlotMap<PacketId, Entry, &Entry::id> entries_;
};

}  // namespace rapid
