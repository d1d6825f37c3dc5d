// Flat delivery-acknowledgment table.
//
// Packet ids are dense pool indexes, so "does this node know packet i was
// delivered?" is a direct-indexed slot probe instead of a hash lookup, and
// the delta exchange walks a packed {id, time} entry list in contiguous
// memory. Acks are never forgotten (a delivered packet stays delivered), so
// there is no erase path and entries keep their insertion order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/slab.h"
#include "util/span.h"
#include "util/types.h"

namespace rapid {

class AckTable {
 public:
  struct Entry {
    PacketId id = kNoPacket;
    Time when = 0;
  };

  bool contains(PacketId id) const {
    return id >= 0 && static_cast<std::size_t>(id) < slot_.size() &&
           slot_[static_cast<std::size_t>(id)] >= 0;
  }

  // Records the ack; returns false (keeping the original stamp) if already
  // known.
  bool insert(PacketId id, Time when) {
    if (id < 0 || contains(id)) return false;
    grow_slot(slot_, id, std::int32_t{-1}) = static_cast<std::int32_t>(entries_.size());
    entries_.push_back(Entry{id, when});
    return true;
  }

  // Delivery time of a known ack; caller must check contains() first.
  Time time_of(PacketId id) const {
    return entries_[static_cast<std::size_t>(slot_[static_cast<std::size_t>(id)])].when;
  }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  // Heap bytes held: the packed entries and the slot index.
  std::size_t bytes() const {
    return entries_.capacity() * sizeof(Entry) + slot_.capacity() * sizeof(std::int32_t);
  }

  // Packed entries in insertion order; a zero-copy view, valid until the
  // next insert. Safe to iterate while inserting into a *different* table
  // (the in-place delta exchange relies on this).
  Span<Entry> entries() const { return Span<Entry>(entries_.data(), entries_.size()); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : entries_) fn(e.id, e.when);
  }

 private:
  std::vector<Entry> entries_;      // packed, insertion-ordered
  std::vector<std::int32_t> slot_;  // id -> index into entries_, -1 = absent
};

}  // namespace rapid
