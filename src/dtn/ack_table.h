// Flat delivery-acknowledgment table.
//
// A SlotMap (util/slab.h) of packed {id, time} entries: "does this node know
// packet i was delivered?" is one flat load instead of a hash lookup, and
// the delta exchange walks the packed entries in contiguous memory. Acks are
// never forgotten (a delivered packet stays delivered), so there is no erase
// path and entries keep their insertion order.
#pragma once

#include <cstddef>

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

  bool contains(PacketId id) const { return acks_.contains(id); }

  // Records the ack; returns false (keeping the original stamp) if already
  // known.
  bool insert(PacketId id, Time when) {
    if (id < 0 || contains(id)) return false;
    acks_.find_or_insert(id).when = when;
    return true;
  }

  // Delivery time of a known ack; caller must check contains() first.
  Time time_of(PacketId id) const { return acks_.find(id)->when; }

  std::size_t size() const { return acks_.size(); }
  bool empty() const { return acks_.empty(); }
  // Heap bytes held: the packed entries and the slot index.
  std::size_t bytes() const { return acks_.bytes(); }

  // Packed entries in insertion order; a zero-copy view, valid until the
  // next insert. Safe to iterate while inserting into a *different* table
  // (the in-place delta exchange relies on this).
  Span<Entry> entries() const { return acks_.entries(); }

  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Entry& e : acks_) fn(e.id, e.when);
  }

 private:
  SlotMap<PacketId, Entry, &Entry::id> acks_;
};

}  // namespace rapid
