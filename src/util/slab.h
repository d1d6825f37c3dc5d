// Dense id-keyed storage for the flat-state layout: packet and node ids are
// dense non-negative integers, so per-id tables index by the id itself
// instead of hashing it.
//
// grow_slot is the growth policy of every id-indexed slab: ids arrive
// roughly in creation order, so growing to exactly id+1 would reallocate
// over and over — grow geometrically instead, but never past capacity
// already held while the id fits in it, so a reserved slab is never
// reallocated and its pages are touched only as far as ids reach.
//
// SlotMap is the one id → entry map built on it: an int32 index
// (id → position, -1 = absent) over a packed entry vector. Membership is one
// flat load, insertion appends, erase swaps the last entry into the hole and
// repoints its slot, and iteration walks contiguous memory. The packed order
// is therefore insertion order perturbed by swap-erase; owners that read it
// (drop-victim ties, stable-sort tie-breaks, snapshots) get exactly that.
// The index grows to the largest id inserted (pool-sized per owner in the
// worst case for packet ids); reserve() allocates it up front, which
// node-keyed maps use so their index never grows past n.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/span.h"

namespace rapid {

// Ensures v[id] exists (filling new slots with `fill`) and returns it.
template <typename T, typename Id>
T& grow_slot(std::vector<T>& v, Id id, const T& fill = T()) {
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= v.size()) {
    std::size_t size = std::max(idx + 1, v.size() * 2);
    if (idx < v.capacity()) size = std::min(size, v.capacity());
    v.resize(size, fill);
  }
  return v[idx];
}

// Id: the key type (packet or node id). T: the packed entry. KeyField: the
// member of T that holds the entry's own id (e.g. &Entry::id); erase needs
// it to repoint the entry it moves. A map that never erases may omit it and
// carry no key in its entries.
template <typename Id, typename T, auto KeyField = nullptr>
class SlotMap {
  static constexpr bool kKeyed = !std::is_null_pointer_v<decltype(KeyField)>;

 public:
  bool contains(Id id) const { return slot(id) >= 0; }

  // Pointer into the packed entries; invalidated by the next insert or
  // erase. Null when absent.
  T* find(Id id) {
    const std::int32_t at = slot(id);
    return at >= 0 ? &entries_[static_cast<std::size_t>(at)] : nullptr;
  }
  const T* find(Id id) const { return const_cast<SlotMap*>(this)->find(id); }

  // The entry for `id`, appended value-initialized (with its key field set)
  // when absent.
  T& find_or_insert(Id id) {
    if (id < 0) throw std::out_of_range("SlotMap: negative id");
    std::int32_t& at = grow_slot(index_, id, std::int32_t{-1});
    if (at < 0) {
      at = static_cast<std::int32_t>(entries_.size());
      entries_.emplace_back();
      if constexpr (kKeyed) entries_.back().*KeyField = id;
    }
    return entries_[static_cast<std::size_t>(at)];
  }

  // Swap-with-last removal; returns false if absent.
  bool erase(Id id) {
    static_assert(kKeyed, "SlotMap::erase needs the entry's key field");
    const std::int32_t at = slot(id);
    if (at < 0) return false;
    const auto pos = static_cast<std::size_t>(at);
    if (pos + 1 != entries_.size()) {
      entries_[pos] = std::move(entries_.back());
      index_[static_cast<std::size_t>(entries_[pos].*KeyField)] = at;
    }
    entries_.pop_back();
    index_[static_cast<std::size_t>(id)] = -1;
    return true;
  }

  // Drops every entry; the index keeps its width.
  void clear() {
    entries_.clear();
    std::fill(index_.begin(), index_.end(), std::int32_t{-1});
  }

  // Allocates the index for ids below `ids`; inserting them never
  // reallocates it.
  void reserve(std::size_t ids) { index_.reserve(ids); }

  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // The packed entries — a zero-copy view, valid until the next insert or
  // erase.
  Span<T> entries() const { return Span<T>(entries_.data(), entries_.size()); }
  const T* begin() const { return entries_.data(); }
  const T* end() const { return entries_.data() + entries_.size(); }

  // Heap bytes of the entry vector and the index (not of any heap storage
  // the entries own).
  std::size_t bytes() const {
    return entries_.capacity() * sizeof(T) + index_.capacity() * sizeof(std::int32_t);
  }

 private:
  std::int32_t slot(Id id) const {
    return id >= 0 && static_cast<std::size_t>(id) < index_.size()
               ? index_[static_cast<std::size_t>(id)]
               : -1;
  }

  std::vector<T> entries_;
  std::vector<std::int32_t> index_;  // id -> position in entries_, -1 = absent
};

}  // namespace rapid
