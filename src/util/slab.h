// Growth policy for the dense per-packet slot tables of the flat-state
// layout: ids arrive roughly in creation order, so growing to exactly id+1
// would reallocate over and over — grow geometrically instead. One shared
// helper so every slab (buffers, ack tables, delivery receipts, metadata
// indexes, per-protocol packet tables, channels) follows the same policy.
// A slab indexed by packet id is pool-sized in the worst case; per-packet
// state that only buffered packets need belongs beside the buffer instead.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

namespace rapid {

// Ensures v[id] exists (filling new slots with `fill`) and returns it.
template <typename T, typename Id>
T& grow_slot(std::vector<T>& v, Id id, const T& fill = T()) {
  const auto idx = static_cast<std::size_t>(id);
  if (idx >= v.size()) v.resize(std::max(idx + 1, v.size() * 2), fill);
  return v[idx];
}

}  // namespace rapid
