#include "dtn/buffer.h"

#include <limits>
#include <stdexcept>

namespace rapid {

bool Buffer::insert(PacketId id, Bytes size) {
  if (size < 0) throw std::invalid_argument("Buffer::insert: negative size");
  if (id < 0) throw std::invalid_argument("Buffer::insert: negative id");
  if (contains(id) || !fits(size)) return false;
  entries_.find_or_insert(id).size = size;
  used_ += size;
  return true;
}

bool Buffer::erase(PacketId id) {
  const Entry* e = entries_.find(id);
  if (e == nullptr) return false;
  used_ -= e->size;
  return entries_.erase(id);
}

Bytes Buffer::free_bytes() const {
  if (capacity_ < 0) return std::numeric_limits<Bytes>::max();
  return capacity_ - used_;
}

Bytes Buffer::size_of(PacketId id) const {
  const Entry* e = entries_.find(id);
  if (e == nullptr) throw std::out_of_range("Buffer::size_of: not buffered");
  return e->size;
}

std::vector<PacketId> Buffer::packet_ids() const {
  std::vector<PacketId> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.id);
  return out;
}

}  // namespace rapid
