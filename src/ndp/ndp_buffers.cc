#include "ndp/ndp_buffers.h"

#include <stdexcept>

namespace sndp {

template <std::vector<std::uint64_t> Packet::*Lanes>
void LaneMergeBuffer<Lanes>::deposit(const Packet& p) {
  const NdpBufferKey key = NdpBufferKey::of(p.oid);
  Entry& e = entries_[key];
  if (entries_.size() > capacity_) {
    throw std::logic_error("NDP lane-merge buffer: over capacity — credit protocol violated");
  }
  if ((e.accumulated & p.mask) != 0) {
    throw std::logic_error("NDP lane-merge buffer: duplicate lanes in one packet id");
  }
  e.accumulated |= p.mask;
  e.expected |= p.expected_mask;
  e.width = p.mem_width;
  e.f32 = p.mem_f32;
  e.misaligned = e.misaligned || p.misaligned;
  const std::vector<std::uint64_t>& words = p.*Lanes;
  for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
    if (p.mask & (LaneMask{1} << lane)) e.lanes[lane] = words[lane];
  }
}

template <std::vector<std::uint64_t> Packet::*Lanes>
bool LaneMergeBuffer<Lanes>::complete(const NdpBufferKey& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.expected != 0 &&
         it->second.accumulated == it->second.expected;
}

template <std::vector<std::uint64_t> Packet::*Lanes>
typename LaneMergeBuffer<Lanes>::Entry LaneMergeBuffer<Lanes>::take(const NdpBufferKey& key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) throw std::logic_error("NDP lane-merge buffer: take() of absent entry");
  Entry e = it->second;
  entries_.erase(it);
  return e;
}

template class LaneMergeBuffer<&Packet::lane_data>;
template class LaneMergeBuffer<&Packet::lane_addrs>;

void CmdBuffer::push(Packet cmd) {
  if (queue_.size() >= capacity_) {
    throw std::logic_error("CmdBuffer: over capacity — credit protocol violated");
  }
  queue_.push_back(std::move(cmd));
}

Packet CmdBuffer::pop() {
  Packet p = std::move(queue_.front());
  queue_.pop_front();
  return p;
}

}  // namespace sndp
