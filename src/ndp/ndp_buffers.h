// The NSU-side NDP buffers (paper §4.1.2, Table 2): the read-data buffer
// (RDF responses merge here until every expected lane has arrived), the
// write-address buffer (WTA packets merge likewise), and the offload
// command queue.  Entries are keyed by the offload packet id; capacity is
// guaranteed by the GPU-side credit reservation, which these classes also
// double-check at runtime.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "noc/packet.h"

namespace sndp {

struct NdpBufferKey {
  SmId sm = 0;
  WarpId warp = 0;
  std::uint64_t instance = 0;
  std::uint32_t seq = 0;

  friend bool operator==(const NdpBufferKey&, const NdpBufferKey&) = default;

  static NdpBufferKey of(const OffloadPacketId& oid) {
    return NdpBufferKey{oid.sm, oid.warp, oid.instance, oid.seq};
  }
};

struct NdpBufferKeyHash {
  std::size_t operator()(const NdpBufferKey& k) const {
    std::uint64_t h = k.instance * 0x9E3779B97F4A7C15ull;
    h ^= (static_cast<std::uint64_t>(k.sm) << 40) ^ (static_cast<std::uint64_t>(k.warp) << 20) ^
         k.seq;
    h *= 0xBF58476D1CE4E5B9ull;
    return static_cast<std::size_t>(h ^ (h >> 31));
  }
};

// A keyed lane-merge buffer: packets with the same offload packet id merge
// their `Lanes` words until every expected lane has arrived.  The read-data
// buffer merges RDF responses' data words, the write-address buffer WTA
// packets' addresses.
template <std::vector<std::uint64_t> Packet::*Lanes>
class LaneMergeBuffer {
 public:
  explicit LaneMergeBuffer(unsigned capacity) : capacity_(capacity) {}

  struct Entry {
    LaneMask accumulated = 0;
    LaneMask expected = 0;
    std::array<std::uint64_t, kWarpWidth> lanes{};
    // Write attributes (WTA): the latest packet's width and f32 flag, and
    // whether any packet was misaligned.
    std::uint8_t width = 8;
    bool f32 = false;
    bool misaligned = false;
  };

  // Merge a packet (creates the entry on first arrival).
  void deposit(const Packet& p);

  bool complete(const NdpBufferKey& key) const;
  // Remove and return a complete entry.
  Entry take(const NdpBufferKey& key);

  std::size_t size() const { return entries_.size(); }
  unsigned capacity() const { return capacity_; }

 private:
  unsigned capacity_;
  std::unordered_map<NdpBufferKey, Entry, NdpBufferKeyHash> entries_;
};

using ReadDataBuffer = LaneMergeBuffer<&Packet::lane_data>;
using WriteAddrBuffer = LaneMergeBuffer<&Packet::lane_addrs>;

// Offload-command queue (10 entries in the paper's configuration).
class CmdBuffer {
 public:
  explicit CmdBuffer(unsigned capacity) : capacity_(capacity) {}

  bool empty() const { return queue_.empty(); }
  std::size_t size() const { return queue_.size(); }
  // Head-of-line peek (the NSU's per-tenant warp quota inspects the next
  // command's tenant without dequeueing it).
  const Packet& front() const { return queue_.front(); }
  void push(Packet cmd);
  Packet pop();

 private:
  unsigned capacity_;
  std::deque<Packet> queue_;
};

}  // namespace sndp
