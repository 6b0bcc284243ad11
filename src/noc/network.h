// The system interconnect: GPU<->HMC links plus the inter-HMC hypercube
// memory network, with per-packet-type traffic accounting.
//
// Sending computes the full path at injection time and reserves each link
// in order (serialization + per-hop router latency), then deposits the
// packet in the destination node's RX channel at the final arrival time.
// This "lazy link server" model captures serialization and link contention
// exactly for FIFO links without simulating per-flit router state.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "noc/link.h"
#include "noc/packet.h"
#include "noc/router.h"
#include "sim/timed_channel.h"

namespace sndp {

struct AuditSnapshot;
struct RunResult;
class LatencyTracer;
class TraceWriter;

class Network {
 public:
  explicit Network(const SystemConfig& cfg);

  // Optional: record every packet flight as a trace event.
  void set_trace(TraceWriter* trace) { trace_ = trace; }

  // Optional: per-hop latency accounting (queue wait vs wire time on every
  // link of the route) for tracked packets.
  void set_latency(LatencyTracer* latency) { latency_ = latency; }

  unsigned gpu_node() const { return num_hmcs_; }
  unsigned num_hmcs() const { return num_hmcs_; }

  // Inject a packet at time `now`; returns its arrival time at dst.
  // src/dst must differ and be valid node ids (HMC 0..H-1 or gpu_node()).
  TimePs send(Packet pkt, TimePs now);

  // RX channel for a node.  The GPU and each HMC drain their own.
  TimedChannel<Packet>& rx(unsigned node) { return rx_.at(node); }
  const TimedChannel<Packet>& rx(unsigned node) const { return rx_.at(node); }

  bool idle() const;

  // Traffic accounting (bytes on the wire, per hop for network links).
  std::uint64_t gpu_up_bytes() const { return gpu_up_bytes_; }      // GPU -> HMC
  std::uint64_t gpu_down_bytes() const { return gpu_down_bytes_; }  // HMC -> GPU
  std::uint64_t cube_bytes() const { return cube_bytes_; }          // HMC <-> HMC

  // Flow audit (src/obs/stats_audit.*): add to `s` the packets ever
  // injected, the packets sitting in RX channels (instantaneous), the bytes
  // summed over every physical link, and the per-class byte counters above,
  // each and as one sum (the two byte sums must agree).
  void audit(AuditSnapshot& s) const;

  // End of run: the `net.*` stats, the GPU-link, cube-link and invalidation
  // traffic, and the off-chip bytes the energy model charges.
  void report(RunResult& r) const;

 private:
  struct LinkPair {
    std::unique_ptr<Link> up;    // toward higher node id / toward HMC (GPU links)
    std::unique_ptr<Link> down;  // reverse direction
  };

  Link& gpu_link(unsigned hmc, bool toward_hmc);
  Link& cube_link(unsigned from, unsigned to);
  std::uint64_t total_offchip_bytes() const {
    return gpu_up_bytes_ + gpu_down_bytes_ + cube_bytes_;
  }

  unsigned num_hmcs_;
  bool pow2_nodes_ = true;  // selects historic vs incomplete-cube routing
  LinkConfig link_cfg_;
  TimePs router_latency_ps_;
  std::vector<LinkPair> gpu_links_;              // one per HMC
  std::map<std::uint64_t, LinkPair> cube_links_; // key: (min<<32)|max
  std::vector<TimedChannel<Packet>> rx_;

  std::uint64_t gpu_up_bytes_ = 0;
  std::uint64_t gpu_down_bytes_ = 0;
  std::uint64_t cube_bytes_ = 0;
  std::map<PacketType, std::uint64_t> bytes_by_type_;
  std::uint64_t packets_injected_ = 0;
  TraceWriter* trace_ = nullptr;
  LatencyTracer* latency_ = nullptr;
};

}  // namespace sndp
