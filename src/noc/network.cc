#include "noc/network.h"

#include <bit>
#include <stdexcept>

#include "obs/latency.h"
#include "obs/stats_audit.h"
#include "sim/simulator.h"
#include "sim/trace.h"

namespace sndp {
namespace {
std::uint64_t pair_key(unsigned a, unsigned b) {
  const unsigned lo = a < b ? a : b;
  const unsigned hi = a < b ? b : a;
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}
}  // namespace

Network::Network(const SystemConfig& cfg)
    : num_hmcs_(cfg.num_hmcs),
      link_cfg_(cfg.link),
      router_latency_ps_(cfg.link.router_latency_cycles *
                         tick_time_ps(1, cfg.clocks.dram_khz)) {
  rx_.resize(num_hmcs_ + 1);  // +1: the GPU node
  auto make_pair = [&] {
    LinkPair p;
    p.up = std::make_unique<Link>(link_cfg_.gb_per_s, link_cfg_.propagation_ps);
    p.down = std::make_unique<Link>(link_cfg_.gb_per_s, link_cfg_.propagation_ps);
    return p;
  };
  gpu_links_.reserve(num_hmcs_);
  for (unsigned h = 0; h < num_hmcs_; ++h) gpu_links_.push_back(make_pair());
  // Hypercube edges: (i, i ^ (1 << d)) for each dimension d, created once.
  // Non-power-of-two counts keep only the edges whose far endpoint exists
  // (the incomplete hypercube).
  const unsigned dims = hypercube_dimensions(num_hmcs_);
  for (unsigned i = 0; i < num_hmcs_; ++i) {
    for (unsigned d = 0; d < dims; ++d) {
      const unsigned j = i ^ (1u << d);
      if (i < j && j < num_hmcs_) cube_links_.emplace(pair_key(i, j), make_pair());
    }
  }
  pow2_nodes_ = std::has_single_bit(num_hmcs_);
}

Link& Network::gpu_link(unsigned hmc, bool toward_hmc) {
  LinkPair& p = gpu_links_.at(hmc);
  return toward_hmc ? *p.up : *p.down;
}

Link& Network::cube_link(unsigned from, unsigned to) {
  auto it = cube_links_.find(pair_key(from, to));
  if (it == cube_links_.end()) throw std::logic_error("Network: no such cube link");
  return from < to ? *it->second.up : *it->second.down;
}

TimePs Network::send(Packet pkt, TimePs now) {
  const unsigned gpu = gpu_node();
  if (pkt.src_node == pkt.dst_node) throw std::logic_error("Network: src == dst");
  if (pkt.src_node > gpu || pkt.dst_node > gpu) throw std::logic_error("Network: bad node id");

  ++packets_injected_;
  bytes_by_type_[pkt.type] += pkt.size_bytes;
  const LinkTier ctrl = is_urgent_packet(pkt.type)    ? LinkTier::kUrgent
                        : is_control_packet(pkt.type) ? LinkTier::kControl
                                                      : LinkTier::kBulk;

  // Latency accounting: any wait since the packet's last stamp is queueing
  // at the injection port; each link leg splits into tier wait (queue) and
  // serialization + propagation (link); router pipeline stages count as
  // link time.  The stamp ends up at the final arrival time.
  const bool lat = latency_ != nullptr && pkt.lt.active;
  if (lat) latency_->queue_hop(pkt, now, "inject", pkt.src_node);
  TimePs wait = 0;
  TimePs* wp = lat ? &wait : nullptr;

  TimePs t = now;
  if (pkt.src_node == gpu) {
    // GPU -> HMC: one dedicated link; no network hops (the destination HMC
    // is always directly attached).
    const TimePs t0 = t;
    t = gpu_link(pkt.dst_node, /*toward_hmc=*/true).transmit(t, pkt.size_bytes, ctrl, wp);
    gpu_up_bytes_ += pkt.size_bytes;
    if (lat) latency_->add_link(pkt, wait, t - t0 - wait);
  } else if (pkt.dst_node == gpu) {
    const TimePs t0 = t;
    t = gpu_link(pkt.src_node, /*toward_hmc=*/false).transmit(t, pkt.size_bytes, ctrl, wp);
    gpu_down_bytes_ += pkt.size_bytes;
    if (lat) latency_->add_link(pkt, wait, t - t0 - wait);
  } else {
    // HMC -> HMC over the hypercube, dimension-order.  Fixed-size route
    // buffer: this runs once per packet, so no heap traffic here.
    unsigned path[kMaxRouteNodes];
    // Power-of-two counts keep the historic lowest-bit-first route (bit-
    // identical link traffic); others need the incomplete-cube route whose
    // intermediates all exist.
    const unsigned hops =
        pow2_nodes_ ? hypercube_route(pkt.src_node, pkt.dst_node, path)
                    : incomplete_hypercube_route(pkt.src_node, pkt.dst_node, num_hmcs_, path);
    for (unsigned i = 0; i + 1 < hops; ++i) {
      TimePs router = 0;
      if (i > 0) {
        router = router_latency_ps_;  // per-hop router pipeline
        t += router;
      }
      const TimePs t0 = t;
      t = cube_link(path[i], path[i + 1]).transmit(t, pkt.size_bytes, ctrl, wp);
      cube_bytes_ += pkt.size_bytes;
      if (lat) latency_->add_link(pkt, wait, router + t - t0 - wait);
    }
  }
  if (lat) latency_->queue_hop(pkt, t, "eject", pkt.dst_node);
  const unsigned dst = pkt.dst_node;
  if (trace_ != nullptr) {
    // Row id: source node (GPU = num_hmcs).
    trace_->complete(packet_type_name(pkt.type), "packet",
                     static_cast<int>(pkt.src_node), now, t - now);
  }
  rx_[dst].push(std::move(pkt), t);
  return t;
}

bool Network::idle() const {
  for (const auto& ch : rx_) {
    if (!ch.empty()) return false;
  }
  return true;
}

void Network::audit(AuditSnapshot& s) const {
  s.net_injected += packets_injected_;
  for (const auto& ch : rx_) s.net_in_flight += ch.size();
  for (const LinkPair& p : gpu_links_) {
    s.link_bytes += p.up->bytes_transmitted() + p.down->bytes_transmitted();
  }
  for (const auto& [key, p] : cube_links_) {
    s.link_bytes += p.up->bytes_transmitted() + p.down->bytes_transmitted();
  }
  s.class_bytes += total_offchip_bytes();
  s.gpu_up_bytes += gpu_up_bytes_;
  s.gpu_down_bytes += gpu_down_bytes_;
  s.cube_bytes += cube_bytes_;
}

void Network::report(RunResult& r) const {
  r.gpu_link_bytes += gpu_up_bytes_ + gpu_down_bytes_;
  r.cube_link_bytes += cube_bytes_;
  r.counters.offchip_bytes += total_offchip_bytes();
  StatSet& out = r.stats;
  out.set("net.gpu_up_bytes", static_cast<double>(gpu_up_bytes_));
  out.set("net.gpu_down_bytes", static_cast<double>(gpu_down_bytes_));
  out.set("net.cube_bytes", static_cast<double>(cube_bytes_));
  out.set("net.total_offchip_bytes", static_cast<double>(total_offchip_bytes()));
  out.set("net.packets_injected", static_cast<double>(packets_injected_));
  for (const auto& [type, bytes] : bytes_by_type_) {
    if (type == PacketType::kCacheInval) r.inval_bytes += bytes;
    out.set(std::string("net.bytes.") + packet_type_name(type), static_cast<double>(bytes));
  }
}

}  // namespace sndp
