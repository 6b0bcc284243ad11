// Tests for routing, links (virtual channels), and the network fabric.
#include <gtest/gtest.h>
#include <bit>

#include "noc/link.h"
#include "noc/network.h"
#include "noc/packet.h"
#include "noc/router.h"
#include "sim/simulator.h"

namespace sndp {
namespace {

TEST(Hypercube, DistanceIsPopcount) {
  EXPECT_EQ(hypercube_distance(0, 0), 0u);
  EXPECT_EQ(hypercube_distance(0, 7), 3u);
  EXPECT_EQ(hypercube_distance(5, 6), 2u);
}

TEST(Hypercube, RouteEndpointsAndLength) {
  for (unsigned a = 0; a < 8; ++a) {
    for (unsigned b = 0; b < 8; ++b) {
      const auto path = hypercube_route(a, b);
      EXPECT_EQ(path.front(), a);
      EXPECT_EQ(path.back(), b);
      EXPECT_EQ(path.size(), hypercube_distance(a, b) + 1);
      // Property: each hop flips exactly one bit, lowest-first (dimension
      // order).
      unsigned last_dim = 0;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const unsigned diff = path[i] ^ path[i + 1];
        EXPECT_EQ(diff & (diff - 1), 0u) << "hop flips more than one bit";
        const unsigned dim = static_cast<unsigned>(std::countr_zero(diff));
        if (i > 0) {
          EXPECT_GT(dim, last_dim);
        }
        last_dim = dim;
      }
    }
  }
}

TEST(Hypercube, Dimensions) {
  EXPECT_EQ(hypercube_dimensions(1), 0u);
  EXPECT_EQ(hypercube_dimensions(8), 3u);
  EXPECT_EQ(hypercube_dimensions(16), 4u);
  // Non-powers-of-two embed in the enclosing cube.
  EXPECT_EQ(hypercube_dimensions(3), 2u);
  EXPECT_EQ(hypercube_dimensions(5), 3u);
  EXPECT_EQ(hypercube_dimensions(6), 3u);
  EXPECT_EQ(hypercube_dimensions(7), 3u);
}

TEST(Hypercube, IncompleteRouteStaysInsideTheNodeSet) {
  // Every (a, b) pair of every incomplete cube: the route's endpoints are
  // right, every hop flips exactly one bit (a real cube edge), and — the
  // property plain dimension-order routing violates (6 -> 1 visits 7 in a
  // 7-node cube) — every intermediate node exists.
  for (unsigned n : {3u, 5u, 6u, 7u}) {
    for (unsigned a = 0; a < n; ++a) {
      for (unsigned b = 0; b < n; ++b) {
        const auto path = incomplete_hypercube_route(a, b, n);
        ASSERT_GE(path.size(), 1u);
        EXPECT_EQ(path.front(), a);
        EXPECT_EQ(path.back(), b);
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const unsigned diff = path[i] ^ path[i + 1];
          EXPECT_NE(diff, 0u) << "null hop";
          EXPECT_EQ(diff & (diff - 1), 0u) << "hop flips more than one bit";
        }
        for (unsigned node : path) {
          EXPECT_LT(node, n) << "route " << a << "->" << b << " in " << n
                             << "-node cube leaves the node set";
        }
      }
    }
  }
}

TEST(Hypercube, IncompleteRouteMatchesDistanceWhenDirectPathExists) {
  // Descend-then-ascend never takes more hops than popcount(a ^ b) plus the
  // detour bits, and collapses to the direct route when a and b are cube
  // neighbours.
  const auto path = incomplete_hypercube_route(4, 5, 6);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[0], 4u);
  EXPECT_EQ(path[1], 5u);
  // 6 -> 1 must detour (direct dimension-order passes through 7): descend
  // 6 -> 4 -> 0, then ascend 0 -> 1.
  const auto detour = incomplete_hypercube_route(6, 1, 7);
  EXPECT_EQ(detour.front(), 6u);
  EXPECT_EQ(detour.back(), 1u);
  for (unsigned node : detour) EXPECT_LT(node, 7u);
}

TEST(Link, SerializationAndPropagation) {
  Link link(20.0, 3000);
  // 100 B at 20 GB/s = 5000 ps on the wire.
  EXPECT_EQ(link.transmit(0, 100), 8000u);
  EXPECT_EQ(link.free_at(), 5000u);
  // Back-to-back: second waits for the wire.
  EXPECT_EQ(link.transmit(0, 100), 13000u);
  EXPECT_EQ(link.bytes_transmitted(), 200u);
}

TEST(Link, UrgentPreemptsBulkBacklog) {
  Link link(20.0, 0);
  link.transmit(0, 100000);  // 5 us of bulk backlog
  const TimePs urgent = link.transmit(0, 10, LinkTier::kUrgent);
  EXPECT_EQ(urgent, 500u);  // only its own serialization
  // The bulk channel was pushed back by the urgent packet.
  EXPECT_GE(link.free_at(), 5000000u + 500u);
}

TEST(Link, ControlWaitsBehindControlOnly) {
  Link link(20.0, 0);
  link.transmit(0, 100000);                        // bulk
  link.transmit(0, 100, LinkTier::kControl);       // 5000 ps
  const TimePs second = link.transmit(0, 100, LinkTier::kControl);
  EXPECT_EQ(second, 10000u);  // behind first control, not behind bulk
}

TEST(Link, TierOrderingUrgentAboveControl) {
  Link link(20.0, 0);
  link.transmit(0, 1000, LinkTier::kControl);  // 50 us... 50000 ps
  const TimePs urgent = link.transmit(0, 10, LinkTier::kUrgent);
  EXPECT_EQ(urgent, 500u);
}

TEST(Network, GpuToHmcDirectLink) {
  const SystemConfig cfg = SystemConfig::paper();
  Network net(cfg);
  Packet p;
  p.type = PacketType::kMemRead;
  p.src_node = static_cast<std::uint16_t>(net.gpu_node());
  p.dst_node = 3;
  p.size_bytes = 16;
  const TimePs arrival = net.send(p, 1000);
  EXPECT_GT(arrival, 1000u);
  EXPECT_EQ(net.gpu_up_bytes(), 16u);
  EXPECT_EQ(net.cube_bytes(), 0u);
  ASSERT_TRUE(net.rx(3).ready(arrival));
  EXPECT_EQ(net.rx(3).front().type, PacketType::kMemRead);
}

TEST(Network, HmcToHmcUsesCubeLinksPerHop) {
  const SystemConfig cfg = SystemConfig::paper();
  Network net(cfg);
  Packet p;
  p.type = PacketType::kRdfResp;
  p.src_node = 0;
  p.dst_node = 7;  // 3 hops
  p.size_bytes = 100;
  net.send(p, 0);
  EXPECT_EQ(net.cube_bytes(), 300u);  // per-hop accounting
  EXPECT_EQ(net.gpu_up_bytes(), 0u);
  EXPECT_EQ(net.gpu_down_bytes(), 0u);
}

TEST(Network, MoreHopsTakeLonger) {
  const SystemConfig cfg = SystemConfig::paper();
  Network net1(cfg), net3(cfg);
  Packet p;
  p.type = PacketType::kRdfResp;
  p.size_bytes = 64;
  p.src_node = 0;
  p.dst_node = 1;  // 1 hop
  const TimePs t1 = net1.send(p, 0);
  p.dst_node = 7;  // 3 hops
  const TimePs t3 = net3.send(p, 0);
  EXPECT_GT(t3, t1);
}

TEST(Network, RejectsBadEndpoints) {
  Network net(SystemConfig::paper());
  Packet p;
  p.src_node = 2;
  p.dst_node = 2;
  EXPECT_THROW(net.send(p, 0), std::logic_error);
  p.dst_node = 99;
  EXPECT_THROW(net.send(p, 0), std::logic_error);
}

TEST(Network, TrafficAccountingByType) {
  Network net(SystemConfig::paper());
  Packet p;
  p.type = PacketType::kCacheInval;
  p.src_node = 1;
  p.dst_node = static_cast<std::uint16_t>(net.gpu_node());
  p.size_bytes = 16;
  net.send(p, 0);
  net.send(p, 100);
  EXPECT_EQ(net.gpu_down_bytes(), 32u);
  RunResult r;
  net.report(r);
  EXPECT_EQ(r.inval_bytes, 32u);
  EXPECT_EQ(r.gpu_link_bytes, 32u);
  EXPECT_EQ(r.counters.offchip_bytes, 32u);
  EXPECT_DOUBLE_EQ(r.stats.get("net.bytes.INVAL"), 32.0);
}

TEST(Network, IdleAfterDrain) {
  Network net(SystemConfig::paper());
  EXPECT_TRUE(net.idle());
  Packet p;
  p.type = PacketType::kMemRead;
  p.src_node = static_cast<std::uint16_t>(net.gpu_node());
  p.dst_node = 0;
  p.size_bytes = 16;
  const TimePs arrival = net.send(p, 0);
  EXPECT_FALSE(net.idle());
  ASSERT_TRUE(net.rx(0).pop_ready(arrival).has_value());
  EXPECT_TRUE(net.idle());
}

TEST(PacketSizes, MatchFigure4Fields) {
  // CMD: hdr(8) + oid(4) + PC(8) + mask(4) + target(1) [+ regs + preds].
  EXPECT_EQ(cmd_packet_bytes(0, 32, false), 25u);
  EXPECT_EQ(cmd_packet_bytes(1, 32, false), 25u + 8 * 32);
  EXPECT_EQ(cmd_packet_bytes(0, 32, true), 25u + 32);
  // RDF/WTA: hdr + oid + addr + mask + target [+ per-lane offsets].
  EXPECT_EQ(rdf_wta_packet_bytes(32, false), 25u);
  EXPECT_EQ(rdf_wta_packet_bytes(32, true), 25u + 32);
  // RDF response: hdr + oid + addr + mask + only touched words.
  EXPECT_EQ(rdf_resp_packet_bytes(4, 8), 24u + 32);
  EXPECT_EQ(mem_read_resp_bytes(), 8u + 128);
  EXPECT_EQ(mem_write_req_bytes(64), 8u + 8 + 4 + 64);
  EXPECT_LT(small_packet_bytes(), 16u + 1);
}

TEST(PacketClasses, TierAssignments) {
  EXPECT_TRUE(is_urgent_packet(PacketType::kOfldCmd));
  EXPECT_TRUE(is_urgent_packet(PacketType::kOfldAck));
  EXPECT_TRUE(is_urgent_packet(PacketType::kCredit));
  EXPECT_FALSE(is_urgent_packet(PacketType::kRdf));
  EXPECT_TRUE(is_control_packet(PacketType::kRdf));
  EXPECT_TRUE(is_control_packet(PacketType::kMemRead));
  EXPECT_FALSE(is_control_packet(PacketType::kMemReadResp));
  EXPECT_FALSE(is_control_packet(PacketType::kNsuWrite));
}

}  // namespace
}  // namespace sndp
