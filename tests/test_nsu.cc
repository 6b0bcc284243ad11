// Direct NSU unit tests: drive one NSU with hand-built protocol packets and
// observe its outputs (write packets, acks, credits) without a full system.
#include <gtest/gtest.h>

#include "sndp.h"

#include "context_harness.h"
#include "gpu/sm.h"
#include "ndp/nsu.h"

namespace sndp {
namespace {

// A VADD-style kernel whose single block is (LD, LD, FADD, ST).
Program block_program() {
  ProgramBuilder b;
  b.movi(16, 0x10000)
      .movi(17, 0x20000)
      .movi(18, 0x30000)
      .madi(8, 0, 8, 16)
      .madi(9, 0, 8, 17)
      .madi(10, 0, 8, 18)
      .ld(11, 8)
      .ld(12, 9)
      .alu(Opcode::kFAdd, 13, 11, 12)
      .st(10, 13)
      .exit();
  return b.build();
}

struct NsuHarness : ContextHarness {
  NsuHarness() : ContextHarness(SystemConfig::small_test(), block_program()) {
    nsu = std::make_unique<Nsu>(
        0, ctx, [this](Packet&& p, TimePs) { to_network.push_back(std::move(p)); },
        [this](Packet&& p, TimePs) { to_local_vault.push_back(std::move(p)); });
  }

  void tick(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      nsu->tick(cycle, tick_time_ps(cycle, cfg.clocks.nsu_khz));
      ++cycle;
    }
  }

  Packet cmd(std::uint64_t instance, LaneMask mask = kFullMask) {
    Packet p;
    p.type = PacketType::kOfldCmd;
    p.oid = OffloadPacketId{0, 0, 0, 0, instance};
    p.line_addr = image.blocks[0].nsu_entry;
    p.mask = mask;
    p.size_bytes = cmd_packet_bytes(0, popcount_mask(mask), false);
    return p;
  }

  Packet rdf_resp(std::uint64_t instance, std::uint32_t seq, double value) {
    Packet p;
    p.type = PacketType::kRdfResp;
    p.oid = OffloadPacketId{0, 0, seq, 0, instance};
    p.mask = kFullMask;
    p.expected_mask = kFullMask;
    p.mem_width = 8;
    p.lane_data.assign(kWarpWidth, f64_to_bits(value));
    p.size_bytes = rdf_resp_packet_bytes(kWarpWidth, 8);
    return p;
  }

  Packet wta_pkt(std::uint64_t instance, std::uint32_t seq, Addr base) {
    Packet p;
    p.type = PacketType::kWta;
    p.oid = OffloadPacketId{0, 0, seq, 0, instance};
    p.mask = kFullMask;
    p.expected_mask = kFullMask;
    p.mem_width = 8;
    p.lane_addrs.assign(kWarpWidth, 0);
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) p.lane_addrs[lane] = base + 8 * lane;
    p.size_bytes = rdf_wta_packet_bytes(kWarpWidth, false);
    return p;
  }

  // Count packets of a type in to_network.
  unsigned count(PacketType t) const {
    unsigned n = 0;
    for (const Packet& p : to_network) n += p.type == t ? 1 : 0;
    return n;
  }

  std::unique_ptr<Nsu> nsu;
  std::vector<Packet> to_network;
  std::vector<Packet> to_local_vault;
  Cycle cycle = 0;
};

TEST(NsuUnit, SpawnReturnsCommandCredit) {
  NsuHarness h;
  h.nsu->receive(h.cmd(1), 0);
  h.tick(2);
  ASSERT_EQ(h.count(PacketType::kCredit), 1u);
  EXPECT_EQ(h.nsu->active_warps(), 1u);
  EXPECT_FALSE(h.nsu->idle());
}

TEST(NsuUnit, WarpStallsUntilReadDataArrives) {
  NsuHarness h;
  h.nsu->receive(h.cmd(1), 0);
  h.tick(50);
  // Warp is parked at the first LD with no data: nothing but the credit out.
  EXPECT_EQ(h.to_network.size(), 1u);
  EXPECT_EQ(h.nsu->active_warps(), 1u);
}

TEST(NsuUnit, FullBlockLifecycle) {
  NsuHarness h;
  h.nsu->receive(h.cmd(1), 0);
  h.nsu->receive(h.rdf_resp(1, 0, 1.5), 0);
  h.nsu->receive(h.rdf_resp(1, 1, 2.25), 0);
  h.nsu->receive(h.wta_pkt(1, 2, 0x30000), 0);
  h.tick(100);

  // The 32-lane, 8 B store spans two lines.
  const unsigned writes_net = h.count(PacketType::kNsuWrite);
  const auto writes_local = static_cast<unsigned>(h.to_local_vault.size());
  EXPECT_EQ(writes_net + writes_local, 2u);
  // Still waiting for write acks: no OFLD ACK yet.
  EXPECT_EQ(h.count(PacketType::kOfldAck), 0u);

  // Deliver the write acks.
  for (const auto* vec : {&h.to_network, &h.to_local_vault}) {
    for (const Packet& p : *vec) {
      if (p.type != PacketType::kNsuWrite) continue;
      Packet ack;
      ack.type = PacketType::kNsuWriteAck;
      ack.oid = p.oid;
      h.nsu->receive(Packet(ack), tick_time_ps(h.cycle, h.cfg.clocks.nsu_khz));
      // The write carries the computed FADD result for every lane.
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (p.mask & (LaneMask{1} << lane)) {
          EXPECT_DOUBLE_EQ(bits_to_f64(p.lane_data[lane]), 3.75);
        }
      }
    }
  }
  h.tick(20);
  EXPECT_EQ(h.count(PacketType::kOfldAck), 1u);
  EXPECT_EQ(h.nsu->active_warps(), 0u);
  EXPECT_TRUE(h.nsu->idle());

  // The ACK piggybacks the data-buffer credits (§4.3).
  for (const Packet& p : h.to_network) {
    if (p.type == PacketType::kOfldAck) {
      EXPECT_EQ(p.credit_read_data, h.image.blocks[0].num_loads);
      EXPECT_EQ(p.credit_write_addr, h.image.blocks[0].num_stores);
    }
  }
}

TEST(NsuUnit, OutOfOrderPacketArrival) {
  // Data may arrive before the command (RDF responses race the CMD).
  NsuHarness h;
  h.nsu->receive(h.rdf_resp(1, 0, 1.0), 0);
  h.nsu->receive(h.rdf_resp(1, 1, 2.0), 0);
  h.tick(5);
  EXPECT_EQ(h.nsu->active_warps(), 0u);  // no warp yet
  h.nsu->receive(h.cmd(1), tick_time_ps(h.cycle, h.cfg.clocks.nsu_khz));
  h.nsu->receive(h.wta_pkt(1, 2, 0x30000), tick_time_ps(h.cycle, h.cfg.clocks.nsu_khz));
  h.tick(100);
  EXPECT_EQ(h.count(PacketType::kNsuWrite) + h.to_local_vault.size(), 2u);
}

TEST(NsuUnit, ConcurrentWarpsKeepInstancesApart) {
  NsuHarness h;
  h.nsu->receive(h.cmd(1), 0);
  h.nsu->receive(h.cmd(2), 0);
  h.nsu->receive(h.rdf_resp(1, 0, 1.0), 0);
  h.nsu->receive(h.rdf_resp(1, 1, 1.0), 0);
  h.nsu->receive(h.rdf_resp(2, 0, 5.0), 0);
  h.nsu->receive(h.rdf_resp(2, 1, 5.0), 0);
  h.nsu->receive(h.wta_pkt(1, 2, 0x30000), 0);
  h.nsu->receive(h.wta_pkt(2, 2, 0x40000), 0);
  h.tick(200);
  EXPECT_EQ(h.nsu->active_warps(), 2u);  // both at OFLD.END awaiting acks
  double sum = 0;
  for (const auto* vec : {&h.to_network, &h.to_local_vault}) {
    for (const Packet& p : *vec) {
      if (p.type == PacketType::kNsuWrite && (p.mask & 1)) {
        sum += bits_to_f64(p.lane_data[0]);
      }
    }
  }
  EXPECT_DOUBLE_EQ(sum, 2.0 + 10.0);  // instance 1 writes 2.0, instance 2 writes 10.0
}

TEST(NsuUnit, OccupancyAndIcacheStatsAccumulate) {
  NsuHarness h;
  h.nsu->receive(h.cmd(1), 0);
  h.nsu->receive(h.rdf_resp(1, 0, 1.0), 0);
  h.nsu->receive(h.rdf_resp(1, 1, 1.0), 0);
  h.nsu->receive(h.wta_pkt(1, 2, 0x30000), 0);
  h.tick(64);
  EXPECT_GT(h.nsu->avg_occupancy(), 0.0);
  EXPECT_GT(h.nsu->icache_utilization(), 0.0);
  EXPECT_GT(h.nsu->lane_ops(), 0u);
}

TEST(NsuUnit, PredicatedOffLanesSkipBuffers) {
  // All lanes inactive on the loads: the NSU must not wait for data that
  // the GPU will never send.
  NsuHarness h;
  // Build a guarded variant: reuse the standard image but send a command
  // whose active mask has no lanes passing... simplest: empty active mask.
  Packet c = h.cmd(1, /*mask=*/0);
  h.nsu->receive(std::move(c), 0);
  Packet w = h.wta_pkt(1, 2, 0x30000);
  w.mask = 0;
  w.expected_mask = 0;
  (void)w;  // with no active lanes the GPU sends nothing at all
  h.tick(100);
  // The block completes immediately: loads/stores skip, ACK goes out.
  EXPECT_EQ(h.count(PacketType::kOfldAck), 1u);
}

}  // namespace
}  // namespace sndp
