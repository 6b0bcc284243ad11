// Direct NSU unit tests: drive one NSU with hand-built protocol packets and
// observe its outputs (write packets, acks, credits) without a full system.
#include <gtest/gtest.h>

#include <functional>
#include <iomanip>
#include <map>
#include <sstream>
#include <string>

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
  explicit NsuHarness(SystemConfig c = SystemConfig::small_test())
      : ContextHarness(std::move(c), block_program()) {
    nsu = std::make_unique<Nsu>(
        0, ctx, [this](Packet&& p, TimePs) { to_network.push_back(std::move(p)); },
        [this](Packet&& p, TimePs) { to_local_vault.push_back(std::move(p)); });
  }

  // Tick the NSU.  With fast-forward on, the edges at which next_work_ps
  // reports no work are skipped, as the Scheduler skips them.
  void tick(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      if (!cfg.fast_forward || nsu->next_work_ps() <= now()) nsu->tick(cycle, now());
      ++cycle;
    }
  }

  TimePs now() const { return tick_time_ps(cycle, cfg.clocks.nsu_khz); }
  void deliver(Packet p) { nsu->receive(std::move(p), now()); }

  // The read data and write addresses of instance `inst`'s block (two LDs,
  // one ST), all full-mask.
  void deliver_operands(std::uint64_t inst) {
    deliver(rdf_resp(inst, 0, 1.5));
    deliver(rdf_resp(inst, 1, 2.25));
    deliver(wta_pkt(inst, 2, 0x30000 + 0x1000 * inst));
  }

  // Acknowledge up to `n` of instance `inst`'s writes not acked yet (an
  // ack names its warp by offload id, not its line).
  void ack_writes(std::uint64_t inst, unsigned n = ~0u) {
    const Packet* wr = nullptr;
    for (const auto* vec : {&to_network, &to_local_vault}) {
      for (const Packet& p : *vec) {
        if (p.type == PacketType::kNsuWrite && p.oid.instance == inst) wr = &p;
      }
    }
    for (; n > 0 && acked[inst] < writes(inst); --n) {
      Packet ack;
      ack.type = PacketType::kNsuWriteAck;
      ack.oid = wr->oid;
      deliver(std::move(ack));
      ++acked[inst];
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

  unsigned writes(std::uint64_t inst) const {
    unsigned n = 0;
    for (const auto* vec : {&to_network, &to_local_vault}) {
      for (const Packet& p : *vec) {
        n += p.type == PacketType::kNsuWrite && p.oid.instance == inst ? 1 : 0;
      }
    }
    return n;
  }

  std::unique_ptr<Nsu> nsu;
  std::vector<Packet> to_network;
  std::vector<Packet> to_local_vault;
  std::map<std::uint64_t, unsigned> acked;  // writes acked per instance
  Cycle cycle = 0;
};

// What the stall tests pin: the NSU's instruction, read-wait and occupancy
// stats and every non-zero cycle-stack cell, after finalize.
std::string nsu_fingerprint(NsuHarness& h) {
  h.nsu->finalize(h.cycle);
  RunResult r;
  h.nsu->report(r);
  std::ostringstream s;
  s << "instrs=" << static_cast<std::uint64_t>(r.stats.get("hmc0.nsu.instrs"))
    << " stall_read_wait=" << static_cast<std::uint64_t>(r.stats.get("hmc0.nsu.stall_read_wait"))
    << " avg_occupancy=" << std::setprecision(10) << r.stats.get("hmc0.nsu.avg_occupancy");
  const NsuCycleStack& cs = r.cycle_stack.nsu;
  for (std::size_t row = 0; row < cs.rows.size(); ++row) {
    for (std::size_t b = 0; b < kNumNsuBuckets; ++b) {
      if (cs.rows[row][b] == 0) continue;
      s << " r" << row << "." << nsu_bucket_name(static_cast<NsuBucket>(b)) << "="
        << cs.rows[row][b];
    }
  }
  return s.str();
}

// Runs `drive` on a fresh NSU under both stepping modes (every edge ticked;
// idle edges skipped); each must reproduce `pin`.
void expect_nsu_pinned(const std::function<void(NsuHarness&)>& drive, const std::string& pin) {
  for (const bool ff : {true, false}) {
    SystemConfig c = SystemConfig::small_test();
    c.fast_forward = ff;
    NsuHarness h(c);
    drive(h);
    EXPECT_EQ(nsu_fingerprint(h), pin) << "fast_forward=" << ff;
  }
}

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
  RunResult r;
  h.nsu->report(r);
  EXPECT_GT(r.counters.nsu_lane_ops, 0u);
  EXPECT_EQ(r.stats.get("hmc0.nsu.lane_ops"), static_cast<double>(r.counters.nsu_lane_ops));
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

// The stall cases below each hold an NSU warp on one blocker until the
// packet that clears it arrives, under both stepping modes.  The pins are
// the numbers of an issue scan that retries every blocked warp at every
// edge, so they hold warp parking to that scan's results.

TEST(NsuStall, LateReadDataAtLoad) {
  expect_nsu_pinned(
      [](NsuHarness& h) {
        h.deliver(h.cmd(1));
        h.tick(30);  // the warp waits at its first LD
        EXPECT_EQ(h.writes(1), 0u);
        h.deliver_operands(1);
        h.tick(40);
        ASSERT_EQ(h.writes(1), 2u);
        h.ack_writes(1);
        h.tick(30);
        EXPECT_EQ(h.count(PacketType::kOfldAck), 1u);
        EXPECT_TRUE(h.nsu->idle());
      },
      "instrs=6 stall_read_wait=28 avg_occupancy=0.01458333333 r0.exec=19 "
      "r0.ingress_starved=52 r1.idle=29");
}

TEST(NsuStall, SplitReadDataFailsOnFirstHalf) {
  // The first LD's data arrives as two half-mask RDF responses 15 cycles
  // apart (the first half alone does not complete the entry), and the
  // second LD's data 10 cycles after that.
  expect_nsu_pinned(
      [](NsuHarness& h) {
        h.deliver(h.cmd(1));
        h.tick(10);
        Packet lo = h.rdf_resp(1, 0, 1.5);
        lo.mask = 0x0000FFFFu;
        h.deliver(std::move(lo));
        h.tick(15);
        Packet hi = h.rdf_resp(1, 0, 1.5);
        hi.mask = 0xFFFF0000u;
        h.deliver(std::move(hi));
        h.tick(10);
        EXPECT_EQ(h.writes(1), 0u);
        h.deliver(h.rdf_resp(1, 1, 2.25));
        h.deliver(h.wta_pkt(1, 2, 0x31000));
        h.tick(40);
        ASSERT_EQ(h.writes(1), 2u);
        h.ack_writes(1);
        h.tick(30);
        EXPECT_EQ(h.count(PacketType::kOfldAck), 1u);
        EXPECT_TRUE(h.nsu->idle());
      },
      "instrs=6 stall_read_wait=31 avg_occupancy=0.01488095238 r0.exec=19 "
      "r0.ingress_starved=57 r1.idle=29");
}

TEST(NsuStall, LateWriteAddressesAtStore) {
  expect_nsu_pinned(
      [](NsuHarness& h) {
        h.deliver(h.cmd(1));
        h.deliver(h.rdf_resp(1, 0, 1.5));
        h.deliver(h.rdf_resp(1, 1, 2.25));
        h.tick(40);  // both loads and the add done; the ST waits
        EXPECT_EQ(h.writes(1), 0u);
        h.deliver(h.wta_pkt(1, 2, 0x31000));
        h.tick(20);
        ASSERT_EQ(h.writes(1), 2u);
        h.ack_writes(1);
        h.tick(30);
        EXPECT_EQ(h.count(PacketType::kOfldAck), 1u);
        EXPECT_TRUE(h.nsu->idle());
      },
      "instrs=6 stall_read_wait=0 avg_occupancy=0.01388888889 r0.exec=19 "
      "r0.ingress_starved=42 r1.idle=29");
}

TEST(NsuStall, WriteAcksOneAtATime) {
  expect_nsu_pinned(
      [](NsuHarness& h) {
        h.deliver(h.cmd(1));
        h.deliver_operands(1);
        h.tick(40);
        ASSERT_EQ(h.writes(1), 2u);
        // Acknowledge the two writes 15 cycles apart: OFLD.END waits for both.
        h.ack_writes(1, 1);
        h.tick(15);
        EXPECT_EQ(h.count(PacketType::kOfldAck), 0u);
        h.ack_writes(1, 1);
        h.tick(30);
        EXPECT_EQ(h.count(PacketType::kOfldAck), 1u);
        EXPECT_TRUE(h.nsu->idle());
      },
      "instrs=6 stall_read_wait=0 avg_occupancy=0.01348039216 r0.exec=19 "
      "r0.ingress_starved=37 r1.idle=29");
}

TEST(NsuStall, WaitingWarpAheadOfIssuingWarp) {
  // Slot 0 waits for its read data while slot 1, behind it in round-robin
  // order, runs its whole block: every scan meets the waiting warp first.
  expect_nsu_pinned(
      [](NsuHarness& h) {
        h.deliver(h.cmd(1));
        h.deliver(h.cmd(2));
        h.deliver_operands(2);
        h.tick(40);
        ASSERT_EQ(h.writes(2), 2u);
        EXPECT_EQ(h.writes(1), 0u);
        h.ack_writes(2);
        h.tick(20);
        EXPECT_EQ(h.count(PacketType::kOfldAck), 1u);
        h.deliver_operands(1);
        h.tick(40);
        ASSERT_EQ(h.writes(1), 2u);
        h.ack_writes(1);
        h.tick(30);
        EXPECT_EQ(h.count(PacketType::kOfldAck), 2u);
        EXPECT_TRUE(h.nsu->idle());
      },
      "instrs=12 stall_read_wait=56 avg_occupancy=0.02243589744 r0.exec=26 "
      "r0.ingress_starved=75 r1.idle=29");
}

}  // namespace
}  // namespace sndp
