// Direct SM unit tests: drive one SM with a hand-built kernel image and
// observe its packet stream, stall accounting, and CTA management.
#include <gtest/gtest.h>

#include "sndp.h"

#include "gpu/sm.h"
#include "ndp/nsu.h"

namespace sndp {
namespace {

struct SmHarness {
  explicit SmHarness(Program prog, unsigned cta_threads = 64, unsigned num_ctas = 1,
                     OffloadMode mode = OffloadMode::kOff)
      : cfg(make_cfg(mode)),
        amap(cfg),
        net(cfg),
        governor(cfg.governor, 8, 128, 1),
        bufmgr(cfg.ndp_buffers, cfg.num_hmcs),
        ro_cache(cfg.num_hmcs, cfg.nsu, 128),
        wta(cfg.num_hmcs) {
    image = analyze_and_generate(prog);
    ctx.cfg = &cfg;
    ctx.amap = &amap;
    ctx.gmem = &gmem;
    ctx.net = &net;
    ctx.governor = &governor;
    ctx.bufmgr = &bufmgr;
    ctx.energy = &energy;
    ctx.ro_cache = &ro_cache;
    ctx.wta_tracker = &wta;
    ctx.image = &image;
    ctx.launch = LaunchParams{cta_threads, num_ctas};
    sm = std::make_unique<Sm>(0, ctx);
  }

  static SystemConfig make_cfg(OffloadMode mode) {
    SystemConfig c = SystemConfig::small_test();
    c.governor.mode = mode;
    return c;
  }

  // Tick the SM, draining its egress into `sent` each cycle.
  void tick(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      const TimePs now = tick_time_ps(cycle, cfg.clocks.sm_khz);
      sm->tick(cycle, now);
      while (auto p = sm->out().pop_ready(kTimeNever - 1)) sent.push_back(std::move(*p));
      ++cycle;
    }
  }

  unsigned count(PacketType t) const {
    unsigned n = 0;
    for (const Packet& p : sent) n += p.type == t ? 1 : 0;
    return n;
  }

  SystemConfig cfg;
  AddressMap amap;
  GlobalMemory gmem;
  Network net;
  OffloadGovernor governor;
  NdpBufferManager bufmgr;
  RoCacheMirror ro_cache;
  WtaInflightTracker wta;
  EnergyCounters energy;
  KernelImage image;
  SystemContext ctx;
  std::unique_ptr<Sm> sm;
  std::vector<Packet> sent;
  Cycle cycle = 0;
};

Program alu_only() {
  ProgramBuilder b;
  b.movi(4, 7).alui(Opcode::kIAdd, 5, 4, 1).alu(Opcode::kIMul, 6, 5, 5).exit();
  return b.build();
}

TEST(SmUnit, CtaLifecycle) {
  SmHarness h(alu_only(), 64, 2);
  EXPECT_TRUE(h.sm->can_accept_cta());
  h.sm->assign_cta(0);
  EXPECT_TRUE(h.sm->busy());
  h.tick(200);
  EXPECT_FALSE(h.sm->busy());  // CTA ran to EXIT and freed its slot
  h.sm->assign_cta(1);
  EXPECT_TRUE(h.sm->busy());
  h.tick(200);
  EXPECT_FALSE(h.sm->busy());
  EXPECT_GT(h.sm->issued_instrs, 0u);
}

TEST(SmUnit, ThreadRegistersInitialized) {
  // Kernel: store R0 (gtid) to memory, one thread per slot.
  ProgramBuilder b;
  b.movi(16, 0x40000).madi(8, 0, 8, 16).st(8, 0).exit();
  SmHarness h(b.build(), 64, 1);
  h.sm->assign_cta(0);
  h.tick(300);
  for (unsigned tid = 0; tid < 64; ++tid) {
    EXPECT_EQ(h.gmem.read_u64(0x40000 + 8 * tid), tid) << tid;
  }
}

TEST(SmUnit, StoresEmitWriteThroughPackets) {
  ProgramBuilder b;
  b.movi(16, 0x40000).madi(8, 0, 8, 16).st(8, 0).exit();
  SmHarness h(b.build(), 64, 1);
  h.sm->assign_cta(0);
  h.tick(300);
  // 2 warps x 2 lines (32 lanes x 8 B) = 4 write-through packets.
  EXPECT_EQ(h.count(PacketType::kMemWrite), 4u);
}

TEST(SmUnit, LoadsMissAndBlockUntilDelivered) {
  ProgramBuilder b;
  b.movi(16, 0x50000)
      .madi(8, 0, 8, 16)
      .ld(9, 8)
      .alui(Opcode::kIAdd, 10, 9, 1)  // depends on the load
      .exit();
  SmHarness h(b.build(), 32, 1);
  h.gmem.write_u64(0x50000, 41);
  h.sm->assign_cta(0);
  h.tick(100);
  // One warp, 32 lanes x 8 B = 2 lines -> 2 read requests; warp stuck.
  EXPECT_EQ(h.count(PacketType::kMemRead), 2u);
  EXPECT_TRUE(h.sm->busy());
  EXPECT_GT(h.sm->stall_dependency(), 0u);

  // Deliver both lines; the warp finishes.
  const TimePs now = tick_time_ps(h.cycle, h.cfg.clocks.sm_khz);
  h.sm->deliver_line(0x50000, now);
  h.sm->deliver_line(0x50080, now);
  h.tick(100);
  EXPECT_FALSE(h.sm->busy());
}

TEST(SmUnit, BarrierSynchronizesWarpsOfCta) {
  // Warp-dependent spin would deadlock if BAR released early; here we just
  // check all warps stop at the barrier until the last arrives.
  ProgramBuilder b;
  b.movi(4, 1).bar().movi(5, 2).exit();
  SmHarness h(b.build(), 128, 1);  // 4 warps
  h.sm->assign_cta(0);
  h.tick(300);
  EXPECT_FALSE(h.sm->busy());
}

TEST(SmUnit, StallTaxonomySumsWithIssue) {
  SmHarness h(alu_only(), 64, 1);
  h.sm->assign_cta(0);
  h.tick(100);
  const std::uint64_t accounted = h.sm->issued_instrs + h.sm->stall_dependency() +
                                  h.sm->stall_exec_busy() + h.sm->stall_warp_idle();
  // Every active cycle is either an issue or a classified stall.
  EXPECT_EQ(accounted, h.sm->active_cycles);
}

TEST(SmUnit, OffloadHoldsPacketsUntilCreditsGranted) {
  // VADD-style block under always-offload.
  ProgramBuilder b;
  b.movi(16, 0x10000)
      .movi(17, 0x20000)
      .madi(8, 0, 8, 16)
      .madi(9, 0, 8, 17)
      .ld(11, 8)
      .alu(Opcode::kFAdd, 12, 11, 11)
      .st(9, 12)
      .exit();
  SmHarness h(b.build(), 32, 1, OffloadMode::kAlways);
  h.sm->assign_cta(0);
  h.tick(200);
  // CMD + RDF/WTA packets left the SM once the target was known and the
  // buffer manager granted credits.
  EXPECT_EQ(h.count(PacketType::kOfldCmd), 1u);
  EXPECT_GT(h.count(PacketType::kRdf) + h.count(PacketType::kRdfResp), 0u);
  EXPECT_GT(h.count(PacketType::kWta), 0u);
  // The warp is parked at OFLD.END awaiting the ACK.
  EXPECT_TRUE(h.sm->busy());
  EXPECT_GT(h.sm->stall_warp_idle(), 0u);

  // Deliver the ACK: live-out register set is empty for this block.
  Packet ack;
  ack.type = PacketType::kOfldAck;
  for (const Packet& p : h.sent) {
    if (p.type == PacketType::kOfldCmd) ack.oid = p.oid;
  }
  h.sm->deliver_ofld_ack(std::move(ack), tick_time_ps(h.cycle, h.cfg.clocks.sm_khz));
  h.tick(50);
  EXPECT_FALSE(h.sm->busy());
}

TEST(SmUnit, OffloadDeniedCreditsKeepsPacketsPending) {
  ProgramBuilder b;
  b.movi(16, 0x10000)
      .madi(8, 0, 8, 16)
      .ld(11, 8)
      .alu(Opcode::kFAdd, 12, 11, 11)
      .st(8, 12)
      .exit();
  SmHarness h(b.build(), 32, 1, OffloadMode::kAlways);
  // Exhaust every HMC's command credits first.
  for (unsigned hmc = 0; hmc < h.cfg.num_hmcs; ++hmc) {
    while (h.bufmgr.try_reserve(hmc, 0, 0)) {
    }
  }
  h.sm->assign_cta(0);
  h.tick(100);
  EXPECT_EQ(h.count(PacketType::kOfldCmd), 0u);  // still pending
  EXPECT_TRUE(h.sm->busy());
  // Return credits: the pending packets flush.
  for (unsigned hmc = 0; hmc < h.cfg.num_hmcs; ++hmc) {
    h.bufmgr.release(hmc, h.cfg.ndp_buffers.nsu_cmd_entries, 0, 0);
  }
  h.tick(50);
  EXPECT_EQ(h.count(PacketType::kOfldCmd), 1u);
}

TEST(SmUnit, DivergentBranchThrows) {
  // A guarded branch whose lanes disagree must be rejected (kernels use
  // predication for divergence).
  ProgramBuilder b;
  b.alui(Opcode::kIRem, 4, 0, 2)      // lane parity
      .isetpi(0, CmpOp::kEq, 4, 0)
      .label("skip")
      .pred(0)
      .bra("skip")                     // taken by even lanes only
      .exit();
  SmHarness h(b.build(), 32, 1);
  h.sm->assign_cta(0);
  EXPECT_THROW(h.tick(100), std::logic_error);
}

TEST(SmUnit, InvalidateDropsL1Line) {
  // The second load's address depends on the first load's data, so it can
  // only issue after the line is filled — and must then hit in the L1.
  ProgramBuilder b;
  b.movi(16, 0x60000)
      .ld(9, 16)
      .alui(Opcode::kAnd, 5, 9, 0)      // 0, but data-dependent on the load
      .alu(Opcode::kIAdd, 5, 5, 16)     // == base again
      .ld(10, 5)
      .exit();
  SmHarness h(b.build(), 32, 1);
  h.sm->assign_cta(0);
  h.tick(50);
  EXPECT_EQ(h.count(PacketType::kMemRead), 1u);  // broadcast: one line
  h.sm->deliver_line(0x60000, tick_time_ps(h.cycle, h.cfg.clocks.sm_khz));
  h.tick(50);
  EXPECT_FALSE(h.sm->busy());
  EXPECT_EQ(h.sm->l1().hits, 1u);  // second load hit
  h.sm->invalidate_line(0x60000);
  EXPECT_EQ(h.sm->l1().invalidations, 1u);
}

}  // namespace
}  // namespace sndp
