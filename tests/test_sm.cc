// Direct SM unit tests: drive one SM with a hand-built kernel image and
// observe its packet stream, stall accounting, and CTA management.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "sndp.h"

#include "context_harness.h"
#include "gpu/sm.h"
#include "ndp/nsu.h"

namespace sndp {
namespace {

struct SmHarness : ContextHarness {
  explicit SmHarness(const Program& prog, unsigned cta_threads = 64, unsigned num_ctas = 1,
                     OffloadMode mode = OffloadMode::kOff)
      : SmHarness(prog, make_cfg(mode), cta_threads, num_ctas) {}

  SmHarness(const Program& prog, SystemConfig c, unsigned cta_threads, unsigned num_ctas)
      : ContextHarness(std::move(c), prog, LaunchParams{cta_threads, num_ctas}) {
    sm = std::make_unique<Sm>(0, ctx);
  }

  static SystemConfig make_cfg(OffloadMode mode) {
    SystemConfig c = SystemConfig::small_test();
    c.governor.mode = mode;
    return c;
  }

  // Tick the SM.  Its egress is drained into `sent` from cycle
  // `hold_egress_until` on, every `drain_period` cycles, and each drained
  // packet pokes the SM as Gpu::l2_tick does.  With `fill_delay` set, each
  // drained read request is answered with its line that many cycles later.
  void tick(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      const TimePs now = tick_time_ps(cycle, cfg.clocks.sm_khz);
      sm->tick(cycle, now);
      if (cycle >= hold_egress_until && cycle % drain_period == 0) drain(now);
      ++cycle;
    }
  }

  void drain(TimePs now) {
    while (auto p = sm->out().pop_ready(kTimeNever - 1)) {
      sm->on_egress_pop(now);
      if (fill_delay != 0 && p->type == PacketType::kMemRead) {
        sm->deliver_line(p->line_addr, tick_time_ps(cycle + fill_delay, cfg.clocks.sm_khz));
      }
      sent.push_back(std::move(*p));
    }
  }

  unsigned count(PacketType t) const {
    unsigned n = 0;
    for (const Packet& p : sent) n += p.type == t ? 1 : 0;
    return n;
  }

  std::unique_ptr<Sm> sm;
  std::vector<Packet> sent;
  Cycle cycle = 0;
  Cycle hold_egress_until = 0;
  unsigned drain_period = 1;
  unsigned fill_delay = 0;
};

// What the stall tests pin: the issue and active counts, the credit-stall
// count and every non-zero cycle-stack cell, after flushing slept cycles.
std::string sm_fingerprint(SmHarness& h) {
  h.sm->finalize(h.cycle);
  RunResult r;
  h.sm->report(r);
  const auto pending_full = static_cast<std::uint64_t>(r.stats.get("sm0.pending_full_stalls"));
  std::string s = "issued=" + std::to_string(h.sm->issued_instrs) +
                  " active=" + std::to_string(h.sm->active_cycles) +
                  " pending_full=" + std::to_string(pending_full);
  const SmCycleStack& cs = h.sm->cycle_stack();
  for (std::size_t r = 0; r < cs.rows.size(); ++r) {
    for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
      if (cs.rows[r][b] == 0) continue;
      s += " r" + std::to_string(r) + "." + sm_bucket_name(static_cast<SmBucket>(b)) + "=" +
           std::to_string(cs.rows[r][b]);
    }
  }
  return s;
}

// Runs a scenario under both stepping modes; each must reproduce `pin`.
void expect_pinned(const std::function<std::string(bool)>& run, const std::string& pin) {
  for (const bool ff : {true, false}) EXPECT_EQ(run(ff), pin) << "fast_forward=" << ff;
}

SystemConfig stall_cfg(bool ff, OffloadMode mode = OffloadMode::kOff) {
  SystemConfig c = SmHarness::make_cfg(mode);
  c.fast_forward = ff;
  return c;
}

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

// The stall cases below each drive one blocker class to the event that
// clears it, under both stepping modes.  The pins are the numbers of an
// issue scan that retries every blocked warp at every edge, so they hold
// warp parking to that scan's results.

TEST(SmStall, EgressFullWaitsForDrain) {
  const auto run = [](bool ff) {
    ProgramBuilder b;
    b.movi(16, 0x40000).madi(8, 0, 8, 16).st(8, 0).st(8, 0, 4096).st(8, 0, 8192).exit();
    SystemConfig cfg = stall_cfg(ff);
    cfg.ndp_buffers.sm_ready_entries = 4;  // two 2-line stores
    SmHarness h(b.build(), cfg, 128, 1);   // 4 warps x 3 stores
    h.hold_egress_until = 40;
    h.drain_period = 5;
    h.sm->assign_cta(0);
    h.tick(40);
    EXPECT_TRUE(h.sent.empty());
    EXPECT_EQ(h.sm->out().size(), 4u);  // full while the drain is held
    h.tick(360);
    EXPECT_FALSE(h.sm->busy());
    EXPECT_EQ(h.count(PacketType::kMemWrite), 24u);
    return sm_fingerprint(h);
  };
  expect_pinned(run,
                "issued=32 active=66 pending_full=0 r0.issue=32 r0.exec_busy=12 "
                "r0.dep_pipe=22 r1.dispatch_idle=334");
}

TEST(SmStall, MshrsExhaustedWaitForFills) {
  const auto run = [](bool ff) {
    // Four lanes share a 128 B line, so each load needs 8 MSHRs: the first
    // load takes them all, and every other load waits for its fills.
    ProgramBuilder b;
    b.movi(16, 0x50000)
        .madi(8, 0, 32, 16)
        .ld(9, 8)
        .ld(10, 8, 4096)
        .alu(Opcode::kIAdd, 11, 9, 10)
        .st(8, 11)
        .exit();
    SystemConfig cfg = stall_cfg(ff);
    cfg.sm.l1d.mshr_entries = 8;
    SmHarness h(b.build(), cfg, 128, 1);  // 4 warps
    h.fill_delay = 60;
    h.sm->assign_cta(0);
    h.tick(60);
    EXPECT_EQ(h.count(PacketType::kMemRead), 8u);
    h.tick(940);
    EXPECT_FALSE(h.sm->busy());
    EXPECT_EQ(h.count(PacketType::kMemRead), 64u);
    EXPECT_GT(h.sm->stall_exec_busy(), 0u);
    EXPECT_EQ(h.sm->l1().mshr_stalls, 0u);  // the SM checks headroom first
    return sm_fingerprint(h);
  };
  expect_pinned(run,
                "issued=36 active=526 pending_full=0 r0.issue=36 "
                "r0.exec_busy=198 r0.dep_pipe=56 r0.dep_dram_local=236 "
                "r1.dispatch_idle=474");
}

TEST(SmStall, TrackersExhaustedWaitForFills) {
  const auto run = [](bool ff) {
    // Five loads per warp from one broadcast line: 8 warps need 40 load
    // trackers while the line is in flight, and the SM has 16.  No load is
    // consumed, so the waits show as exec-busy rather than dependency.
    ProgramBuilder b;
    b.movi(16, 0x60000).ld(4, 16).ld(5, 16, 8).ld(6, 16, 16).ld(7, 16, 24).ld(9, 16, 32).exit();
    SmHarness h(b.build(), stall_cfg(ff), 256, 1);  // 8 warps
    h.fill_delay = 60;
    h.sm->assign_cta(0);
    h.tick(400);
    EXPECT_FALSE(h.sm->busy());
    EXPECT_EQ(h.count(PacketType::kMemRead), 1u);
    EXPECT_GT(h.sm->stall_exec_busy(), 0u);
    return sm_fingerprint(h);
  };
  expect_pinned(run,
                "issued=72 active=104 pending_full=0 r0.issue=72 "
                "r0.exec_busy=24 r0.dep_pipe=8 r1.dispatch_idle=296");
}

TEST(SmStall, BusyUnitsAndDependentChain) {
  const auto run = [](bool ff) {
    ProgramBuilder b;
    b.movi(4, 3)
        .alu(Opcode::kIMul, 5, 4, 4)   // SFU: initiation interval 2
        .alu(Opcode::kIMul, 6, 5, 4)   // waits on the SFU result
        .alui(Opcode::kIAdd, 7, 6, 1)  // and an ALU result
        .alu(Opcode::kIMul, 11, 4, 4)  // independent SFU op
        .movi(16, 0x70000)
        .madi(8, 0, 128, 16)           // one line per lane
        .st(8, 7)                      // holds the LSU for 32 cycles
        .shm_st(8, 7)
        .shm_ld(12, 8)                 // scratchpad latency
        .alu(Opcode::kIAdd, 13, 12, 11)
        .exit();
    SmHarness h(b.build(), stall_cfg(ff), 256, 1);  // 8 warps
    h.sm->assign_cta(0);
    h.tick(800);
    EXPECT_FALSE(h.sm->busy());
    EXPECT_EQ(h.count(PacketType::kMemWrite), 256u);
    EXPECT_GT(h.sm->stall_exec_busy(), 0u);
    EXPECT_GT(h.sm->stall_dependency(), 0u);
    return sm_fingerprint(h);
  };
  expect_pinned(run,
                "issued=112 active=381 pending_full=0 r0.issue=112 "
                "r0.exec_busy=79 r0.dep_pipe=43 r0.dep_l1=147 "
                "r1.dispatch_idle=419");
}

TEST(SmStall, CreditStarvedOffloadCountsEveryAttempt) {
  const auto run = [](bool ff) {
    ProgramBuilder b;
    b.movi(16, 0x10000)
        .movi(17, 0x20000)
        .madi(8, 0, 8, 16)
        .madi(9, 0, 8, 17)
        .ld(11, 8)
        .alu(Opcode::kFAdd, 12, 11, 11)
        .st(9, 12)
        .exit();
    SystemConfig cfg = stall_cfg(ff, OffloadMode::kAlways);
    cfg.ndp_buffers.sm_pending_entries = 8;  // a command and two 2-line accesses each
    SmHarness h(b.build(), cfg, 128, 1);     // 4 warps
    for (unsigned hmc = 0; hmc < h.cfg.num_hmcs; ++hmc) {
      while (h.bufmgr.try_reserve(hmc, 0, 0)) {
      }
    }
    h.sm->assign_cta(0);
    h.tick(80);
    EXPECT_EQ(h.count(PacketType::kOfldCmd), 0u);
    for (unsigned hmc = 0; hmc < h.cfg.num_hmcs; ++hmc) {
      h.bufmgr.release(hmc, h.cfg.ndp_buffers.nsu_cmd_entries, 0, 0);
    }
    h.tick(120);
    EXPECT_EQ(h.count(PacketType::kOfldCmd), 4u);
    for (const Packet& p : h.sent) {
      if (p.type != PacketType::kOfldCmd) continue;
      Packet ack;
      ack.type = PacketType::kOfldAck;
      ack.oid = p.oid;
      h.sm->deliver_ofld_ack(std::move(ack), tick_time_ps(h.cycle + 10, h.cfg.clocks.sm_khz));
    }
    h.tick(100);
    EXPECT_FALSE(h.sm->busy());
    return sm_fingerprint(h);
  };
  expect_pinned(run,
                "issued=40 active=214 pending_full=126 r0.issue=40 "
                "r0.credit_wait=38 r0.dep_pipe=18 r0.ofld_parked=118 "
                "r1.dispatch_idle=86");
}

}  // namespace
}  // namespace sndp
