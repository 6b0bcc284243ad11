// Tests for offload-block identification (§3.1) and its structural rules.
#include <gtest/gtest.h>

#include "isa/assembler.h"
#include "offload/analyzer.h"

namespace sndp {
namespace {

// The canonical VADD block: two loads, an add, a store.
Program vadd_like() {
  return assemble(R"(
    MOVI R16, 0x10000
    MOVI R17, 0x20000
    MOVI R18, 0x30000
    IMAD R8, R0, 8, R16
    IMAD R9, R0, 8, R17
    IMAD R10, R0, 8, R18
    LD   R11, [R8+0]
    LD   R12, [R9+0]
    FADD R13, R11, R12
    ST   [R10+0], R13
    EXIT
  )");
}

TEST(Analyzer, VaddProducesOneBlock) {
  const AnalysisResult r = analyze(vadd_like());
  ASSERT_EQ(r.accepted.size(), 1u);
  const BlockCandidate& c = r.accepted[0];
  EXPECT_EQ(c.begin, 6u);  // first LD
  EXPECT_EQ(c.end, 10u);   // one past the ST
  EXPECT_EQ(c.num_loads, 2u);
  EXPECT_EQ(c.num_stores, 1u);
  EXPECT_TRUE(c.regs_in.empty());
  EXPECT_TRUE(c.regs_out.empty());
  // Score: 3 x 8 B of data traffic, no register transfers.
  EXPECT_DOUBLE_EQ(c.score, 24.0);
  // FADD is NSU-side; nothing in the span is address calculation.
  EXPECT_FALSE(c.on_nsu[0]);  // LD
  EXPECT_TRUE(c.on_nsu[2]);   // FADD
}

TEST(Analyzer, ScratchpadSplitsBlocks) {
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    IMAD R8, R0, 8, R16
    LD   R11, [R8+0]
    FADD R13, R11, R11
    ST   [R8+0], R13
    SHM.ST [R3+0], R13
    LD   R12, [R8+64]
    FADD R14, R12, R12
    ST   [R8+64], R14
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 2u);
  EXPECT_LE(r.accepted[0].end, 5u);   // first block ends at/before the SHM.ST
  EXPECT_GT(r.accepted[1].begin, 5u); // second after it
}

TEST(Analyzer, BarrierSplitsBlocks) {
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    IMAD R8, R0, 8, R16
    LD   R11, [R8+0]
    FADD R13, R11, R11
    ST   [R8+0], R13
    BAR
    LD   R12, [R8+64]
    FADD R14, R12, R12
    ST   [R8+64], R14
    EXIT
  )");
  EXPECT_EQ(analyze(p).accepted.size(), 2u);
}

TEST(Analyzer, IndirectLoadSplitsAndSalvages) {
  // x = B[A[i]] — the §4.4 pattern: the A-load's value feeds the B-load's
  // address.  The A-load region scores 0 (one 8 B load vs one 8 B register
  // out) and is rejected; the B-load region also scores 0 (its value is
  // consumed on the GPU afterwards), but the §4.4 rule salvages it as a
  // single-instruction indirect block.
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    MOVI R17, 0x20000
    IMAD R8, R0, 8, R16
    LD   R10, [R8+0]
    IMAD R11, R10, 8, R17
    LD   R12, [R11+0]
    SHM.ST [R3+0], R12
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  const BlockCandidate& c = r.accepted[0];
  EXPECT_TRUE(c.indirect_single_load);
  EXPECT_EQ(c.begin, 5u);
  EXPECT_EQ(c.num_loads, 1u);
  EXPECT_EQ(c.num_stores, 0u);
  // The loaded value returns to the GPU as a live-out register.
  ASSERT_EQ(c.regs_out.size(), 1u);
  EXPECT_EQ(c.regs_out[0], 12u);
}

TEST(Analyzer, SetpConsumingLoadDataSplits) {
  // A compare on loaded data must stay on the GPU, so the block ends after
  // the feeding load.
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    IMAD R8, R0, 8, R16
    LD   R10, [R8+0]
    LD   R11, [R8+8]
    FADD R12, R10, R11
    ST   [R8+16], R12
    ISETP P0, LT, R10, 100
    @P0 IADD R13, R13, 1
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_FALSE(r.accepted.empty());
  for (const auto& c : r.accepted) {
    for (unsigned i = c.begin; i < c.end; ++i) {
      EXPECT_FALSE(p.at(i).writes_pred())
          << "Setp inside accepted block [" << c.begin << "," << c.end << ")";
    }
  }
}

TEST(Analyzer, LiveInRegistersDetected) {
  // Store data computed before the region -> live-in transfer.
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    BAR
    IMAD R8, R0, 8, R16
    LD   R10, [R8+0]
    FADD R12, R10, R20
    ST   [R8+0], R12
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  ASSERT_EQ(r.accepted[0].regs_in.size(), 1u);
  EXPECT_EQ(r.accepted[0].regs_in[0], 20u);
}

TEST(Analyzer, LiveOutRegistersDetected) {
  // The FADD result is consumed after the block -> live-out transfer.
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    IMAD R8, R0, 8, R16
    LD   R10, [R8+0]
    LD   R11, [R8+8]
    FADD R12, R10, R11
    ST   [R8+16], R12
    BAR
    SHM.ST [R3+0], R12
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  ASSERT_EQ(r.accepted[0].regs_out.size(), 1u);
  EXPECT_EQ(r.accepted[0].regs_out[0], 12u);
}

TEST(Analyzer, GuardedBlockNeedsPreds) {
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    ISETP P1, LT, R0, 100
    BAR
    IMAD R8, R0, 8, R16
    @P1 LD R10, [R8+0]
    @P1 FADD R12, R10, R10
    @P1 ST [R8+0], R12
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  EXPECT_TRUE(r.accepted[0].needs_preds);
}

TEST(Analyzer, PredDefinedInRegionSplitsGuardedUse) {
  // Setp inside the region defining a guard used by a later mem access:
  // the block must start after the Setp.
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    IMAD R8, R0, 8, R16
    ISETP P1, LT, R0, 100
    @P1 LD R10, [R8+0]
    @P1 FADD R12, R10, R10
    @P1 ST [R8+0], R12
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  EXPECT_GE(r.accepted[0].begin, 3u);  // after the ISETP
}

// Regression (found by the GEMM/ATTN operator library): a *guarded*
// producer pulled onto the NSU only defines the active lanes, so the
// register's pre-block value is still needed for the inactive ones and
// must be marshalled in.  The old backward walk reset the need at any
// write, guarded or not, so regs_in lost R5 and the NSU's inactive lanes
// computed with garbage.  (Never seen before: every guarded producer in
// the seed workloads reads its own destination, which re-adds the need.)
TEST(Analyzer, GuardedProducerKeepsLiveIn) {
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    ISETP P1, LT, R0, 100
    BAR
    IMAD R8, R0, 8, R16
    @P1 MOVI R5, 0
    FADD R7, R5, R5
    ST   [R8+0], R7
    ST   [R8+8], R7
    ST   [R8+16], R7
    ST   [R8+24], R7
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  const BlockCandidate& c = r.accepted[0];
  // The guarded MOVI is NSU-side (it feeds store data through the FADD)...
  bool movi_on_nsu = false;
  for (unsigned i = c.begin; i < c.end; ++i) {
    if (p.at(i).op == Opcode::kMovI && c.on_nsu[i - c.begin]) movi_on_nsu = true;
  }
  EXPECT_TRUE(movi_on_nsu);
  // ...but R5's pre-block value must still arrive as a live-in for the
  // lanes where P1 is false.
  EXPECT_TRUE(std::find(c.regs_in.begin(), c.regs_in.end(), 5) != c.regs_in.end())
      << to_string(c);
}

TEST(Analyzer, ComputeOnlyRegionRejected) {
  const Program p = assemble(R"(
    IADD R1, R0, 1
    IMUL R2, R1, R1
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  EXPECT_TRUE(r.accepted.empty());
  EXPECT_TRUE(r.rejected.empty());  // no memory at all: not even a candidate
}

TEST(Analyzer, DuplicatedAddressValueProducer) {
  // R9 feeds BOTH a later store's address and (via FADD) its data:
  // the analyzer duplicates it (addr_calc on GPU, on_nsu for the value).
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    LD   R10, [R16+0]
    IADD R9, R0, 8
    I2F  R11, R9
    FADD R12, R10, R11
    IMAD R13, R9, 8, R16
    ST   [R13+0], R12
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  const BlockCandidate& c = r.accepted[0];
  // Find the IADD inside the span; it must be both addr_calc and on_nsu
  // (or its value chain pulled in via I2F with R9 live-in).
  bool value_path_available = false;
  for (unsigned i = c.begin; i < c.end; ++i) {
    const unsigned rel = i - c.begin;
    if (p.at(i).op == Opcode::kIAdd && c.on_nsu[rel]) value_path_available = true;
  }
  const bool via_live_in =
      std::find(c.regs_in.begin(), c.regs_in.end(), 9) != c.regs_in.end();
  EXPECT_TRUE(value_path_available || via_live_in);
}

TEST(Analyzer, LoopBodyIsOwnCandidate) {
  const Program p = assemble(R"(
    MOVI R16, 0x10000
    MOV  R7, R0
  loop:
    IMAD R8, R7, 8, R16
    LD   R10, [R8+0]
    FADD R11, R10, R10
    ST   [R8+0], R11
    IADD R7, R7, R1
    ISETP P0, LT, R7, R6
    @P0 BRA loop
    EXIT
  )");
  const AnalysisResult r = analyze(p);
  ASSERT_EQ(r.accepted.size(), 1u);
  EXPECT_GE(r.accepted[0].begin, 2u);  // inside the loop body
  EXPECT_LE(r.accepted[0].end, 7u);
}

TEST(Analyzer, MaxMemInstsBound) {
  // A block with more loads than the seq field allows is rejected.
  ProgramBuilder b;
  b.movi(16, 0x10000);
  for (int i = 0; i < 70; ++i) b.ld(10, 16, i * 8);
  b.st(16, 10).exit();
  const AnalysisResult r = analyze(b.build());
  EXPECT_TRUE(r.accepted.empty());
}

}  // namespace
}  // namespace sndp
