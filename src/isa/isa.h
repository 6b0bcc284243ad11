// A small SIMT instruction set, playing the role PTX/SASS plays for the
// paper's static analyzer and partitioned-execution runtime.
//
// Design points:
//  * Unified 64-bit register file R0..R31 per thread; registers are raw
//    bits, interpreted per opcode (signed int, unsigned int, or double).
//  * Separate 1-bit predicate file P0..P7; any instruction may carry a
//    guard predicate (@P / @!P) for per-lane divergence without branches.
//  * Branches (BRA) must be warp-uniform across active lanes — intra-warp
//    divergence is expressed with predication, which is how the evaluated
//    kernels behave after reconvergence anyway.
//  * Memory ops address a flat physical space: addr = R[src0] + imm.
//    Width 4 or 8 bytes; `f32` memory ops convert float <-> double between
//    memory and register so register-level float math is always double.
//  * OFLD_BEG / OFLD_END bracket offload blocks (paper Fig. 3).  They are
//    emitted by the offload code generator, not written by hand.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace sndp {

inline constexpr unsigned kNumRegs = 32;
inline constexpr unsigned kNumPreds = 8;
inline constexpr std::uint8_t kNoReg = 0xFF;
inline constexpr std::int8_t kNoPred = -1;

enum class Opcode : std::uint8_t {
  kNop,
  // Moves.
  kMov,   // Rd = Rs0
  kMovI,  // Rd = imm (full 64-bit immediate)
  // Integer ALU (signed semantics where it matters).
  kIAdd,  // Rd = Rs0 + Rs1/imm
  kISub,
  kIMul,
  kIMad,  // Rd = Rs0 * Rs1 + Rs2   (uses three sources)
  kIDiv,
  kIRem,
  kAnd,
  kOr,
  kXor,
  kShl,
  kShr,
  kIMin,
  kIMax,
  // Float ALU (double precision in registers).
  kFAdd,
  kFSub,
  kFMul,
  kFFma,  // Rd = Rs0 * Rs1 + Rs2
  kFDiv,
  kFMin,
  kFMax,
  kFSqrt,
  kFAbs,
  kFNeg,
  // Conversions.
  kI2F,
  kF2I,
  // Predicate-setting compare: Pd = cmp(Rs0, Rs1/imm).
  kISetp,
  kFSetp,
  // Memory.  Address = R[src0] + imm.
  kLd,     // global load into Rd
  kSt,     // global store of Rs1
  kShmLd,  // scratchpad ("shared memory") load — never offloaded
  kShmSt,  // scratchpad store — never offloaded
  kLdc,    // constant-space load (small read-only tables)
  // Control.
  kBra,  // warp-uniform branch to `target`, optionally guarded
  kBar,  // CTA-wide barrier — never inside an offload block
  kExit,
  // NDP markers (emitted by offload codegen).
  kOfldBeg,  // imm = offload block id
  kOfldEnd,  // imm = offload block id
};

enum class CmpOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

// Execution-resource class an opcode occupies on the SM / NSU.
enum class ExecClass : std::uint8_t { kAlu, kSfu, kMem, kCtrl };

struct Instr {
  Opcode op = Opcode::kNop;
  std::uint8_t dst = kNoReg;
  std::array<std::uint8_t, 3> src{kNoReg, kNoReg, kNoReg};
  std::int64_t imm = 0;
  bool use_imm = false;  // second ALU operand is `imm` instead of src[1]

  // Memory attributes.
  std::uint8_t mem_width = 0;  // 4 or 8 bytes; 0 for non-memory ops
  bool mem_f32 = false;        // float<->double conversion at the mem boundary

  // Predication.
  std::int8_t guard_pred = kNoPred;  // -1: unguarded
  bool guard_sense = true;           // true: @P, false: @!P
  std::uint8_t pred_dst = 0;         // for *Setp
  CmpOp cmp = CmpOp::kEq;

  // Control.
  std::int32_t target = -1;  // resolved instruction index for kBra

  // NDP annotations (filled in by the offload analyzer / codegen).
  bool on_nsu = false;      // "@NSU": skipped on GPU when the block offloads
  bool addr_calc = false;   // feeds a memory address: always runs on the GPU

  bool is_mem() const {
    return op == Opcode::kLd || op == Opcode::kSt || op == Opcode::kShmLd ||
           op == Opcode::kShmSt || op == Opcode::kLdc;
  }
  bool is_global_mem() const { return op == Opcode::kLd || op == Opcode::kSt; }
  bool is_alu() const;
  bool writes_reg() const { return dst != kNoReg; }
  bool writes_pred() const { return op == Opcode::kISetp || op == Opcode::kFSetp; }
  unsigned num_srcs() const;
  ExecClass exec_class() const;
};

// Per-thread architectural state.
struct ThreadCtx {
  std::array<RegValue, kNumRegs> regs{};
  std::array<bool, kNumPreds> preds{};
};

// Evaluates whether `instr`'s guard passes for this thread.
bool guard_passes(const Instr& instr, const ThreadCtx& ctx);

// Lanes of `instr` that execute on a warp (SM or NSU): alive in `active`
// AND guard-passing.
inline LaneMask exec_mask(const Instr& instr, LaneMask active,
                          const std::array<ThreadCtx, kWarpWidth>& lanes) {
  if (instr.guard_pred == kNoPred) return active;
  LaneMask m = 0;
  for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
    if (!(active & (LaneMask{1} << lane))) continue;
    if (lanes[lane].preds[static_cast<unsigned>(instr.guard_pred)] == instr.guard_sense) {
      m |= LaneMask{1} << lane;
    }
  }
  return m;
}

// Executes a non-memory, non-control instruction on one thread's registers.
// Memory and control ops are handled by the cores (they need the machine).
void execute_alu(const Instr& instr, ThreadCtx& ctx);

// Computes the effective address of a memory instruction for one thread.
Addr effective_address(const Instr& instr, const ThreadCtx& ctx);

// Bit-level float helpers shared with the functional memory.
double bits_to_f64(RegValue bits);
RegValue f64_to_bits(double value);

// Invokes `fn(reg_id)` for every register this instruction actually reads
// (skipping the slot an immediate occupies and unused slots).
template <typename Fn>
void for_each_src_reg(const Instr& instr, Fn&& fn) {
  const bool three_src = instr.op == Opcode::kIMad || instr.op == Opcode::kFFma;
  const unsigned total = three_src ? 3 : instr.num_srcs();
  for (unsigned i = 0; i < total; ++i) {
    if (i == 1 && instr.use_imm) continue;
    if (instr.src[i] != kNoReg) fn(instr.src[i]);
  }
}

const char* opcode_name(Opcode op);
const char* cmp_name(CmpOp op);
std::string to_string(const Instr& instr);

}  // namespace sndp
