// Static offload-block identification (paper §3.1).
//
// The analyzer scans each basic block for contiguous regions of plain
// load/store/ALU instructions and scores them with Eq. 1:
//
//     Score = GPUTrafficReduction - OffloadOverhead
//
// where GPUTrafficReduction sums the data bytes of every global LD/ST in
// the region (offloading keeps that data off the GPU links) and
// OffloadOverhead counts the live-in/live-out register bytes that must be
// marshalled between GPU and NSU.  Address-calculation instructions are
// excluded from the overhead — they execute on the GPU either way (§4.1).
//
// Structural rules enforced here:
//  * Blocks never span basic blocks, barriers, or scratchpad/constant
//    accesses (§3.1).
//  * Predicate-setting compares always stay on the GPU; a block cannot use
//    a predicate defined inside itself on an NSU-side instruction.
//  * No value may flow from an in-block load into an in-block memory
//    address or compare: such regions are split after the feeding load so
//    the loaded value returns to the GPU (as a live-out register) before
//    the dependent block begins.  This is exactly how x = B[A[i]] becomes
//    two blocks, the second being a "single indirect load" block (§4.4).
//  * Any single indirect load (address derived from memory data) is added
//    as its own offload block even when Eq. 1 rejects it (§4.4) — the
//    static score cannot see the divergence savings.
#pragma once

#include <string>
#include <vector>

#include "isa/program.h"

namespace sndp {

// The most loads, and the most stores, one offload block may hold: the
// bound from the packet sequence-number field's width.
inline constexpr unsigned kMaxBlockMemInsts = 64;

// A candidate/accepted region prior to code generation.
struct BlockCandidate {
  unsigned begin = 0;  // original program index of the first instruction
  unsigned end = 0;    // one past the last instruction
  unsigned num_loads = 0;
  unsigned num_stores = 0;
  std::vector<std::uint8_t> regs_in;
  std::vector<std::uint8_t> regs_out;
  // Per-instruction roles, relative to `begin`.
  std::vector<bool> on_nsu;
  std::vector<bool> addr_calc;
  bool needs_preds = false;
  bool indirect_single_load = false;
  double score = 0.0;
};

struct AnalysisResult {
  std::vector<BlockCandidate> accepted;
  std::vector<BlockCandidate> rejected;  // scored but not profitable
};

// Analyze `prog` and return accepted (and rejected) candidates, in
// program order, non-overlapping.  A candidate is accepted when its Score
// is above 0 and it has at most kMaxBlockMemInsts loads and stores.
AnalysisResult analyze(const Program& prog);

std::string to_string(const BlockCandidate& c);

}  // namespace sndp
