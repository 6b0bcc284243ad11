// Offload code generation (paper §3.2, Fig. 3).
//
// Takes the original program plus the analyzer's accepted candidates and
// emits a KernelImage:
//  * GPU program: OFLD.BEG / OFLD.END markers inserted around each block,
//    branch targets re-resolved, @NSU and address-calculation roles stamped
//    on the in-block instructions.  Non-offloaded instances execute the
//    block inline, so the original instructions are preserved.
//  * NSU program: per block, OFLD.BEG; the block's loads, stores and
//    NSU-side ALU ops (address-calculation instructions removed, the
//    one-to-one ISA translation of §3.2); OFLD.END.
#pragma once

#include "isa/program.h"
#include "offload/analyzer.h"

namespace sndp {

KernelImage generate(const Program& original, const std::vector<BlockCandidate>& blocks);

// Convenience: analyze + generate in one step.
KernelImage analyze_and_generate(const Program& original);

}  // namespace sndp
