// Locality-aware placement profiling pre-pass (feeds PlacementPolicyKind::
// kLocality).
//
// Runs the reference interpreter over a COPY of the launch-time memory
// image with the LD/ST observer attached, replays the SM's §4.1.1 target
// selection per offload-block instance (majority page-home vote of the
// instance's first memory access, under the random hash the real run would
// start from), and credits every page the instance touches to that target
// stack.  The profile's final answer places each page on the stack whose
// NSU accumulated the most lane-access votes — i.e. where the data's
// consumers actually live, instead of a random stack.
//
// The pre-pass is purely functional (no timing), deterministic, and leaves
// the caller's memory untouched, so running it before the timed simulation
// is free of side effects.
#pragma once

#include <cstddef>
#include <memory>

#include "common/config.h"
#include "isa/program.h"
#include "mem/placement.h"
#include "memfunc/global_memory.h"
#include "sim/context.h"

namespace sndp {

std::shared_ptr<const PlacementProfile> build_placement_profile(
    const Program& prog, const LaunchParams& launch, const GlobalMemory& initial,
    const SystemConfig& cfg);

// The profile a run builds for itself: the pre-pass above over `prog` when
// the run has one kernel and `cfg` selects kLocality with no profile
// supplied; null otherwise (a mix gets none: the pre-pass profiles one
// kernel).  Simulator::run_tenants, the diff oracle and the fuzzer ask here.
std::shared_ptr<const PlacementProfile> auto_placement_profile(
    std::size_t num_kernels, const Program& prog, const LaunchParams& launch,
    const GlobalMemory& initial, const SystemConfig& cfg);

}  // namespace sndp
