// Differential correctness oracle: timing simulator vs reference interpreter.
//
// The paper's central correctness claim (§3) is that partitioned execution
// is semantics-preserving — translation stays on the GPU, computation moves
// to the NSU, and the result is identical at any offload ratio and any data
// placement.  This module turns that claim into a checked property: for a
// workload or a tenant mix, it runs the same initialized memory image through
//
//   (a) the scalar reference interpreter (src/ref/ref_interp.*), and
//   (b) the full timing simulator under a matrix of configurations
//       (baseline GPU-only, NDP at fixed static ratios, the dynamic
//       governor with and without cache-awareness, 1/2/4 HMC stacks),
//
// and asserts byte-identical output regions AND byte-identical full final
// memory images.  Any coalescer, cache, NoC, buffer, or NDP-codegen bug
// that corrupts a single byte of data fails the oracle, no matter how
// plausible the timing stats look.
#pragma once

#include <string>
#include <vector>

#include "common/config.h"
#include "workloads/workload.h"

namespace sndp {

// One configuration under test.
struct OraclePoint {
  std::string label;
  SystemConfig cfg{};
};

// The standing 13-point matrix: baseline, NDP at static offload ratios
// {0, 0.25, 0.5, 1.0}, dynamic governor with and without cache-awareness,
// stack counts {1, 2, 4}, and the placement-policy spread.  `base` supplies
// everything else (clocks, cache geometry, seeds); its governor mode/ratio
// fields are overridden per point.
std::vector<OraclePoint> oracle_matrix(const SystemConfig& base);

// Outcome of one (workload, config) differential check.
struct DiffOutcome {
  std::string workload;
  std::string label;
  bool sim_completed = false;   // timing sim ran to completion (not valve/abort)
  bool sim_verified = false;    // workload host oracle on the sim image
  bool outputs_match = false;   // output_regions() byte-identical to reference
  bool image_matches = false;   // whole final memory byte-identical
  std::string detail;           // first mismatch / failure description

  bool ok() const { return sim_completed && sim_verified && outputs_match && image_matches; }
};

struct DiffReport {
  std::string workload;
  bool ref_completed = false;
  std::string ref_error;
  std::vector<DiffOutcome> outcomes;

  bool ok() const {
    if (!ref_completed) return false;
    for (const DiffOutcome& o : outcomes) {
      if (!o.ok()) return false;
    }
    return true;
  }
};

// Sets up `workload_names` in one memory image (the exact per-tenant bases
// and setup seeds Simulator::run_tenants uses; one name is a classic
// single-kernel image), replays each tenant's program INDEPENDENTLY through
// the reference interpreter once — tenants never share state, so sequential
// replay is the semantic ground truth for concurrent execution — and runs
// the timing simulator once per point on a copy of the same initial image:
// every tenant's output regions and the whole final image must be
// byte-identical.  A one-kernel locality point builds its profile from that
// image, as Simulator::run does (auto_placement_profile); a mix runs
// without one.
DiffReport diff_check(const std::vector<std::string>& workload_names, ProblemScale scale,
                      const std::vector<OraclePoint>& points);

// Formats a report as an aligned human-readable table (one line per point).
std::string to_string(const DiffReport& report);

}  // namespace sndp
