// Energy accounting (paper §5 / Fig. 10).
//
// Each component counts its own raw energy events during simulation and adds
// them to RunResult::counters in its report(); EnergyModel then converts them
// into joules using the paper's published constants (11.8 nJ per 4 KB row
// activation, 4 pJ/bit row-buffer access, 2 pJ/bit off-chip links) plus
// static power integrated over the runtime.
// The breakdown matches Fig. 10's five categories: GPU, NSU, intra-HMC NoC,
// off-chip interconnect, and DRAM.
#pragma once

#include <cstdint>
#include <string>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"

namespace sndp {

struct EnergyCounters {
  // GPU core events.
  std::uint64_t sm_lane_ops = 0;     // executed instructions x active lanes
  std::uint64_t l1_accesses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t gpu_wire_bytes = 0;  // on-die data movement (SM <-> L2 <-> links)
  // NSU events.
  std::uint64_t nsu_lane_ops = 0;
  // Memory-side events.
  std::uint64_t hmc_noc_bytes = 0;   // vault <-> logic-layer movement
  std::uint64_t dram_activates = 0;
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  // Off-chip bytes come from the Network's link counters.
  std::uint64_t offchip_bytes = 0;
  // Sum over SMs of cycles with at least one live warp, in seconds (idle
  // SMs are power-gated, so SM static power is charged per active cycle —
  // this is what makes Baseline_MoreCore energy-neutral, as in Fig. 10).
  double sm_active_seconds = 0.0;
};

struct EnergyBreakdown {
  double gpu_j = 0.0;
  double nsu_j = 0.0;
  double hmc_noc_j = 0.0;
  double offchip_j = 0.0;
  double dram_j = 0.0;
  double total() const { return gpu_j + nsu_j + hmc_noc_j + offchip_j + dram_j; }

  void export_stats(StatSet& out) const;
};

class EnergyModel {
 public:
  explicit EnergyModel(const EnergyConfig& cfg) : cfg_(cfg) {}

  // `runtime_ps` integrates static power; `num_sms`/`num_hmcs` scale it.
  EnergyBreakdown compute(const EnergyCounters& c, TimePs runtime_ps, unsigned num_sms,
                          unsigned num_hmcs, bool ndp_enabled) const;

 private:
  EnergyConfig cfg_;
};

}  // namespace sndp
