// Cross-component flow-conservation audit.
//
// Every headline stat the simulator reports (speedup, link traffic, energy)
// is derived from per-component counters that nothing cross-checks.  This
// audit takes a snapshot of every counter-owning component at each governor
// epoch boundary and at end-of-run, and asserts the books balance:
// coalesced requests issued by SMs reconcile with L1/L2/vault retirements,
// NoC packets injected == ejected + in-flight, NSU lane-ops reconcile with
// offloaded-block instruction counts, offload completions and ACKs never
// outrun launches, buffer credits are conserved, and EnergyCounters mirror
// the component stats they are folded from.
//
// Epoch-boundary checks are restricted to invariants that hold at EVERY
// instant of a run (monotonicity, same-callsite identities, flow
// inequalities like "retired <= issued"), so they are valid no matter where
// in a transaction's lifetime the boundary lands.  The strict conservation
// equalities ("injected == ejected", "launches == completions") only hold
// once the system has drained, so they run in check_final() on completed
// un-aborted runs.
//
// A violation records the first offending epoch (-1 for end-of-run), the
// component, the check name, and both sides of the comparison.  The audit
// itself produces no output while checks pass, which keeps it invisible to
// the fast-forward bit-identity invariant.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "obs/cycle_stack.h"
#include "obs/latency.h"

namespace sndp {

// One consistent snapshot of every audited counter.  All fields are
// cumulative totals unless noted instantaneous.  Each counter is filled by
// the component that counts it: `Gpu::audit` (which walks its SMs'
// `Sm::audit`), `Network::audit` and `Hmc::audit` (which walks its NSU's
// `Nsu::audit` and its vaults).  The Simulator adds the fields no component
// owns: energy mirrors, latency-tracer counts, placement counters, geometry
// and the SM flush cycle.
struct AuditSnapshot {
  // SM / L1 side.
  std::uint64_t l1_hits = 0;       // includes RDF-probe hits
  std::uint64_t l1_miss_new = 0;   // includes RDF-probe misses
  std::uint64_t l1_merged = 0;
  std::uint64_t sm_issued = 0;
  std::uint64_t sm_rdf_probes = 0;
  std::uint64_t sm_rdf_l1_hits = 0;
  std::uint64_t offloads_started = 0;
  std::uint64_t inline_blocks = 0;
  std::uint64_t ofld_acks = 0;
  std::uint64_t inline_block_instrs = 0;
  std::uint64_t acked_block_instrs = 0;
  // L2 side (all slices).
  std::uint64_t l2_hits = 0;       // includes RDF-probe hits
  std::uint64_t l2_miss_new = 0;   // includes RDF-probe misses
  std::uint64_t l2_merged = 0;
  std::uint64_t l2_read_reqs = 0;  // kMemRead packets retired at L2
  std::uint64_t rdf_l2_probes = 0;
  std::uint64_t rdf_l2_hits = 0;
  std::uint64_t mem_read_resps = 0;  // kMemReadResp received back at the GPU
  std::uint64_t gpu_rx_packets = 0;  // all packets ejected at the GPU
  // Governor.
  std::uint64_t gov_block_instrs = 0;
  // Network.
  std::uint64_t net_injected = 0;
  std::uint64_t net_in_flight = 0;  // instantaneous
  std::uint64_t hmc_rx_packets = 0;  // packets ejected at any HMC
  std::uint64_t link_bytes = 0;      // sum over Link::bytes_transmitted
  std::uint64_t class_bytes = 0;     // gpu_up + gpu_down + cube byte counters
  // The epoch timeline's link columns (no check reads them).
  std::uint64_t gpu_up_bytes = 0;    // GPU -> HMC
  std::uint64_t gpu_down_bytes = 0;  // HMC -> GPU
  std::uint64_t cube_bytes = 0;      // cube-to-cube
  // Vaults / DRAM.
  std::uint64_t vault_reads = 0;
  std::uint64_t vault_writes = 0;
  std::uint64_t vault_activates = 0;
  std::uint64_t mem_read_completions = 0;
  std::uint64_t rdf_completions = 0;
  std::uint64_t mem_write_completions = 0;
  std::uint64_t nsu_write_completions = 0;
  std::uint64_t page_copy_read_completions = 0;
  std::uint64_t page_copy_write_completions = 0;
  std::uint64_t dram_read_bytes = 0;
  std::uint64_t dram_write_bytes = 0;
  // NSUs.
  std::uint64_t nsu_blocks_completed = 0;
  std::uint64_t nsu_instrs = 0;
  std::uint64_t nsu_lane_ops = 0;
  std::uint64_t nsu_finished_block_instrs = 0;
  std::uint64_t nsu_occupancy = 0;  // busy warp slots summed over edges
                                    // (the timeline's; no check reads it)
  // Buffer manager (instantaneous / capacities).
  std::uint64_t buf_free_cmd = 0;
  std::uint64_t buf_free_read_data = 0;
  std::uint64_t buf_free_write_addr = 0;
  std::uint64_t buf_cap_cmd = 0;
  std::uint64_t buf_cap_read_data = 0;
  std::uint64_t buf_cap_write_addr = 0;
  // RunResult::counters mirrors, set on the final snapshot only: the
  // components' report() sums, computed apart from their audit() sums.
  std::uint64_t energy_dram_activates = 0;
  std::uint64_t energy_offchip_bytes = 0;
  std::uint64_t energy_nsu_lane_ops = 0;
  // Latency tracer (src/obs/latency.*): per-path-class finished-span counts
  // plus the span lifecycle counters.  The histograms must reconcile with
  // the delivered-packet counters above, so a lost or double-counted span
  // fails the run like any other conservation bug.
  std::array<std::uint64_t, kNumPathClasses> lat_counts{};
  std::uint64_t lat_started = 0;
  std::uint64_t lat_finished = 0;
  std::uint64_t lat_cancelled = 0;
  // Placement policy (mem/placement.*): migration counters are paired in
  // the same note_remote_access call, so they must stay in lock-step, and
  // every migration must show up in the fabric as page_bytes/line_bytes
  // vault reads at the old home plus the same count of writes at the new
  // home (the Hmc page-copy flow) — a re-home is never free.
  std::uint64_t pages_migrated = 0;
  std::uint64_t migration_bytes = 0;
  // Per-tenant splits (empty on single-tenant runs).  Each vector is keyed
  // by tenant id and must sum to the matching fabric-wide total — a packet
  // mis-stamped or double-counted under one tenant breaks the sum even when
  // the aggregate books still balance.
  std::vector<std::uint64_t> tenant_issued;     // per-tenant SM instructions
  std::vector<std::uint64_t> tenant_l2_reads;   // per-tenant L2 read outcomes
  std::vector<std::uint64_t> tenant_gov_instrs; // per-governor block instrs
  // Cycle-stack profiler (src/obs/cycle_stack.*).  Exhaustiveness: each
  // component's bucket sum must equal its counted cycles at every instant
  // (every counted cycle lands in exactly one bucket; reclassifications are
  // sum-preserving), and the SM stacks together cover num_sms x the SM
  // cycle they were flushed to.  Each machine-wide SM stack quantity below
  // must match its counterpart kept outside the stack: the issue bucket the
  // issued-instruction counter, the non-no-warp buckets the SMs'
  // `active_cycles`, the dep-pending bucket the warps' parked cycles, and
  // the per-tenant issue rows the per-tenant issued-instruction counters.
  std::vector<std::uint64_t> cyc_sm_sum, cyc_sm_counted;        // per SM
  std::vector<std::uint64_t> cyc_nsu_sum, cyc_nsu_counted;      // per NSU
  std::vector<std::uint64_t> cyc_vault_sum, cyc_vault_counted;  // per vault
  std::uint64_t cyc_sm_flushed_to = 0;   // SM cycle the stacks were flushed to
  // Machine SM stack bucket totals (every tenant row and the shared row);
  // the epoch timeline records their per-epoch deltas.
  std::array<std::uint64_t, kNumSmBuckets> cyc_sm_buckets{};
  std::uint64_t sm_active_cycles = 0;    // sum of Sm::active_cycles
  std::uint64_t sm_parked_dep_cycles = 0;
  std::vector<std::uint64_t> cyc_tenant_issue;  // per-tenant issue-bucket rows
  // Geometry.
  unsigned line_bytes = 128;
  std::uint64_t page_bytes = 4096;

  std::uint64_t lat(PathClass c) const {
    return lat_counts[static_cast<std::size_t>(c)];
  }
  std::uint64_t cyc_sm(SmBucket b) const {
    return cyc_sm_buckets[static_cast<std::size_t>(b)];
  }

  // kMemRead packets the SMs created: every L1 new miss allocates one,
  // except RDF-probe misses (the probe packet already exists).
  std::uint64_t mem_reads_created() const {
    return l1_miss_new - (sm_rdf_probes - sm_rdf_l1_hits);
  }

  // L2 new misses that fetch a line from a vault: RDF probe misses also
  // count as L2 misses but the RDF packet travels on to memory itself, so
  // no kMemRead / kMemReadResp pair is created for them.
  std::uint64_t l2_fill_misses() const {
    return l2_miss_new - (rdf_l2_probes - rdf_l2_hits);
  }
};

struct AuditViolation {
  std::int64_t epoch = -1;  // governor epoch index, or -1 for end-of-run
  std::string component;
  std::string check;
  double lhs = 0.0;
  double rhs = 0.0;
  double delta() const { return lhs - rhs; }
  std::string to_string() const;
};

class StatsAudit {
 public:
  // Run the every-instant invariants against the snapshot taken at epoch
  // boundary `epoch` (also checks counter monotonicity vs. the previous
  // snapshot).
  void check_epoch(std::uint64_t epoch, const AuditSnapshot& s);

  // Run the end-of-run checks.  `drained` means the run completed without
  // abort, so strict conservation equalities must hold; an aborted run only
  // gets the every-instant invariants.
  void check_final(const AuditSnapshot& s, bool drained);

  bool ok() const { return violations_.empty(); }
  const std::vector<AuditViolation>& violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }
  std::string first_violation_message() const;

  void export_stats(StatSet& out) const;

 private:
  void instant_checks(std::int64_t epoch, const AuditSnapshot& s);
  void expect(bool cond, std::int64_t epoch, const char* component,
              const char* check, double lhs, double rhs);
  void eq(std::uint64_t lhs, std::uint64_t rhs, std::int64_t epoch,
          const char* component, const char* check);
  void le(std::uint64_t lhs, std::uint64_t rhs, std::int64_t epoch,
          const char* component, const char* check);

  static constexpr std::size_t kMaxViolations = 64;

  std::uint64_t checks_run_ = 0;
  std::uint64_t epochs_checked_ = 0;
  std::vector<AuditViolation> violations_;
  std::uint64_t suppressed_violations_ = 0;
  AuditSnapshot prev_;
  bool have_prev_ = false;
};

}  // namespace sndp
