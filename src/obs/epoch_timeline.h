// Per-epoch metrics timeline: one sample per governor epoch, recording the
// offload controller's trajectory (Fig. 8) plus the system-level rates that
// explain it (IPC, cache hit rates, link utilization, NSU occupancy).
//
// Fast-forward invariance contract
// --------------------------------
// The recorder must produce bit-identical samples with idle fast-forward on
// or off (PR 2's invariant).  Two mechanisms guarantee that:
//
//  * The SM-domain fields (governor state, issued instructions, L1 counters)
//    are sampled inside the governor's epoch-roll observer.  Fast-forward
//    replays skipped epoch boundaries before any SM does work at the wake
//    edge, and skipped edges are SM-workless, so the counters carry the same
//    values the naive stepper would have seen at the real boundary.
//
//  * Cross-domain sources (L2, links, NSU occupancy, placement migrations)
//    are sampled at the scheduler's cut (Scheduler::set_cut), which runs
//    before any domain ticks the first stepped instant at/after each
//    boundary T_k = tick_time_ps((k+1)*epoch_cycles, sm_khz).  These
//    counters change only inside ticks, and ticks run in global time order,
//    so the recorded value holds exactly the changes made before T_k.
//    Fast-forward may land the cut on a later instant, but it skips only
//    workless edges, at which the counters are frozen.  Boundaries the run
//    never reached get the end-of-run values in finalize(), which equal the
//    frozen boundary values for the same reason.
//
// Rates are formed from per-epoch deltas over deterministic denominators
// (boundary timestamps from the exact tick->ps map, NSU edge counts from the
// same integer formula ClockDomain uses), never from wall-clock or
// mode-dependent tick counts.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "obs/cycle_stack.h"

namespace sndp {

class TraceWriter;

// Cumulative counters owned outside the SM domain, read at one instant.
struct CrossDomainCounters {
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t gpu_up_bytes = 0;    // GPU -> HMC link bytes
  std::uint64_t gpu_down_bytes = 0;  // HMC -> GPU link bytes
  std::uint64_t cube_bytes = 0;      // cube-to-cube link bytes
  std::uint64_t nsu_occupancy = 0;   // Nsu::occupancy_accum summed over NSUs
  std::uint64_t pages_migrated = 0;
};

// One completed governor epoch.  Cumulative counters are converted to
// per-epoch deltas/rates when the sample is assembled.
struct EpochSample {
  std::uint64_t epoch = 0;  // 0-based epoch index
  Cycle end_cycle = 0;      // SM cycle count at the boundary
  TimePs end_ps = 0;        // boundary instant (deterministic)
  double ratio = 0.0;       // offload ratio after this boundary's update
  double step = 0.0;        // hill-climb step size after this boundary
  int direction = 0;        // hill-climb direction after this boundary
  double epoch_ipc = 0.0;   // offload-block instrs / epoch cycles (the
                            // governor's climb signal)
  std::uint64_t block_instrs = 0;  // offload-block instrs retired this epoch
  double sm_ipc = 0.0;             // SM-issued instrs / (epoch cycles * SMs)
  double l1_hit_rate = 0.0;   // L1 read+RDF-probe hit fraction this epoch
  double l2_hit_rate = 0.0;   // L2 read+RDF-probe hit fraction this epoch
  double gpu_up_util = 0.0;   // mean GPU->HMC link utilization this epoch
  double gpu_down_util = 0.0; // mean HMC->GPU link utilization this epoch
  double cube_util = 0.0;     // mean cube-to-cube link utilization
  double nsu_occupancy = 0.0; // mean busy warp slots / max slots, over NSUs
  double valve_pressure = 0.0;  // end_ps / max_time_ps (1.0 = safety valve)
  std::uint64_t pages_migrated = 0;  // placement migrations this epoch

  // Machine-wide SM cycle-stack deltas this epoch (src/obs/cycle_stack.*,
  // sampled at the boundary after Gpu::sync_cycle_stacks).  Signed: the
  // sum-preserving pending-dep reclassification can drain a bucket between
  // boundaries.
  std::array<std::int64_t, kNumSmBuckets> sm_stack{};

  bool operator==(const EpochSample&) const = default;
};

class EpochTimeline {
 public:
  explicit EpochTimeline(const SystemConfig& cfg);

  // SM-domain entry, called from the governor's epoch observer.  `issued`,
  // `l1_hits`, `l1_misses` are cumulative totals over all SMs.  `sm_stack`
  // holds the cumulative machine-wide cycle-stack bucket totals
  // (boundary-synced); the sample records the per-epoch delta.
  void on_epoch(std::uint64_t epoch, double epoch_ipc,
                std::uint64_t block_instrs, double ratio, double step,
                int direction, std::uint64_t issued, std::uint64_t l1_hits,
                std::uint64_t l1_misses,
                const std::array<std::uint64_t, kNumSmBuckets>& sm_stack);

  // The scheduler's cut: record `c` for every boundary at or before `now`
  // and return the next boundary (kTimeNever once the sample cap is hit).
  TimePs sample(TimePs now, const CrossDomainCounters& c);

  // Record the end-of-run values `c` for every rolled epoch whose boundary
  // the cut never reached, then assemble the samples.  Called once after
  // the run.
  void finalize(const CrossDomainCounters& c);

  const std::vector<EpochSample>& samples() const { return samples_; }
  std::uint64_t dropped() const { return dropped_; }

  // Emit one Chrome-trace counter ("C") series per metric on row `tid`.
  void emit_trace(TraceWriter& trace, int tid) const;

  void export_stats(StatSet& out) const;

  // Boundary instant for epoch k (deterministic; public for tests).
  TimePs boundary_ps(std::size_t k) const;

 private:
  // Number of NSU-domain edges with tick time strictly before `t` (the same
  // integer mapping ClockDomain::first_cycle_at_or_after uses).
  std::uint64_t nsu_edges_before(TimePs t) const;

  static constexpr std::size_t kMaxSamples = 100'000;

  Cycle epoch_cycles_;
  std::uint64_t sm_khz_ = 0;
  std::uint64_t nsu_khz_ = 0;
  unsigned num_sms_ = 0;
  unsigned nsu_max_warps_ = 0;
  unsigned num_nsus_ = 0;
  unsigned num_gpu_links_ = 0;   // per direction
  unsigned num_cube_links_ = 0;  // unidirectional cube-to-cube links
  double link_bytes_per_ps_ = 0.0;
  TimePs max_time_ps_ = 0;

  // SM-domain series, pushed at each governor roll.  Cross-domain fields of
  // each sample stay zero until finalize().
  std::vector<EpochSample> samples_;
  std::uint64_t dropped_ = 0;
  std::uint64_t prev_issued_ = 0;
  std::uint64_t prev_l1_hits_ = 0;
  std::uint64_t prev_l1_misses_ = 0;
  std::array<std::uint64_t, kNumSmBuckets> prev_sm_stack_{};

  // Cross-domain counters at each boundary the cut (or finalize) reached.
  std::vector<CrossDomainCounters> at_;
};

// Shared CSV emitter for the timeline — the single definition of the column
// set, used by both bench/epoch_dump and `sndpsim --epoch-csv` so the two
// outputs never drift apart.
void write_epoch_csv(std::FILE* out, const std::vector<EpochSample>& samples);
// Convenience: open `path` ("-" or "" = stdout), write, close.  Returns
// false if the file could not be opened or written.
bool write_epoch_csv(const std::string& path, const std::vector<EpochSample>& samples);

}  // namespace sndp
