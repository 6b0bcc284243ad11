// Per-epoch metrics timeline: one sample per governor epoch, recording the
// offload controller's trajectory (Fig. 8) plus the system-level rates that
// explain it (IPC, cache hit rates, link utilization, NSU occupancy).
//
// Fast-forward invariance contract
// --------------------------------
// The recorder must produce bit-identical samples with idle fast-forward on
// or off.  One mechanism guarantees that: the scheduler's cut
// (Scheduler::set_cut) ends every epoch.  It runs before any domain ticks
// the first stepped instant at/after each boundary
// T_k = tick_time_ps((k+1)*epoch_cycles, sm_khz), and there run_images rolls
// the governors, flushes the SM cycle stacks to the boundary cycle and takes
// the one AuditSnapshot that record() reads.  Every counter in it changes
// only inside some component's tick, and ticks run in global time order, so
// the snapshot holds exactly the changes made before T_k.  Fast-forward may
// land the cut on a later instant, but it skips only workless edges, at
// which the counters are frozen.  Boundaries within the SM domain's consumed
// edges that the cut never reached end after the run, on the end-of-run
// values, which equal the frozen boundary values for the same reason.
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
#include "obs/stats_audit.h"

namespace sndp {

class TraceWriter;
struct EpochRollInfo;

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
  // flushed to the boundary cycle by Gpu::finalize).  Signed: the
  // sum-preserving pending-dep reclassification can drain a bucket between
  // boundaries.
  std::array<std::int64_t, kNumSmBuckets> sm_stack{};

  bool operator==(const EpochSample&) const = default;
};

class EpochTimeline {
 public:
  explicit EpochTimeline(const SystemConfig& cfg);

  // Record epoch `info.epoch`, which tenant 0's governor just ended, from
  // the snapshot `at` taken at its boundary: each delta is taken against
  // the previous boundary's snapshot.  Called once per epoch, in order;
  // past the sample cap it only counts a drop.
  void record(const EpochRollInfo& info, const AuditSnapshot& at);

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

  std::vector<EpochSample> samples_;
  std::uint64_t dropped_ = 0;
  AuditSnapshot prev_;  // the previous boundary's snapshot (zeros before 0)
};

// CSV emitter for the timeline (`sndpsim --epoch-csv`): the single
// definition of the column set.
void write_epoch_csv(std::FILE* out, const std::vector<EpochSample>& samples);
// Convenience: open `path` ("-" or "" = stdout), write, close.  Returns
// false if the file could not be opened or written.
bool write_epoch_csv(const std::string& path, const std::vector<EpochSample>& samples);

}  // namespace sndp
