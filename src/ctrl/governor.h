// The offload governor: one per tenant, owned by the Gpu.  Combines the
// offload mode (§6-7), the hill-climbing dynamic ratio (Algorithm 1), and
// the cache-locality-aware suppression (§7.3) into a single per-instance
// decision made at every OFLD.BEG.
#pragma once

#include <memory>

#include "common/config.h"
#include "common/rng.h"
#include "common/stats.h"
#include "ctrl/cache_aware.h"
#include "ctrl/hill_climb.h"
#include "isa/program.h"

namespace sndp {

// roll_epoch()'s result: the state of the epoch that just ended.  Epochs
// end in every offload mode; only the hill-climb update is gated on the
// dynamic modes.
struct EpochRollInfo {
  std::uint64_t epoch = 0;     // 0-based index of the epoch that just ended
  double ipc = 0.0;            // offload-block instrs / epoch_cycles
  std::uint64_t block_instrs = 0;  // offload-block instrs this epoch
  double ratio = 0.0;          // ratio AFTER this boundary's update
  double step = 0.0;
  int direction = 0;
};

class OffloadGovernor {
 public:
  OffloadGovernor(const GovernorConfig& cfg, unsigned num_blocks, unsigned line_bytes,
                  std::uint64_t seed);

  // Decision for one warp instance of `info` with `active_threads` lanes.
  bool decide(const OffloadBlockInfo& info, unsigned active_threads);

  // A warp instance of a block finished (inline or via NSU ACK):
  // contributes its instruction count to the epoch throughput metric.
  void on_block_complete(unsigned instr_count) {
    epoch_instrs_ += instr_count;
    total_block_instrs_ += instr_count;
  }

  // End the current epoch: the hill-climb update for its boundary, then
  // reset the epoch's instruction count.  Gpu::end_epoch calls it at every
  // epoch boundary.
  EpochRollInfo roll_epoch();

  // Total offload-block instructions ever reported (audit cross-check
  // against the SMs' inline + ACK-drain mirrors).
  std::uint64_t total_block_instrs() const { return total_block_instrs_; }

  CacheAwareTable& cache_table() { return cache_table_; }
  const CacheAwareTable& cache_table() const { return cache_table_; }

  double current_ratio() const;
  OffloadMode mode() const { return cfg_.mode; }

  void export_stats(StatSet& out) const;

 private:
  GovernorConfig cfg_;
  Rng rng_;
  HillClimbController hill_;
  CacheAwareTable cache_table_;
  std::uint64_t epoch_instrs_ = 0;
  std::uint64_t total_block_instrs_ = 0;

  // Stats.
  std::uint64_t decisions_ = 0;
  std::uint64_t offloads_ = 0;
  std::uint64_t suppressed_by_cache_ = 0;
  unsigned epochs_ = 0;
  Distribution ratio_history_;
};

}  // namespace sndp
