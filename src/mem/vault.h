// Vault controller: a bounded FR-FCFS request queue in front of a set of
// DRAM banks sharing one data TSV bus (peak 128 B per tCCD = ~21 GB/s per
// vault, ~340 GB/s per 16-vault stack — the paper's ~320 GB/s figure).
#pragma once

#include <functional>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "common/types.h"
#include "mem/address_map.h"
#include "mem/dram.h"
#include "obs/cycle_stack.h"
#include "sim/clock.h"
#include "sim/timed_channel.h"

namespace sndp {

struct DramRequest {
  Addr line_addr = 0;
  bool is_write = false;
  std::uint64_t token = 0;  // opaque owner cookie, round-tripped on completion
  DramCoord coord{};
  TimePs enqueue_ps = 0;
  std::uint8_t tenant = 0;  // owning tenant (cycle-stack attribution)
  bool page_copy = false;   // migration copy traffic, not demand
};

// Ticks in the DRAM clock domain.  The owner (HMC logic layer) pushes
// requests with `enqueue` (bounded by vault_queue_size; check `can_accept`)
// and receives completions through the callback, timestamped with the cycle
// the data burst finishes (reads: +tCL+tBURST after CAS).  `tenants` sizes
// the cycle stack: one row per tenant plus the shared row.
class VaultController final : public Tickable {
 public:
  using CompletionFn = std::function<void(const DramRequest&, TimePs done_ps)>;

  VaultController(const HmcConfig& cfg, std::uint64_t dram_khz, CompletionFn on_complete,
                  unsigned tenants = 1);

  bool can_accept() const { return queue_.size() < cfg_.vault_queue_size; }
  std::size_t queue_depth() const { return queue_.size(); }
  bool idle() const { return queue_.empty() && completed_.empty(); }

  void enqueue(const DramRequest& req);

  void tick(Cycle cycle, TimePs now) override;

  // Queued requests need command scheduling every DRAM edge; an empty
  // queue only wakes for pending completion bursts.  Skipped ticks are
  // exact no-ops here (no per-cycle counters).
  TimePs next_work_ps(TimePs /*now*/) override {
    if (!queue_.empty()) return 0;
    if (!completed_.empty()) return completed_.front_ready_ps();
    return kTimeNever;
  }

  // Stats.
  std::uint64_t activates = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t precharges = 0;
  // Row hits = (reads + writes) - activates: every activate serves exactly
  // one conflicting/closed-row request in this model.
  std::uint64_t row_misses = 0;
  Distribution queue_latency_ps;

  // Cycle-stack profiler (src/obs/cycle_stack.*).  Busy edges (queue
  // non-empty) are classified live — the vault never sleeps while its queue
  // is non-empty, so the busy classification is fast-forward-invariant.
  // Idle is derived once at finalize() as end_cycle minus counted busy
  // edges.  Bucket sum == counted_cycles() at any instant.
  void finalize(Cycle end_cycle);
  const VaultCycleStack& cycle_stack() const { return cyc_; }
  std::uint64_t counted_cycles() const { return counted_cycles_; }

 private:
  // Bill one busy edge to the request that defines it.  Page-copy traffic
  // belongs to the migration machinery, not any tenant: shared row.
  void bill_cycle(const DramRequest& req, VaultBucket bucket);

  HmcConfig cfg_;
  std::uint64_t dram_khz_;
  CompletionFn on_complete_;
  std::vector<DramBank> banks_;
  std::vector<DramRequest> queue_;  // FR-FCFS scans; arrival order preserved
  Cycle bus_free_ = 0;              // shared vault data bus (tCCD pacing)
  TimedChannel<DramRequest> completed_;

  VaultCycleStack cyc_;
  std::uint64_t counted_cycles_ = 0;
};

}  // namespace sndp
