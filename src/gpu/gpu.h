// The GPU chip: SMs, address-sliced L2 (one slice per HMC link), the CTA
// dispatcher, the NDP buffer manager, and the chip-level packet plumbing
// between SMs, L2 slices, the off-chip links, and the NSUs.
//
// Three tick surfaces, registered in different clock domains by the
// Simulator:
//   * epoch_tick() (SM clock, registered first): governor epoch-clock
//                  catch-up for fast-forwarded cycles.
//   * core_tick()  (SM clock): CTA dispatch + governor epoch clock.
//   * l2_tick()    (L2 clock): SM egress -> slice queues, slice processing,
//                              network RX handling.
#pragma once

#include <memory>
#include <vector>

#include "gpu/buffer_manager.h"
#include "gpu/sm.h"
#include "mem/cache.h"
#include "sim/clock.h"
#include "sim/context.h"

namespace sndp {

struct AuditSnapshot;
struct RunResult;
class EpochTimeline;

class Gpu {
 public:
  explicit Gpu(const SystemContext& ctx);

  // Tick adapters (see Simulator for domain registration).  EpochTick must
  // be registered BEFORE the SMs: when the SM domain wakes from a
  // fast-forward gap it replays the governor's epoch-clock advancement for
  // the skipped cycles, which in naive stepping happened before the wake
  // edge's SM completions.  It never has work of its own (CoreTick keeps
  // the current edge's on_sm_cycle()).
  class EpochTick final : public Tickable {
   public:
    explicit EpochTick(Gpu& gpu) : gpu_(gpu) {}
    void tick(Cycle cycle, TimePs /*now*/) override { gpu_.epoch_tick(cycle); }
    TimePs next_work_ps(TimePs /*now*/) override { return kTimeNever; }

   private:
    Gpu& gpu_;
  };
  class CoreTick final : public Tickable {
   public:
    explicit CoreTick(Gpu& gpu) : gpu_(gpu) {}
    void tick(Cycle cycle, TimePs now) override { gpu_.core_tick(cycle, now); }
    TimePs next_work_ps(TimePs /*now*/) override { return gpu_.core_next_work_ps(); }

   private:
    Gpu& gpu_;
  };
  class L2Tick final : public Tickable {
   public:
    explicit L2Tick(Gpu& gpu) : gpu_(gpu) {}
    void tick(Cycle cycle, TimePs now) override { gpu_.l2_tick(cycle, now); }
    TimePs next_work_ps(TimePs /*now*/) override { return gpu_.l2_next_work_ps(); }

   private:
    Gpu& gpu_;
  };

  std::vector<std::unique_ptr<Sm>>& sms() { return sms_; }
  EpochTick& epoch_tickable() { return epoch_tick_member_; }
  CoreTick& core_tickable() { return core_tick_; }
  L2Tick& l2_tickable() { return l2_tick_; }

  // Flush fast-forward-deferred per-cycle accounting (governor epoch clock,
  // per-SM cycle stacks and active counters) up to the SM domain's
  // consumed-edge count; called by the Simulator before stats are read.
  void finalize(Cycle end_cycle);

  // Cycle-stack profiler: flush every SM's pending fast-forward gap up to
  // `end_cycle` (exact — a sleeping SM's gap bucket is constant, so the
  // split replay lands in the same buckets) WITHOUT advancing the governor
  // epoch clock.  Called at epoch boundaries before the audit / timeline
  // read the stacks, so boundary values are stepping-mode-independent.
  void sync_cycle_stacks(Cycle end_cycle);

  // Waits for every tenant's CTA queue to drain, not just tenant 0's
  // (DESIGN.md "Multi-tenant serving").
  bool idle() const;

  // L2 outcomes over all slices (the epoch timeline's end-of-run values).
  std::uint64_t total_l2_hits() const;
  std::uint64_t total_l2_misses() const;

  // Flow audit (src/obs/stats_audit.*): every SM's counters, the L2 slices'
  // outcomes and flow counters, the per-tenant governors and splits, and
  // the machine SM cycle stack's bucket totals.
  void audit(AuditSnapshot& s) const;

  // End of run: every SM's report, then the `gpu.*` and governor 0's stats,
  // `ipc` (from `r.sm_cycles`), the machine SM cycle stack and the Fig. 8
  // stall counters taken from it, the GPU's energy events and the SMs'
  // active seconds, and on multi-tenant runs the per-tenant results and
  // stats (their names are the caller's).
  void report(RunResult& r) const;

  // Per-epoch timeline hook: the L2 slices poll their cumulative counters at
  // the first consumed L2 edge at/after each epoch boundary.
  void set_timeline(EpochTimeline* timeline) { timeline_ = timeline; }

 private:
  // Per-tenant issued instructions, summed over SMs.
  std::uint64_t issued_by_tenant(unsigned t) const;
  // Machine-wide SM stack: per-tenant bucket sums over all SMs, with each
  // SM's post-last-activity no-warp tail re-billed from dispatch-idle to
  // drained.  audit() builds it once per snapshot, report() once.
  SmCycleStack cycle_stack() const;
  void epoch_tick(Cycle cycle);
  void core_tick(Cycle cycle, TimePs now);
  // Arbiter: the tenant whose next CTA the freed slot on `sm` should take,
  // or kInvalidId when no tenant is dispatchable there.  Stateless on
  // failure (arbiter state moves only when a CTA is actually assigned), so
  // the dispatch_blocked_ fast-forward latch stays exact.
  unsigned pick_tenant(const Sm& sm) const;
  void l2_tick(Cycle cycle, TimePs now);
  void process_slice(unsigned slice, Cycle cycle, TimePs now);
  void handle_rx(Packet&& p, TimePs now);
  void send_to_network(Packet&& p, TimePs now);
  TimePs core_next_work_ps() const;
  TimePs l2_next_work_ps() const;

  const SystemContext& ctx_;
  std::vector<std::unique_ptr<Sm>> sms_;

  struct L2Slice {
    std::unique_ptr<Cache> cache;
    TimedChannel<Packet> in;      // cache-touching + bulk traffic, 2/cycle
    TimedChannel<Packet> urgent;  // pass-through offload commands (no L2 work)
  };
  std::vector<L2Slice> slices_;

  EpochTick epoch_tick_member_;
  CoreTick core_tick_;
  L2Tick l2_tick_;

  // Per-tenant CTA queues (size 1 on the single-tenant path, where the
  // dispatch order reduces exactly to the classic scalar dispatcher).
  std::vector<unsigned> total_ctas_t_;
  std::vector<unsigned> next_cta_t_;
  unsigned ctas_left_ = 0;   // sum over tenants of (total - next)
  unsigned dispatch_rr_ = 0; // SM round-robin pointer
  unsigned tenant_rr_ = 0;   // kRoundRobin arbiter pointer
  std::vector<std::uint64_t> dispatched_;  // kWeightedShare shares
  std::vector<class OffloadGovernor*> govs_;  // one per tenant
  std::vector<TenantCtaProgress> tenant_progress_;
  std::vector<std::uint64_t> t_l2_hits_, t_l2_misses_, t_l2_merged_;

  // Fast-forward state.  `dispatch_blocked_` latches "a full dispatcher scan
  // assigned nothing" (such scans are side-effect-free, so skipping them is
  // exact); any SM completing a CTA raises `dispatch_wake_` to force a
  // rescan.  `l2_wake_` caches the earliest pending delivery among SM egress
  // and slice queues; SM pushes lower it directly (see Sm::set_l2_wake).
  bool fast_forward_ = false;
  bool dispatch_blocked_ = false;
  bool dispatch_wake_ = false;
  TimePs l2_wake_ = 0;
  Cycle epoch_next_expected_ = 0;

  std::uint64_t invals_received_ = 0;
  std::uint64_t rdf_l2_probes_ = 0;
  std::uint64_t rdf_l2_hits_ = 0;
  std::uint64_t l2_read_reqs_ = 0;   // kMemRead packets retired at a slice
  std::uint64_t mem_read_resps_ = 0; // kMemReadResp fills received
  std::uint64_t rx_packets_ = 0;     // all packets ejected from the NoC here
  // Energy events (report() adds them to RunResult::counters).
  std::uint64_t l2_accesses_ = 0;
  std::uint64_t wire_bytes_ = 0;     // on-die data movement (SM <-> L2 <-> links)

  EpochTimeline* timeline_ = nullptr;
};

}  // namespace sndp
