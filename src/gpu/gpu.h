// The GPU chip: SMs, address-sliced L2 (one slice per HMC link), the CTA
// dispatcher, the GPU side of the NDP protocol (GpuShared: buffer credits,
// WTA counters, the read-only-cache mirror and the per-tenant governors),
// and the chip-level packet plumbing between SMs, L2 slices, the off-chip
// links, and the NSUs.
//
// The Gpu is the one member of the SM clock domain.  The L2 slices run at
// the SM clock (Table 2), so one tick covers the whole chip.
#pragma once

#include <memory>
#include <vector>

#include "gpu/sm.h"
#include "mem/cache.h"
#include "sim/clock.h"
#include "sim/context.h"

namespace sndp {

struct AuditSnapshot;
struct RunResult;

class Gpu final : public Tickable {
 public:
  // Throws std::invalid_argument when a tenant block can never be granted
  // its NDP buffer entries (see GpuShared).
  explicit Gpu(const SystemContext& ctx);

  // One SM clock edge: every SM in index order, the CTA dispatcher, then
  // the L2 side.
  void tick(Cycle cycle, TimePs now) override;
  // The earliest wake of the SMs, the dispatcher and the L2 side.
  TimePs next_work_ps() override;

  std::vector<std::unique_ptr<Sm>>& sms() { return sms_; }

  // Flush fast-forward-deferred per-cycle accounting (per-SM cycle stacks
  // and active counters) up to SM cycle `end_cycle`.  Idempotent and exact
  // mid-run (a sleeping SM's gap bucket is constant), so the Simulator
  // calls it at each epoch boundary before the snapshot, and once with the
  // SM domain's consumed-edge count before stats are read.
  void finalize(Cycle end_cycle);

  // End the epoch whose boundary is SM cycle `boundary`: roll every
  // tenant's governor, then finalize(boundary).  Returns tenant 0's roll.
  EpochRollInfo end_epoch(Cycle boundary);

  // Waits for every tenant's CTA queue to drain, not just tenant 0's
  // (DESIGN.md "Multi-tenant serving").
  bool idle() const;

  // Flow audit (src/obs/stats_audit.*): every SM's counters, the L2 slices'
  // outcomes and flow counters, the NDP buffer credits and capacities, the
  // per-tenant governors and splits, and the machine SM cycle stack's
  // bucket totals.
  void audit(AuditSnapshot& s) const;

  // End of run: every SM's report, then the `gpu.*`, governor 0's,
  // `bufmgr.*`, `wta.*` and `rocache.*` stats, `ipc` (from `r.sm_cycles`),
  // the machine SM cycle stack and the Fig. 8 stall counters taken from it,
  // the GPU's energy events and the SMs' active seconds, and on
  // multi-tenant runs the per-tenant results and stats (their names are the
  // caller's).  Throws std::logic_error when a completed run
  // (`r.completed`) left a WTA in flight (§4.1.1 page-migration safety).
  void report(RunResult& r) const;

 private:
  // L2 outcomes over all slices.
  std::uint64_t total_l2_hits() const;
  std::uint64_t total_l2_misses() const;
  // Per-tenant issued instructions, summed over SMs.
  std::uint64_t issued_by_tenant(unsigned t) const;
  // Machine-wide SM stack: per-tenant bucket sums over all SMs, with each
  // SM's post-last-activity no-warp tail re-billed from dispatch-idle to
  // drained.  audit() builds it once per snapshot, report() once.
  SmCycleStack cycle_stack() const;
  void dispatch();
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
  GpuShared shared_;  // lent to every SM
  std::vector<std::unique_ptr<Sm>> sms_;

  struct L2Slice {
    std::unique_ptr<Cache> cache;
    TimedChannel<Packet> in;      // cache-touching + bulk traffic, 2/cycle
    TimedChannel<Packet> urgent;  // pass-through offload commands (no L2 work)
  };
  std::vector<L2Slice> slices_;

  // Per-tenant CTA queues (size 1 on the single-tenant path, where the
  // dispatch order reduces exactly to the classic scalar dispatcher).
  // next_cta_t_[t] is also tenant t's dispatched count, the kWeightedShare
  // arbiter's share.
  std::vector<unsigned> next_cta_t_;
  unsigned ctas_left_ = 0;   // sum over tenants of (num_ctas - next)
  unsigned dispatch_rr_ = 0; // SM round-robin pointer
  unsigned tenant_rr_ = 0;   // kRoundRobin arbiter pointer
  std::vector<std::uint64_t> t_l2_hits_, t_l2_misses_, t_l2_merged_;

  // Fast-forward state (the wakes the SMs raise live in shared_).
  // `dispatch_blocked_` latches "a full dispatcher scan assigned nothing"
  // (such scans are side-effect-free, so skipping them is exact) until a
  // CTA completion raises `shared_.dispatch_wake`.
  bool fast_forward_ = false;
  bool dispatch_blocked_ = false;

  std::uint64_t invals_received_ = 0;
  std::uint64_t rdf_l2_probes_ = 0;
  std::uint64_t rdf_l2_hits_ = 0;
  std::uint64_t l2_read_reqs_ = 0;   // kMemRead packets retired at a slice
  std::uint64_t mem_read_resps_ = 0; // kMemReadResp fills received
  std::uint64_t rx_packets_ = 0;     // all packets ejected from the NoC here
  // Energy events (report() adds them to RunResult::counters).
  std::uint64_t l2_accesses_ = 0;
  std::uint64_t wire_bytes_ = 0;     // on-die data movement (SM <-> L2 <-> links)
};

}  // namespace sndp
