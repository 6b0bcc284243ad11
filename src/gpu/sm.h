// Streaming Multiprocessor: in-order SIMT core with a greedy-then-oldest
// warp scheduler, per-warp scoreboards, a coalescing LSU in front of a
// write-through L1, and the GPU side of the partitioned execution protocol
// (offload decision, packet generation, pending/ready NDP packet buffers).
//
// Stall taxonomy follows the paper's Fig. 8: every cycle with no issued
// instruction is classified as Dependency Stall (some warp's operands were
// not ready), ExecUnitBusy (some warp was ready but its execution resource
// was occupied), or Warp Idle (no warp had a valid instruction — includes
// warps blocked on barriers or on offload ACKs).
#pragma once

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.h"
#include "ctrl/governor.h"
#include "gpu/buffer_manager.h"
#include "gpu/coalescer.h"
#include "gpu/warp.h"
#include "gpu/wta_tracker.h"
#include "mem/cache.h"
#include "ndp/ro_cache.h"
#include "obs/cycle_stack.h"
#include "sim/context.h"
#include "sim/timed_channel.h"

namespace sndp {

struct AuditSnapshot;
struct RunResult;

inline constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;

// Which machine level served a line fill (cycle-stack profiler): an L2
// slice hit, the line's home-stack DRAM, or a remote stack.  Rides the
// fill channel so dep-pending stall cycles can be re-billed to the level
// that actually served the blocking load.
enum class LineServe : std::uint8_t { kL2, kDramLocal, kDramRemote };

// Per-tenant CTA retirement progress, owned by the Gpu and updated by the
// SMs at CTA completion.  `finish_cycle` is the SM cycle at which the
// tenant's last CTA retired — the per-tenant runtime used for slowdown /
// fairness reporting (deterministic and fast-forward-invariant: CTA
// completion happens at an issued EXIT, never on a skipped edge).
struct TenantCtaProgress {
  unsigned total = 0;
  unsigned done = 0;
  Cycle finish_cycle = 0;
};

// The GPU side of the NDP protocol, owned by the Gpu and lent to each of
// its SMs at construction: the §4.3 credit-based buffer manager, the
// §4.1.1 in-flight WTA counters, the §7.1 read-only-cache mirror and one
// §7.2 offload governor per tenant, plus the entries the SMs keep current
// for the Gpu's dispatcher and L2 side.
struct GpuShared {
  // Throws std::invalid_argument when a tenant's block needs more buffer
  // entries than one tenant may ever hold: it would never be granted, and
  // its warps would poll for credits until the valve.
  explicit GpuShared(const SystemContext& ctx);

  NdpBufferManager bufmgr;
  WtaInflightTracker wta;
  RoCacheMirror ro_cache;
  // One per tenant: each climbs its own offload ratio from its own
  // completion signal, so one tenant's phase change cannot contaminate
  // another's epoch stats.
  std::vector<std::unique_ptr<OffloadGovernor>> governors;
  std::vector<TenantCtaProgress> progress;  // one per tenant
  // Fast-forward wake state.  `egress_front[i]` is the ready time of SM i's
  // egress head, kTimeNever while that queue is empty; each SM keeps its
  // own entry current, and its egress pushes lower `l2_wake`, the earliest
  // pending delivery among SM egress and slice queues.  A CTA completion
  // raises `dispatch_wake` to force a dispatcher rescan.
  std::vector<TimePs> egress_front;
  TimePs l2_wake = 0;
  bool dispatch_wake = false;
};

class Sm {
 public:
  Sm(SmId id, const SystemContext& ctx, GpuShared& shared);

  // One SM clock edge; the Gpu ticks its SMs in index order.
  void tick(Cycle cycle, TimePs now);

  // Fast-forward wake hint: 0/now while the SM can make progress on its
  // own; otherwise the earliest of (a) an ingress-channel delivery, (b) a
  // parked warp's unpark cycle (ALU/SFU/LSU frees up, a timed scoreboard
  // entry becomes readable); never while fully drained.  Maintained at the
  // end of tick() and lowered by deliver_line / deliver_ofld_ack /
  // assign_cta / on_egress_pop.
  TimePs next_work_ps() const { return wake_ps_; }

  // The GPU drained a packet from out(): an egress-full warp may now be
  // issuable, so the structure-parked warps re-arm and a sleeping SM
  // retries them at its next edge.  With none parked, the drain cannot
  // change any warp's next attempt, so the SM is not woken.  It also
  // refreshes this SM's egress-front entry.  Whoever pops out() must call
  // this.
  void on_egress_pop(TimePs now) {
    shared_.egress_front[id_] = out_.empty() ? kTimeNever : out_.front_ready_ps();
    if (struct_park_ == 0) return;
    unpark_structural();
    if (now < wake_ps_) wake_ps_ = now;
  }

  // Flush skipped-cycle bucket/active counters up to `end_cycle`; called
  // with the SM domain's consumed-edge count before stats are read, and at
  // epoch boundaries.  Idempotent.
  void finalize(Cycle end_cycle);

  // --- CTA management (driven by the Gpu's dispatcher) --------------------
  bool can_accept_cta(unsigned tenant = 0) const;
  void assign_cta(unsigned cta_id, unsigned tenant = 0);
  // True while any warp is live or memory/NDP operations are in flight.
  bool busy() const;

  // --- Ingress (driven by the Gpu core) ------------------------------------
  // A cache line this SM requested is available (L2 hit or DRAM fill).
  void deliver_line(Addr line_addr, TimePs ready_ps,
                    LineServe serve = LineServe::kDramLocal);
  void deliver_ofld_ack(Packet p, TimePs ready_ps);
  void invalidate_line(Addr line_addr) { l1_.invalidate(line_addr); }

  // --- Egress ---------------------------------------------------------------
  // Packets toward the L2 slices / link ports (drained by the Gpu core).
  TimedChannel<Packet>& out() { return out_; }

  SmId id() const { return id_; }
  const Cache& l1() const { return l1_; }

  // Adds this SM's energy events to `r.counters` and, for the first four
  // SMs, its `smN.*` stats to `r.stats`.
  void report(RunResult& r) const;

  // Flow audit (src/obs/stats_audit.*): add this SM's issue, offload, RDF
  // probe and L1 counters to `s`, and append its cycle-stack entry.
  void audit(AuditSnapshot& s) const;

  // Per-tenant issued-instruction counts (size = ctx.num_tenants(); index 0
  // is the whole SM on the single-tenant path).
  const std::vector<std::uint64_t>& issued_by_tenant() const { return issued_by_tenant_; }

  // --- Cycle-stack profiler (src/obs/cycle_stack.*) ------------------------
  // Per-tenant bucket counters: every SM cycle before the accounting
  // watermark (next_expected_cycle_) sits in exactly one bucket.
  const SmCycleStack& cycle_stack() const { return cyc_; }
  // The no-warp cycles after the SM's last activity (the drained tail); the
  // ones before it stay dispatch idle.
  std::uint64_t no_warp_drained_cycles() const {
    return dispatch_idle_cycles() - no_warp_snapshot_;
  }
  // Fig. 8 no-issue counters: each is the bucket group that refines it.
  std::uint64_t stall_dependency() const { return sm_group_total(cyc_, SmBucketGroup::kDep); }
  std::uint64_t stall_exec_busy() const { return sm_group_total(cyc_, SmBucketGroup::kExecBusy); }
  std::uint64_t stall_warp_idle() const { return sm_group_total(cyc_, SmBucketGroup::kWarpIdle); }

  // Kept apart from the stack: the audit and Gpu::report read them.
  std::uint64_t issued_instrs = 0;
  std::uint64_t active_cycles = 0;   // cycles with at least one valid warp

 private:
  struct LoadTracker {
    bool valid = false;
    unsigned warp = 0;
    std::uint8_t dst = kNoReg;
    unsigned lines_pending = 0;
  };
  struct CtaSlot {
    bool valid = false;
    unsigned cta_id = 0;
    unsigned num_warps = 0;
    unsigned at_barrier = 0;
    unsigned finished = 0;
    unsigned tenant = 0;
  };

  // kExecBusy is a busy unit or a full egress queue, MSHR file or tracker
  // pool; kCreditWait is NDP pending-buffer credit starvation.
  enum class IssueOutcome { kIssued, kDependency, kExecBusy, kCreditWait };

  // "No self-resolve cycle": the blocked warp can only be unblocked by an
  // external event (memory fill, ACK, egress drain).
  static constexpr Cycle kCycleNever = ~Cycle{0};
  static_assert(kCycleNever == Scoreboard::kPendingLoad);

  // One scheduling attempt for `warp` at this cycle.
  IssueOutcome try_issue(Warp& warp, Cycle cycle, TimePs now);
  void execute_alu_warp(Warp& warp, const Instr& in, Cycle cycle);
  IssueOutcome issue_mem_inline(Warp& warp, const Instr& in, Cycle cycle, TimePs now);
  IssueOutcome issue_mem_offload(Warp& warp, const Instr& in, Cycle cycle, TimePs now);
  void begin_offload(Warp& warp, const Instr& in, Cycle cycle, TimePs now);
  void end_offload_or_inline(Warp& warp, Cycle cycle, TimePs now);
  void handle_branch(Warp& warp, const Instr& in);
  void handle_barrier(Warp& warp);
  void handle_exit(Warp& warp);
  void set_state(Warp& warp, WarpState state);
  void park(unsigned slot, SlotMask& set, Cycle until);
  void unpark(SlotMask b) {
    dep_park_ &= ~b;
    busy_park_ &= ~b;
    struct_park_ &= ~b;
  }
  void unpark_structural() {
    busy_park_ &= ~struct_park_;
    struct_park_ = 0;
  }
  void unpark_due(Cycle cycle);
  unsigned first_in_gto(SlotMask m) const {
    return (m & slot_bit(greedy_ptr_)) != 0 ? greedy_ptr_ : lowest_slot(m);
  }
  void complete_tracker(unsigned idx, Cycle cycle, LineServe serve);
  void retry_credit_grants(TimePs now);
  const CoalesceCache& coalesced(Warp& w, const Instr& in, LaneMask lanes);
  void emit_or_hold(Warp& warp, Packet&& p, TimePs now);
  void push_out(Packet&& p, TimePs ready_ps);
  void apply_gap(Cycle gap);
  void classify_stall_cycle(Cycle cycle, SlotMask credit_wait);
  void record_no_warp_gap();
  void add_recorded_cycles(Cycle n);
  void flush_pending_dep(Warp& w);
  std::uint64_t dispatch_idle_cycles() const {
    return cyc_.rows[cyc_.shared_row()][static_cast<std::size_t>(SmBucket::kDispatchIdle)];
  }
  unsigned alloc_tracker();

  SmId id_;
  const SystemContext& ctx_;
  GpuShared& shared_;
  const SmConfig& cfg_;
  Cache l1_;
  Coalescer coalescer_;

  std::vector<Warp> warps_;
  std::vector<CtaSlot> ctas_;
  std::vector<LoadTracker> trackers_;
  unsigned greedy_ptr_ = 0;  // GTO scheduler: last-issued warp first
  Cycle now_cycle_ = 0;      // current SM cycle

  // Functional scratchpad storage, keyed by (CTA slot << 48) | address.
  std::unordered_map<std::uint64_t, RegValue> shm_;

  // Execution-resource occupancy (cycle when the unit frees up).
  Cycle alu_busy_until_ = 0;
  Cycle sfu_busy_until_ = 0;
  Cycle lsu_busy_until_ = 0;

  // Slot-indexed activity masks, bit i for warps_[i] (max_warps <= 64 by
  // SystemConfig::validate).  set_state() keeps the first two in step with
  // Warp::state: live (not kInvalid) and kReady warps.  grant_mask_ holds
  // the warps whose offload context still waits for its credit grant.
  SlotMask live_mask_ = 0;
  SlotMask ready_mask_ = 0;
  SlotMask grant_mask_ = 0;

  // Parked warps (DESIGN.md "Warp parking"): kReady warps whose last issue
  // attempt failed, kept out of the issue scan until the one event that
  // can change the attempt's outcome re-arms them.  dep_park_: failed on
  // the scoreboard; busy_park_: on a busy unit or a full structure;
  // struct_park_ (within busy_park_): on egress, MSHRs or trackers.
  // unpark_cycle_[slot] is when a timed park re-arms (kCycleNever for the
  // event-only ones); unpark_min_ never exceeds its minimum over parked
  // warps (a stale, early value costs one no-op wake).
  SlotMask dep_park_ = 0;
  SlotMask busy_park_ = 0;
  SlotMask struct_park_ = 0;
  std::vector<Cycle> unpark_cycle_;
  Cycle unpark_min_ = kCycleNever;
  unsigned free_cta_slots_ = 0;
  unsigned active_trackers_ = 0; // valid LoadTrackers (incremental, for busy())

  // Fast-forward state (see next_work_ps / finalize).
  bool fast_forward_ = false;
  TimePs wake_ps_ = 0;
  Cycle next_expected_cycle_ = 0;
  // Set by every kDependency / kExecBusy return in try_issue: the cycle at
  // which a retry could succeed (a timed scoreboard entry resolves, a unit
  // frees up), or kCycleNever when only an event re-arms the warp (its
  // pending load's fill; egress/MSHR/tracker exhaustion).
  Cycle retry_cycle_ = 0;
  std::vector<std::uint64_t> issued_by_tenant_;

  struct LineFill {
    Addr line_addr = 0;
    LineServe serve = LineServe::kDramLocal;
  };

  TimedChannel<Packet> out_;           // "ready packet buffer" toward the GPU core
  TimedChannel<LineFill> line_fills_;  // lines arriving from L2/DRAM
  TimedChannel<Packet> acks_in_;       // offload ACKs
  unsigned pending_count_ = 0;     // held NDP packets across all warps

  std::uint64_t next_instance_ = 1;  // offload instance ids (unique per SM)

  // Extra stats.
  std::uint64_t offloads_started_ = 0;
  std::uint64_t inline_blocks_ = 0;
  std::uint64_t ofld_acks_ = 0;           // NSU completion ACKs drained
  std::uint64_t inline_block_instrs_ = 0; // mirrors governor on_block_complete
  std::uint64_t acked_block_instrs_ = 0;  // mirrors governor on_block_complete
  std::uint64_t rdf_packets_ = 0;
  std::uint64_t rdf_l1_hits_ = 0;
  std::uint64_t wta_packets_ = 0;
  std::uint64_t pending_full_stalls_ = 0;
  // Energy events (report() adds them to RunResult::counters).
  std::uint64_t lane_ops_ = 0;     // executed instructions x active lanes
  std::uint64_t l1_accesses_ = 0;

  // --- Cycle-stack profiler state. -----------------------------------------
  SmCycleStack cyc_;  // rows: tenants + shared; no-warp accrues in the
                      // shared kDispatchIdle bucket (drained split on read)
  std::uint64_t no_warp_snapshot_ = 0;  // dispatch-idle cycles at last active tick
  // Retroactive dep attribution: cycles parked in kDepPending per warp, and
  // the worst serve class seen among that warp's fills since its last issue.
  std::vector<std::uint64_t> pending_dep_cycles_;
  std::vector<std::uint8_t> warp_worst_serve_;
  // What each cycle the SM sleeps through counts as in naive stepping: the
  // bucket (and row, and parked warp) of the cycle the sleep decision froze,
  // replayed by apply_gap.  kNoGap while the SM cannot sleep.
  static constexpr SmBucket kNoGap = SmBucket::kCount;
  SmBucket gap_bucket_ = kNoGap;
  unsigned gap_row_ = 0;
  unsigned gap_pending_warp_ = kInvalidId;
};

}  // namespace sndp
