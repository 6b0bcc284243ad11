#include "gpu/sm.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "ctrl/governor.h"
#include "gpu/buffer_manager.h"
#include "gpu/wta_tracker.h"
#include "mem/address_map.h"
#include "memfunc/global_memory.h"
#include "ndp/ro_cache.h"
#include "obs/latency.h"
#include "obs/stats_audit.h"
#include "sim/simulator.h"

namespace sndp {

Sm::Sm(SmId id, const SystemContext& ctx)
    : id_(id),
      ctx_(ctx),
      cfg_(ctx.cfg->sm),
      l1_(ctx.cfg->sm.l1d, "l1"),
      coalescer_(cfg_.l1d.line_bytes) {
  warps_.resize(cfg_.max_warps());
  for (unsigned i = 0; i < warps_.size(); ++i) warps_[i].id = i;
  ctas_.resize(cfg_.max_ctas);
  // One tracker per potential outstanding load: warps x 1 is enough for an
  // in-order core, with slack for scheduling overlap.
  trackers_.resize(cfg_.max_warps() * 2);
  free_cta_slots_ = cfg_.max_ctas;
  fast_forward_ = ctx.cfg->fast_forward;
  issued_by_tenant_.resize(ctx.num_tenants(), 0);
  cyc_.init(ctx.num_tenants());
  pending_dep_cycles_.assign(cfg_.max_warps(), 0);
  warp_worst_serve_.assign(cfg_.max_warps(), 0);
  unpark_cycle_.assign(cfg_.max_warps(), kCycleNever);
}

bool Sm::can_accept_cta(unsigned tenant) const {
  const auto free_warps =
      static_cast<unsigned>(warps_.size()) - static_cast<unsigned>(std::popcount(live_mask_));
  return free_cta_slots_ > 0 && free_warps >= ctx_.launch_of(tenant).warps_per_cta();
}

void Sm::set_state(Warp& w, WarpState state) {
  w.state = state;
  const SlotMask b = slot_bit(w.id);
  live_mask_ = state == WarpState::kInvalid ? live_mask_ & ~b : live_mask_ | b;
  ready_mask_ = state == WarpState::kReady ? ready_mask_ | b : ready_mask_ & ~b;
  unpark(b);
}

// Take a warp whose issue attempt failed out of the scan until `until`
// (kCycleNever: until an event re-arms it).
void Sm::park(unsigned slot, SlotMask& set, Cycle until) {
  set |= slot_bit(slot);
  unpark_cycle_[slot] = until;
  unpark_min_ = std::min(unpark_min_, until);
}

// Re-arm the parked warps whose unpark cycle has come, and recompute the
// minimum over the rest.
void Sm::unpark_due(Cycle cycle) {
  Cycle next = kCycleNever;
  for (SlotMask m = dep_park_ | busy_park_; m != 0; m &= m - 1) {
    const unsigned i = lowest_slot(m);
    if (unpark_cycle_[i] <= cycle) {
      unpark(slot_bit(i));
    } else {
      next = std::min(next, unpark_cycle_[i]);
    }
  }
  unpark_min_ = next;
}

void Sm::assign_cta(unsigned cta_id, unsigned tenant) {
  unsigned slot = kInvalidId;
  for (unsigned i = 0; i < ctas_.size(); ++i) {
    if (!ctas_[i].valid) {
      slot = i;
      break;
    }
  }
  if (slot == kInvalidId) throw std::logic_error("Sm: assign_cta with no free slot");
  const LaunchParams& lp = ctx_.launch_of(tenant);
  CtaSlot& cta = ctas_[slot];
  cta = CtaSlot{true, cta_id, lp.warps_per_cta(), 0, 0, tenant};

  unsigned created = 0;
  const SlotMask free = low_slots(static_cast<unsigned>(warps_.size())) & ~live_mask_;
  for (SlotMask m = free; m != 0 && created < cta.num_warps; m &= m - 1) {
    Warp& w = warps_[lowest_slot(m)];
    const WarpId wid = w.id;
    w = Warp{};
    w.id = wid;
    w.cta_slot = slot;
    w.cta_id = cta_id;
    w.tenant = tenant;
    set_state(w, WarpState::kReady);
    w.pc = 0;
    const unsigned warp_in_cta = created;
    LaneMask active = 0;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      const unsigned tid_in_cta = warp_in_cta * kWarpWidth + lane;
      if (tid_in_cta >= lp.cta_threads) break;
      active |= LaneMask{1} << lane;
      ThreadCtx& t = w.lanes[lane];
      t = ThreadCtx{};
      t.regs[0] = static_cast<RegValue>(cta_id) * lp.cta_threads + tid_in_cta;  // R0: gtid
      t.regs[1] = lp.total_threads();                                           // R1
      t.regs[2] = cta_id;                                                       // R2
      t.regs[3] = tid_in_cta;                                                   // R3
    }
    w.active = active;
    ++created;
  }
  if (created != cta.num_warps) throw std::logic_error("Sm: not enough free warp slots");
  --free_cta_slots_;
  wake_ps_ = 0;  // new warps: the issue stage has work next edge
}

bool Sm::busy() const {
  return live_mask_ != 0 || active_trackers_ != 0 ||
         !out_.empty() || !line_fills_.empty() || !acks_in_.empty() || pending_count_ != 0;
}

void Sm::deliver_line(Addr line_addr, TimePs ready_ps, LineServe serve) {
  line_fills_.push(LineFill{line_addr, serve}, ready_ps);
  const TimePs t = line_fills_.back_ready_ps();
  if (t < wake_ps_) wake_ps_ = t;
}

void Sm::deliver_ofld_ack(Packet p, TimePs ready_ps) {
  acks_in_.push(std::move(p), ready_ps);
  const TimePs t = acks_in_.back_ready_ps();
  if (t < wake_ps_) wake_ps_ = t;
}

unsigned Sm::alloc_tracker() {
  for (unsigned i = 0; i < trackers_.size(); ++i) {
    if (!trackers_[i].valid) return i;
  }
  return kInvalidId;
}

void Sm::complete_tracker(unsigned idx, Cycle cycle, LineServe serve) {
  LoadTracker& t = trackers_.at(idx);
  if (!t.valid || t.lines_pending == 0) throw std::logic_error("Sm: bad tracker completion");
  // Remember the deepest level that served any of this warp's fills; the
  // warp's parked dep-pending cycles are re-billed to it at next issue.
  auto& worst = warp_worst_serve_[t.warp];
  worst = std::max(worst, static_cast<std::uint8_t>(serve));
  if (--t.lines_pending > 0) return;
  Warp& w = warps_.at(t.warp);
  w.scoreboard.complete_load(t.dst, cycle);
  unpark(slot_bit(t.warp));
  if (w.outstanding_loads == 0) throw std::logic_error("Sm: load count underflow");
  --w.outstanding_loads;
  t.valid = false;
  --active_trackers_;
}

const CoalesceCache& Sm::coalesced(Warp& w, const Instr& in, LaneMask lanes) {
  CoalesceCache& cc = w.coalesce_cache;
  if (!cc.valid_for(w.pc, w.issue_stamp)) {
    cc.pc = w.pc;
    cc.stamp = w.issue_stamp;
    cc.lanes = lanes;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (lanes & (LaneMask{1} << lane)) cc.addrs[lane] = effective_address(in, w.lanes[lane]);
    }
    cc.lines = coalescer_.coalesce(cc.addrs, lanes, in.mem_width);
  }
  return cc;
}

void Sm::push_out(Packet&& p, TimePs ready_ps) {
  out_.push(std::move(p), ready_ps);
  if (l2_wake_ != nullptr) {
    const TimePs t = out_.back_ready_ps();
    if (t < *l2_wake_) *l2_wake_ = t;
  }
}

void Sm::emit_or_hold(Warp& warp, Packet&& p, TimePs now) {
  GpuOffloadCtx& ctx = *warp.ofld;
  if (ctx.credits_granted) {
    push_out(std::move(p), now);
  } else {
    ctx.held.push_back(std::move(p));
    ++pending_count_;
  }
}

void Sm::retry_credit_grants(TimePs now) {
  for (SlotMask m = grant_mask_; m != 0; m &= m - 1) {
    Warp& w = warps_[lowest_slot(m)];
    GpuOffloadCtx& ctx = *w.ofld;
    if (ctx.target == kInvalidId) continue;
    if (!ctx_.bufmgr->try_reserve(ctx.target, ctx.info->num_loads, ctx.info->num_stores,
                                  w.tenant)) {
      continue;
    }
    ctx.credits_granted = true;
    grant_mask_ &= ~slot_bit(w.id);
    for (Packet& p : ctx.held) {
      // The target NSU was unknown when these were generated.
      p.target_nsu = static_cast<std::uint8_t>(ctx.target);
      if (p.type == PacketType::kOfldCmd || p.type == PacketType::kWta ||
          p.type == PacketType::kRdfResp) {
        p.dst_node = static_cast<std::uint16_t>(ctx.target);
      }
      // Pending-buffer residency (waiting for the credit grant) is queueing.
      ctx_.latency->queue_hop(p, now, "credit_grant", ctx_.cfg->num_hmcs);
      push_out(std::move(p), now);
    }
    pending_count_ -= static_cast<unsigned>(ctx.held.size());
    ctx.held.clear();
  }
}

void Sm::apply_gap(Cycle gap) {
  // Replay what each skipped cycle would have counted under naive stepping.
  // The state a sleeping SM froze in is constant across the gap, so the
  // bucket recorded at the sleep decision replays verbatim.
  if (gap_bucket_ == kNoGap) return;
  if (gap_bucket_ != SmBucket::kDispatchIdle) active_cycles += gap;
  add_recorded_cycles(gap);
}

// Account `n` cycles to the recorded bucket and row, parking dep-pending
// cycles on their warp.
void Sm::add_recorded_cycles(Cycle n) {
  cyc_.add(gap_row_, static_cast<std::size_t>(gap_bucket_), n);
  if (gap_pending_warp_ != kInvalidId) pending_dep_cycles_[gap_pending_warp_] += n;
}

// Slept cycles with no resident warp: dispatch idle, on the shared row.
void Sm::record_no_warp_gap() {
  gap_bucket_ = SmBucket::kDispatchIdle;
  gap_row_ = cyc_.shared_row();
  gap_pending_warp_ = kInvalidId;
}

// Pick the bucket (and owning tenant row) for one no-issue cycle with at
// least one valid warp, in the Fig. 8 priority: dependency before exec-busy
// before warp-idle.  With nothing issued every kReady warp is parked or in
// `credit_wait`, so the first blocked warp in GTO order (the one a full
// retry scan would meet first) comes from those masks.  The result is
// stored in gap_{bucket,row,pending_warp}_ so a sleep through the same
// state replays it.
void Sm::classify_stall_cycle(Cycle cycle, SlotMask credit_wait) {
  gap_pending_warp_ = kInvalidId;
  const SlotMask busy = busy_park_ | credit_wait;
  if (dep_park_ != 0) {
    const unsigned dep_warp = first_in_gto(dep_park_);
    const Warp& w = warps_[dep_warp];
    gap_row_ = w.tenant;
    const Instr& in = ctx_.image_of(w.tenant)->gpu.at(w.pc);
    if (w.scoreboard.blocked_on_pending_load(in)) {
      // In-flight load: park the cycle; re-billed to the serving level
      // (L2 / local DRAM / remote DRAM) when the warp issues again.
      gap_bucket_ = SmBucket::kDepPending;
      gap_pending_warp_ = dep_warp;
    } else {
      gap_bucket_ = w.scoreboard.blocking_source(in, cycle) == DepSource::kL1
                        ? SmBucket::kDepL1
                        : SmBucket::kDepPipe;
    }
  } else if (busy != 0) {
    const unsigned busy_warp = first_in_gto(busy);
    gap_row_ = warps_[busy_warp].tenant;
    gap_bucket_ = (credit_wait & slot_bit(busy_warp)) != 0 ? SmBucket::kCreditWait
                                                           : SmBucket::kExecBusy;
  } else {
    // Warp idle: attribute to the first valid warp in slot order, with any
    // warp parked on an offload ACK taking precedence over one parked at a
    // barrier, and either over a finished (draining) warp.
    const Warp* first = nullptr;
    const Warp* ack = nullptr;
    const Warp* barrier = nullptr;
    for (SlotMask m = live_mask_; m != 0; m &= m - 1) {
      const Warp& w = warps_[lowest_slot(m)];
      if (first == nullptr) first = &w;
      if (w.state == WarpState::kWaitAck) {
        ack = &w;
        break;
      }
      if (barrier == nullptr && w.state == WarpState::kWaitBarrier) barrier = &w;
    }
    if (ack != nullptr) {
      gap_bucket_ = SmBucket::kOfldParked;
      gap_row_ = ack->tenant;
    } else if (barrier != nullptr) {
      gap_bucket_ = SmBucket::kBarrier;
      gap_row_ = barrier->tenant;
    } else {
      gap_bucket_ = SmBucket::kWarpDrain;
      gap_row_ = first != nullptr ? first->tenant : cyc_.shared_row();
    }
  }
  add_recorded_cycles(1);
}

// Re-bill a warp's parked dep-pending cycles to the deepest level that
// served its fills.  Called at the warp's next issue (the stall just ended)
// — a sum-preserving move inside the warp's tenant row.
void Sm::flush_pending_dep(Warp& w) {
  std::uint64_t& parked = pending_dep_cycles_[w.id];
  if (parked == 0) return;
  SmBucket to = SmBucket::kDepL2;
  switch (static_cast<LineServe>(warp_worst_serve_[w.id])) {
    case LineServe::kL2: to = SmBucket::kDepL2; break;
    case LineServe::kDramLocal: to = SmBucket::kDepDramLocal; break;
    case LineServe::kDramRemote: to = SmBucket::kDepDramRemote; break;
  }
  cyc_.move(w.tenant, static_cast<std::size_t>(SmBucket::kDepPending),
            static_cast<std::size_t>(to), parked);
  parked = 0;
  warp_worst_serve_[w.id] = 0;
}

void Sm::finalize(Cycle end_cycle) {
  if (end_cycle > next_expected_cycle_) {
    apply_gap(end_cycle - next_expected_cycle_);
    next_expected_cycle_ = end_cycle;
  }
}

void Sm::tick(Cycle cycle, TimePs now) {
  if (fast_forward_ && wake_ps_ > now) return;  // asleep; counters deferred
  if (cycle > next_expected_cycle_) apply_gap(cycle - next_expected_cycle_);
  next_expected_cycle_ = cycle + 1;
  now_cycle_ = cycle;

  // Line fills (L2 hits and DRAM fills) wake trackers through the L1 MSHRs;
  // each frees MSHRs or trackers, so the structure-parked warps re-arm.
  while (auto line = line_fills_.pop_ready(now)) {
    unpark_structural();
    for (std::uint64_t token : l1_.fill(line->line_addr)) {
      complete_tracker(static_cast<unsigned>(token), cycle, line->serve);
    }
  }

  // Offload acknowledgments.
  while (auto ack = acks_in_.pop_ready(now)) {
    Warp& w = warps_.at(ack->oid.warp);
    if (!w.ofld || w.ofld->instance != ack->oid.instance || w.state != WarpState::kWaitAck) {
      throw std::logic_error("Sm: stray offload ACK");
    }
    const OffloadBlockInfo& info = *w.ofld->info;
    for (std::size_t r = 0; r < ack->reg_ids.size(); ++r) {
      const unsigned reg = ack->reg_ids[r];
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (w.active & (LaneMask{1} << lane)) {
          w.lanes[lane].regs[reg] = ack->reg_values[r * kWarpWidth + lane];
        }
      }
      w.scoreboard.set_reg_ready_at(reg, cycle);
    }
    ++ofld_acks_;
    acked_block_instrs_ += info.body_size();
    ctx_.governor_of(w.tenant)->on_block_complete(info.body_size());
    w.ofld.reset();
    w.cur_block = kNoBlock;
    set_state(w, WarpState::kReady);
    ++w.pc;  // past OFLD.END
  }

  retry_credit_grants(now);

  // --- Issue stage (GTO: greedy warp first, then oldest by slot id). -------
  const bool any_warp = live_mask_ != 0;
  if (any_warp) {
    ++active_cycles;
    // The no-warp total is constant across any contiguous active period, so
    // refreshing the snapshot at every active tick is fast-forward-invariant
    // and leaves it holding the pre-last-activity share (dispatch idle).
    no_warp_snapshot_ = dispatch_idle_cycles();
  } else {
    cyc_.add(cyc_.shared_row(), static_cast<std::size_t>(SmBucket::kDispatchIdle), 1);
  }

  bool issued = false;
  SlotMask credit_wait = 0;  // warps refused pending-buffer credit this edge
  if (cycle >= unpark_min_) unpark_due(cycle);

  // Only armed warps are tried: kReady and not parked.  A failed attempt
  // parks that one warp (a credit-starved one stays armed, since each of
  // its attempts counts a stall) and sets no other warp's bit, so the scan
  // can walk a snapshot.
  auto consider = [&](Warp& w) -> bool {
    switch (try_issue(w, cycle, now)) {
      case IssueOutcome::kIssued:
        issued = true;
        ++issued_instrs;
        ++issued_by_tenant_[w.tenant];
        ++w.issue_stamp;  // invalidates the warp's coalesce memo
        cyc_.add(w.tenant, static_cast<std::size_t>(SmBucket::kIssue), 1);
        flush_pending_dep(w);
        return true;
      case IssueOutcome::kDependency:
        park(w.id, dep_park_, retry_cycle_);
        return false;
      case IssueOutcome::kExecBusy:
        park(w.id, busy_park_, retry_cycle_);
        if (retry_cycle_ == kCycleNever) struct_park_ |= slot_bit(w.id);
        return false;
      case IssueOutcome::kCreditWait:
        credit_wait |= slot_bit(w.id);
        return false;
    }
    return false;
  };

  const SlotMask armed = ready_mask_ & ~(dep_park_ | busy_park_);
  if ((armed & slot_bit(greedy_ptr_)) != 0 && consider(warps_[greedy_ptr_])) {
    // keep greedy_ptr_
  } else {
    for (SlotMask m = armed & ~slot_bit(greedy_ptr_); m != 0 && !issued; m &= m - 1) {
      const unsigned i = lowest_slot(m);
      if (consider(warps_[i])) greedy_ptr_ = i;
    }
  }

  if (!issued && any_warp) classify_stall_cycle(cycle, credit_wait);

  // Decide whether the SM can sleep (the hint is computed the same way in
  // both stepping modes: naive stepping never reads it, and one
  // mode-independent path keeps the SM free of a stepping-mode branch).
  // It can whenever nothing issued and no credit grant is being polled:
  // every kReady warp is then parked, and stays blocked until either its
  // unpark cycle (unpark_min_: exec unit frees, timed scoreboard entry
  // resolves) or an external event that lowers wake_ps_ (line fill, ACK,
  // egress drain).  Each slept cycle then counts as this one: the stall
  // bucket classify_stall_cycle recorded, or dispatch idle when no warp is
  // resident.
  if (!busy()) {
    // Fully drained (the last warp may have exited this very cycle): only a
    // new CTA re-arms the SM, and assign_cta lowers the hint directly.
    record_no_warp_gap();
    wake_ps_ = kTimeNever;
    return;
  }
  wake_ps_ = now;  // default: busy at the next edge
  if (issued || grant_mask_ != 0) {
    gap_bucket_ = kNoGap;
    return;
  }
  // Busy (trackers / egress draining) but no resident warp.
  if (!any_warp) record_no_warp_gap();
  TimePs wake = kTimeNever;
  if (!line_fills_.empty()) wake = std::min(wake, line_fills_.front_ready_ps());
  if (!acks_in_.empty()) wake = std::min(wake, acks_in_.front_ready_ps());
  if (unpark_min_ != kCycleNever) {
    wake = std::min(wake, tick_time_ps(unpark_min_, ctx_.cfg->clocks.sm_khz));
  }
  wake_ps_ = wake;
}

Sm::IssueOutcome Sm::try_issue(Warp& w, Cycle cycle, TimePs now) {
  const Instr& in = ctx_.image_of(w.tenant)->gpu.at(w.pc);

  if (!w.scoreboard.can_issue(in, cycle)) {
    retry_cycle_ = w.scoreboard.ready_cycle(in);  // kCycleNever on a pending load
    return IssueOutcome::kDependency;
  }

  // @NSU instructions are replaced by NOPs on the GPU while the block is
  // offloaded (duplicated address-calculation instructions still run here).
  if (w.ofld && in.on_nsu && !in.addr_calc) {
    ++w.pc;
    lane_ops_ += 1;  // the NOP still flows down the pipe
    return IssueOutcome::kIssued;
  }

  switch (in.op) {
    case Opcode::kNop:
      ++w.pc;
      return IssueOutcome::kIssued;

    case Opcode::kBra:
      handle_branch(w, in);
      return IssueOutcome::kIssued;

    case Opcode::kBar:
      handle_barrier(w);
      return IssueOutcome::kIssued;

    case Opcode::kExit:
      handle_exit(w);
      return IssueOutcome::kIssued;

    case Opcode::kOfldBeg:
      begin_offload(w, in, cycle, now);
      return IssueOutcome::kIssued;

    case Opcode::kOfldEnd:
      end_offload_or_inline(w, cycle, now);
      return IssueOutcome::kIssued;

    case Opcode::kLd:
    case Opcode::kSt:
      if (w.ofld) return issue_mem_offload(w, in, cycle, now);
      return issue_mem_inline(w, in, cycle, now);

    case Opcode::kShmLd:
    case Opcode::kShmSt:
    case Opcode::kLdc:
      return issue_mem_inline(w, in, cycle, now);

    default: {
      // ALU / SFU.
      const bool sfu = in.exec_class() == ExecClass::kSfu;
      Cycle& busy = sfu ? sfu_busy_until_ : alu_busy_until_;
      if (busy > cycle) {
        retry_cycle_ = busy;  // unit frees at a known cycle
        return IssueOutcome::kExecBusy;
      }
      busy = cycle + (sfu ? cfg_.sfu_ii : cfg_.alu_ii);
      execute_alu_warp(w, in, cycle);
      ++w.pc;
      return IssueOutcome::kIssued;
    }
  }
}

void Sm::execute_alu_warp(Warp& w, const Instr& in, Cycle cycle) {
  const LaneMask lanes = w.exec_mask(in);
  for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
    if (lanes & (LaneMask{1} << lane)) execute_alu(in, w.lanes[lane]);
  }
  const bool sfu = in.exec_class() == ExecClass::kSfu;
  const Cycle done = cycle + (sfu ? cfg_.sfu_latency : cfg_.alu_latency);
  if (in.writes_reg()) w.scoreboard.set_reg_ready_at(in.dst, done, DepSource::kPipe);
  if (in.writes_pred()) w.scoreboard.set_pred_ready_at(in.pred_dst, done);
  lane_ops_ += popcount_mask(lanes);
}

void Sm::handle_branch(Warp& w, const Instr& in) {
  const LaneMask lanes = w.exec_mask(in);
  if (lanes != 0 && lanes != w.active) {
    throw std::logic_error("Sm: divergent branch — kernels must use predication");
  }
  lane_ops_ += popcount_mask(w.active);
  w.pc = lanes == 0 ? w.pc + 1 : static_cast<unsigned>(in.target);
}

void Sm::handle_barrier(Warp& w) {
  CtaSlot& cta = ctas_.at(w.cta_slot);
  set_state(w, WarpState::kWaitBarrier);
  if (++cta.at_barrier < cta.num_warps) return;
  // Everyone arrived: release.
  cta.at_barrier = 0;
  for (SlotMask m = live_mask_; m != 0; m &= m - 1) {
    Warp& other = warps_[lowest_slot(m)];
    if (other.cta_slot == w.cta_slot && other.state == WarpState::kWaitBarrier) {
      set_state(other, WarpState::kReady);
      ++other.pc;
    }
  }
}

void Sm::handle_exit(Warp& w) {
  set_state(w, WarpState::kFinished);
  CtaSlot& cta = ctas_.at(w.cta_slot);
  if (++cta.finished < cta.num_warps) return;
  // CTA complete: free the slot and its warps.
  for (SlotMask m = live_mask_; m != 0; m &= m - 1) {
    Warp& other = warps_[lowest_slot(m)];
    if (other.cta_slot == w.cta_slot) {
      if (other.state != WarpState::kFinished) {
        throw std::logic_error("Sm: CTA completed with unfinished warp");
      }
      set_state(other, WarpState::kInvalid);
      other.ofld.reset();
    }
  }
  const unsigned tenant = cta.tenant;
  cta.valid = false;
  ++free_cta_slots_;
  if (tenant_progress_ != nullptr && tenant < tenant_progress_->size()) {
    TenantCtaProgress& tp = (*tenant_progress_)[tenant];
    if (++tp.done == tp.total) tp.finish_cycle = now_cycle_;
  }
  if (dispatch_wake_ != nullptr) *dispatch_wake_ = true;
}

void Sm::begin_offload(Warp& w, const Instr& in, Cycle /*cycle*/, TimePs now) {
  const auto block_id = static_cast<unsigned>(in.imm);
  const OffloadBlockInfo& info = ctx_.image_of(w.tenant)->blocks.at(block_id);
  w.cur_block = block_id;

  if (!ctx_.governor_of(w.tenant)->decide(info, w.active_count())) {
    ++inline_blocks_;
    ++w.pc;
    return;
  }

  ++offloads_started_;
  grant_mask_ |= slot_bit(w.id);
  w.ofld = std::make_unique<GpuOffloadCtx>();
  w.ofld->info = &info;
  w.ofld->instance = next_instance_++;

  Packet cmd;
  cmd.type = PacketType::kOfldCmd;
  cmd.tenant = static_cast<std::uint8_t>(w.tenant);
  cmd.oid = OffloadPacketId{id_, w.id, 0, block_id, w.ofld->instance};
  cmd.line_addr = info.nsu_entry;  // "physical start PC" field (Fig. 4(a))
  cmd.mask = w.active;
  cmd.reg_ids = info.regs_in;
  cmd.reg_values.assign(info.regs_in.size() * kWarpWidth, 0);
  for (std::size_t r = 0; r < info.regs_in.size(); ++r) {
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      cmd.reg_values[r * kWarpWidth + lane] = w.lanes[lane].regs[info.regs_in[r]];
    }
  }
  if (info.needs_preds) {
    cmd.lane_preds.assign(kWarpWidth, 0);
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      std::uint8_t bits = 0;
      for (unsigned p = 0; p < kNumPreds; ++p) {
        bits |= static_cast<std::uint8_t>(w.lanes[lane].preds[p] ? 1u << p : 0u);
      }
      cmd.lane_preds[lane] = bits;
    }
  }
  cmd.size_bytes = cmd_packet_bytes(static_cast<unsigned>(info.regs_in.size()),
                                    w.active_count(), info.needs_preds);
  // The cmd->ACK span opens here: time spent held waiting for the target
  // decision and the credit grant is part of the round trip (as queueing).
  ctx_.latency->start(cmd, now, ctx_.cfg->num_hmcs);
  // Target NSU is unknown until the first memory instruction: hold the
  // command in the pending packet buffer.
  w.ofld->held.push_back(std::move(cmd));
  ++pending_count_;
  ++w.pc;
}

void Sm::end_offload_or_inline(Warp& w, Cycle /*cycle*/, TimePs now) {
  if (!w.ofld) {
    // Inline execution of the block just finished.
    const KernelImage& image = *ctx_.image_of(w.tenant);
    const OffloadBlockInfo& info =
        image.blocks.at(static_cast<unsigned>(image.gpu.at(w.pc).imm));
    inline_block_instrs_ += info.body_size();
    ctx_.governor_of(w.tenant)->on_block_complete(info.body_size());
    w.cur_block = kNoBlock;
    ++w.pc;
    return;
  }
  // Offloaded: block until the NSU acknowledges.  Under the optimal-target
  // ablation the target is decided here, over all accumulated votes.  If no
  // memory instruction executed (fully predicated-off block), fall back to
  // a fixed target so the command can still be delivered.
  if (w.ofld->target == kInvalidId) {
    unsigned best = 0;
    if (!w.ofld->votes.empty()) {
      for (unsigned h = 1; h < w.ofld->votes.size(); ++h) {
        if (w.ofld->votes[h] > w.ofld->votes[best]) best = h;
      }
    }
    w.ofld->target = best;
    retry_credit_grants(now);
  }
  set_state(w, WarpState::kWaitAck);
}

Sm::IssueOutcome Sm::issue_mem_inline(Warp& w, const Instr& in, Cycle cycle, TimePs now) {
  if (lsu_busy_until_ > cycle) {
    retry_cycle_ = lsu_busy_until_;
    return IssueOutcome::kExecBusy;
  }
  const LaneMask lanes = w.exec_mask(in);
  if (lanes == 0) {
    ++w.pc;
    return IssueOutcome::kIssued;
  }

  // Scratchpad / constant space: fixed latency, no off-chip traffic.
  if (in.op == Opcode::kShmLd || in.op == Opcode::kLdc) {
    lsu_busy_until_ = cycle + 1;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (!(lanes & (LaneMask{1} << lane))) continue;
      ThreadCtx& t = w.lanes[lane];
      const Addr a = effective_address(in, t);
      if (in.op == Opcode::kShmLd) {
        const std::uint64_t key = (static_cast<std::uint64_t>(w.cta_slot) << 48) | a;
        auto it = shm_.find(key);
        t.regs[in.dst] = it == shm_.end() ? 0 : it->second;
      } else {
        t.regs[in.dst] = ctx_.gmem->load_reg(a, in.mem_width, in.mem_f32);
      }
    }
    w.scoreboard.set_reg_ready_at(in.dst, cycle + cfg_.shm_latency, DepSource::kL1);
    lane_ops_ += popcount_mask(lanes);
    ++w.pc;
    return IssueOutcome::kIssued;
  }
  if (in.op == Opcode::kShmSt) {
    lsu_busy_until_ = cycle + 1;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (!(lanes & (LaneMask{1} << lane))) continue;
      ThreadCtx& t = w.lanes[lane];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(w.cta_slot) << 48) | effective_address(in, t);
      shm_[key] = t.regs[in.src[1]];
    }
    lane_ops_ += popcount_mask(lanes);
    ++w.pc;
    return IssueOutcome::kIssued;
  }

  // Cheap structural pre-checks before paying for address generation.  All
  // of these resolve only on external events, an egress drain
  // (on_egress_pop) or a line fill freeing MSHRs/trackers, and each such
  // event re-arms every structure-parked warp for another attempt.
  if (out_.size() >= ctx_.cfg->ndp_buffers.sm_ready_entries) {
    retry_cycle_ = kCycleNever;
    return IssueOutcome::kExecBusy;  // egress queue full
  }
  unsigned tracker_idx = kInvalidId;
  if (in.op == Opcode::kLd) {
    if (l1_.mshr_free() == 0) {
      retry_cycle_ = kCycleNever;
      return IssueOutcome::kExecBusy;
    }
    tracker_idx = alloc_tracker();
    if (tracker_idx == kInvalidId) {
      retry_cycle_ = kCycleNever;
      return IssueOutcome::kExecBusy;
    }
  }

  // Global loads/stores: coalesce (memoized across stalled retries).
  const CoalesceCache& cc = coalesced(w, in, lanes);
  const auto& addrs = cc.addrs;
  const auto& lines = cc.lines;
  const auto n_lines = static_cast<unsigned>(lines.size());

  if (out_.size() + n_lines > ctx_.cfg->ndp_buffers.sm_ready_entries) {
    retry_cycle_ = kCycleNever;
    return IssueOutcome::kExecBusy;  // egress queue full
  }

  if (in.op == Opcode::kLd) {
    if (l1_.mshr_free() < n_lines) {
      retry_cycle_ = kCycleNever;
      return IssueOutcome::kExecBusy;
    }

    LoadTracker& tracker = trackers_[tracker_idx];
    tracker = LoadTracker{true, w.id, in.dst, 0};
    ++active_trackers_;
    for (const LineAccess& la : lines) {
      ++l1_accesses_;
      switch (l1_.access_read(la.line_addr, tracker_idx)) {
        case CacheAccessResult::kHit: {
          // Cache-locality statistics for the governor (§7.3): L1 hits are
          // recorded here, L1 misses at the L2 slice with the L2 outcome.
          if (w.cur_block != kNoBlock) {
            ctx_.governor_of(w.tenant)->cache_table().record_load_line(
                w.cur_block, true, popcount_mask(la.lanes) * in.mem_width);
          }
          break;
        }
        case CacheAccessResult::kMissNew: {
          ++tracker.lines_pending;
          Packet p;
          p.type = PacketType::kMemRead;
          p.tenant = static_cast<std::uint8_t>(w.tenant);
          p.line_addr = la.line_addr;
          p.token = id_;  // L2-level waiter identity: which SM to wake
          p.oid.sm = id_;
          p.oid.block = w.cur_block;
          p.mask = la.lanes;
          p.mem_width = in.mem_width;
          p.size_bytes = mem_read_req_bytes();
          ctx_.latency->start(p, now, ctx_.cfg->num_hmcs);
          ctx_.latency->add_link(p, 0, ctx_.cfg->xbar_latency_ps);
          push_out(std::move(p), now + ctx_.cfg->xbar_latency_ps);
          break;
        }
        case CacheAccessResult::kMissMerged:
          ++tracker.lines_pending;
          break;
        case CacheAccessResult::kMshrFull:
          throw std::logic_error("Sm: MSHR full despite headroom check");
      }
    }
    // Functional data is read at issue (write-through memory is current).
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (lanes & (LaneMask{1} << lane)) {
        w.lanes[lane].regs[in.dst] = ctx_.gmem->load_reg(addrs[lane], in.mem_width, in.mem_f32);
      }
    }
    if (tracker.lines_pending == 0) {
      // All lines hit in the L1.
      tracker.valid = false;
      --active_trackers_;
      w.scoreboard.set_reg_ready_at(in.dst, cycle + cfg_.l1d.latency_cycles, DepSource::kL1);
    } else {
      w.scoreboard.mark_load_pending(in.dst);
      ++w.outstanding_loads;
    }
  } else {
    // Store: write-through, no-allocate, fire-and-forget (relaxed model).
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (lanes & (LaneMask{1} << lane)) {
        ctx_.gmem->store_reg(addrs[lane], w.lanes[lane].regs[in.src[1]], in.mem_width,
                             in.mem_f32);
      }
    }
    for (const LineAccess& la : lines) {
      ++l1_accesses_;
      l1_.write_touch(la.line_addr);
      ctx_.ro_cache->invalidate(la.line_addr);
      Packet p;
      p.type = PacketType::kMemWrite;
      p.tenant = static_cast<std::uint8_t>(w.tenant);
      p.line_addr = la.line_addr;
      p.oid.sm = id_;
      p.oid.block = w.cur_block;
      const unsigned touched = popcount_mask(la.lanes) * in.mem_width;
      p.size_bytes = mem_write_req_bytes(touched);
      ctx_.latency->start(p, now, ctx_.cfg->num_hmcs);
      ctx_.latency->add_link(p, 0, ctx_.cfg->xbar_latency_ps);
      push_out(std::move(p), now + ctx_.cfg->xbar_latency_ps);
    }
    if (w.cur_block != kNoBlock) {
      ctx_.governor_of(w.tenant)->cache_table().record_store_bytes(
          w.cur_block, popcount_mask(lanes) * in.mem_width);
    }
  }

  lane_ops_ += popcount_mask(lanes);
  lsu_busy_until_ = cycle + n_lines;
  ++w.pc;
  return IssueOutcome::kIssued;
}

Sm::IssueOutcome Sm::issue_mem_offload(Warp& w, const Instr& in, Cycle cycle, TimePs now) {
  if (lsu_busy_until_ > cycle) {
    retry_cycle_ = lsu_busy_until_;
    return IssueOutcome::kExecBusy;
  }
  GpuOffloadCtx& ofld = *w.ofld;
  const LaneMask lanes = w.exec_mask(in);
  if (lanes == 0) {
    ++ofld.seq;
    ++w.pc;
    return IssueOutcome::kIssued;
  }

  const CoalesceCache& cc = coalesced(w, in, lanes);
  const auto& addrs = cc.addrs;
  const auto& lines = cc.lines;
  const auto n_lines = static_cast<unsigned>(lines.size());

  // Capacity: packets either enter the pending buffer (credits not granted
  // yet) or the ready/egress queue.
  if (!ofld.credits_granted) {
    if (pending_count_ + n_lines > ctx_.cfg->ndp_buffers.sm_pending_entries) {
      // Counted per attempt, so the warp is never parked: it retries at
      // every edge, and the SM polls its credit grant at every edge anyway.
      ++pending_full_stalls_;
      return IssueOutcome::kCreditWait;
    }
  } else if (out_.size() + n_lines > ctx_.cfg->ndp_buffers.sm_ready_entries) {
    retry_cycle_ = kCycleNever;  // unblocked only by an egress drain
    return IssueOutcome::kExecBusy;
  }

  // Target NSU selection.  Paper policy (§4.1.1): the first memory
  // instruction's majority HMC, fixed for the rest of the block.  Ablation
  // (optimal_target_selection): accumulate votes over every access and
  // decide at OFLD.END — faithful to the "huge buffer" cost, since all
  // packets sit in the pending buffer until then.
  if (ctx_.cfg->optimal_target_selection) {
    if (ofld.votes.empty()) ofld.votes.assign(ctx_.cfg->num_hmcs, 0);
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (lanes & (LaneMask{1} << lane)) ++ofld.votes[ctx_.amap->hmc_of(addrs[lane])];
    }
  } else if (ofld.target == kInvalidId) {
    std::vector<unsigned> votes(ctx_.cfg->num_hmcs, 0);
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (lanes & (LaneMask{1} << lane)) ++votes[ctx_.amap->hmc_of(addrs[lane])];
    }
    unsigned best = 0;
    for (unsigned h = 1; h < votes.size(); ++h) {
      if (votes[h] > votes[best]) best = h;
    }
    ofld.target = best;
    retry_credit_grants(now);
  }

  const OffloadPacketId oid{id_, w.id, ofld.seq, w.cur_block, ofld.instance};

  if (in.op == Opcode::kLd) {
    for (const LineAccess& la : lines) {
      ++l1_accesses_;
      ++rdf_packets_;
      const bool hit = l1_.probe(la.line_addr);
      if (hit && w.cur_block != kNoBlock) {
        ctx_.governor_of(w.tenant)->cache_table().record_load_line(
            w.cur_block, true, popcount_mask(la.lanes) * in.mem_width);
      }
      Packet p;
      p.tenant = static_cast<std::uint8_t>(w.tenant);
      p.oid = oid;
      p.line_addr = la.line_addr;
      p.mask = la.lanes;
      p.expected_mask = lanes;
      p.target_nsu = static_cast<std::uint8_t>(ofld.target);
      p.mem_width = in.mem_width;
      p.mem_f32 = in.mem_f32;
      p.misaligned = la.misaligned;
      if (hit) {
        ++rdf_l1_hits_;
        // RDF hit in the L1: ship the cached words straight to the NSU.
        p.type = PacketType::kRdfResp;
        p.dst_node = static_cast<std::uint16_t>(ofld.target);
        p.lane_data.assign(kWarpWidth, 0);
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
          if (la.lanes & (LaneMask{1} << lane)) {
            p.lane_data[lane] = ctx_.gmem->load_reg(addrs[lane], in.mem_width, in.mem_f32);
          }
        }
        // §7.1 extension: if the target NSU's read-only cache already holds
        // this line, send a tiny reference instead of the data.
        const bool ro_hit = ofld.target != kInvalidId &&
                            ctx_.ro_cache->lookup_or_insert(ofld.target, la.line_addr);
        p.size_bytes = ro_hit ? small_packet_bytes() + kAddrBytes
                              : rdf_resp_packet_bytes(popcount_mask(la.lanes), in.mem_width);
      } else {
        p.type = PacketType::kRdf;
        p.dst_node = static_cast<std::uint16_t>(ctx_.amap->hmc_of(la.line_addr));
        p.lane_addrs.assign(kWarpWidth, 0);
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
          if (la.lanes & (LaneMask{1} << lane)) p.lane_addrs[lane] = addrs[lane];
        }
        p.size_bytes = rdf_wta_packet_bytes(popcount_mask(la.lanes), la.misaligned);
      }
      ctx_.latency->start(p, now, ctx_.cfg->num_hmcs);
      // RDFs served from the L1 short-circuit DRAM entirely — their own
      // path class.  Vault-served RDFs get local/remote at the HMC, where
      // the final target NSU is known even under the ablation.
      if (hit) ctx_.latency->set_path(p, PathClass::kRdfCacheHit);
      ctx_.latency->add_link(p, 0, ctx_.cfg->xbar_latency_ps);
      emit_or_hold(w, std::move(p), now + ctx_.cfg->xbar_latency_ps);
    }
  } else {
    // Store: ship the write addresses to the target NSU.
    for (const LineAccess& la : lines) {
      ++wta_packets_;
      ctx_.wta_tracker->on_wta_generated(ctx_.amap->hmc_of(la.line_addr));
      ctx_.ro_cache->invalidate(la.line_addr);
      Packet p;
      p.type = PacketType::kWta;
      p.tenant = static_cast<std::uint8_t>(w.tenant);
      p.oid = oid;
      p.line_addr = la.line_addr;
      p.mask = la.lanes;
      p.expected_mask = lanes;
      p.dst_node = static_cast<std::uint16_t>(ofld.target);
      p.target_nsu = static_cast<std::uint8_t>(ofld.target);
      p.mem_width = in.mem_width;
      p.mem_f32 = in.mem_f32;
      p.misaligned = la.misaligned;
      p.lane_addrs.assign(kWarpWidth, 0);
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (la.lanes & (LaneMask{1} << lane)) p.lane_addrs[lane] = addrs[lane];
      }
      p.size_bytes = rdf_wta_packet_bytes(popcount_mask(la.lanes), la.misaligned);
      emit_or_hold(w, std::move(p), now + ctx_.cfg->xbar_latency_ps);
    }
    if (w.cur_block != kNoBlock) {
      ctx_.governor_of(w.tenant)->cache_table().record_store_bytes(
          w.cur_block, popcount_mask(lanes) * in.mem_width);
    }
  }

  lane_ops_ += popcount_mask(lanes);
  lsu_busy_until_ = cycle + n_lines;
  ++ofld.seq;
  ++w.pc;
  return IssueOutcome::kIssued;
}

void Sm::report(RunResult& r) const {
  r.counters.sm_lane_ops += lane_ops_;
  r.counters.l1_accesses += l1_accesses_;
  if (id_ >= 4) return;  // per-SM stats for the first four SMs only
  std::string prefix = "sm";
  prefix += std::to_string(id_);
  StatSet& out = r.stats;
  out.set(prefix + ".issued_instrs", static_cast<double>(issued_instrs));
  out.set(prefix + ".active_cycles", static_cast<double>(active_cycles));
  out.set(prefix + ".stall_dependency", static_cast<double>(stall_dependency()));
  out.set(prefix + ".stall_exec_busy", static_cast<double>(stall_exec_busy()));
  out.set(prefix + ".stall_warp_idle", static_cast<double>(stall_warp_idle()));
  out.set(prefix + ".offloads_started", static_cast<double>(offloads_started_));
  out.set(prefix + ".inline_blocks", static_cast<double>(inline_blocks_));
  out.set(prefix + ".ofld_acks", static_cast<double>(ofld_acks_));
  out.set(prefix + ".inline_block_instrs", static_cast<double>(inline_block_instrs_));
  out.set(prefix + ".acked_block_instrs", static_cast<double>(acked_block_instrs_));
  out.set(prefix + ".rdf_packets", static_cast<double>(rdf_packets_));
  out.set(prefix + ".rdf_l1_hits", static_cast<double>(rdf_l1_hits_));
  out.set(prefix + ".wta_packets", static_cast<double>(wta_packets_));
  out.set(prefix + ".pending_full_stalls", static_cast<double>(pending_full_stalls_));
}

void Sm::audit(AuditSnapshot& s) const {
  s.sm_issued += issued_instrs;
  s.offloads_started += offloads_started_;
  s.inline_blocks += inline_blocks_;
  s.ofld_acks += ofld_acks_;
  s.inline_block_instrs += inline_block_instrs_;
  s.acked_block_instrs += acked_block_instrs_;
  s.sm_rdf_probes += rdf_packets_;
  s.sm_rdf_l1_hits += rdf_l1_hits_;
  s.l1_hits += l1_.hits;
  s.l1_miss_new += l1_.misses;
  s.l1_merged += l1_.merged_misses;
  s.cyc_sm_sum.push_back(cyc_.total());
  s.cyc_sm_counted.push_back(next_expected_cycle_);
  s.sm_active_cycles += active_cycles;
  // Dep-pending cycles the warps hold parked for re-billing at next issue.
  for (const std::uint64_t c : pending_dep_cycles_) s.sm_parked_dep_cycles += c;
}

}  // namespace sndp
