#include "gpu/gpu.h"

#include <algorithm>
#include <stdexcept>

#include "mem/address_map.h"
#include "memfunc/global_memory.h"
#include "noc/network.h"
#include "obs/latency.h"
#include "obs/stats_audit.h"
#include "sim/simulator.h"

namespace sndp {

Gpu::Gpu(const SystemContext& ctx) : ctx_(ctx), shared_(ctx) {
  const SystemConfig& cfg = *ctx_.cfg;
  fast_forward_ = cfg.fast_forward;
  const unsigned num_tenants = ctx_.num_tenants();
  next_cta_t_.assign(num_tenants, 0);
  t_l2_hits_.assign(num_tenants, 0);
  t_l2_misses_.assign(num_tenants, 0);
  t_l2_merged_.assign(num_tenants, 0);
  for (unsigned t = 0; t < num_tenants; ++t) ctas_left_ += ctx_.launch_of(t).num_ctas;
  sms_.reserve(cfg.num_sms);
  for (unsigned i = 0; i < cfg.num_sms; ++i) {
    sms_.push_back(std::make_unique<Sm>(i, ctx_, shared_));
  }
  // One L2 slice per HMC link; each slice gets an equal share of the 2 MB.
  CacheConfig slice_cfg = cfg.l2;
  slice_cfg.size_bytes = cfg.l2.size_bytes / cfg.num_hmcs;
  slices_.resize(cfg.num_hmcs);
  for (unsigned s = 0; s < cfg.num_hmcs; ++s) {
    slices_[s].cache = std::make_unique<Cache>(slice_cfg, "l2." + std::to_string(s));
  }
}

bool Gpu::idle() const {
  if (ctas_left_ != 0) return false;
  for (const auto& sm : sms_) {
    if (sm->busy()) return false;
  }
  for (const L2Slice& s : slices_) {
    if (!s.in.empty() || !s.urgent.empty()) return false;
  }
  return true;
}

std::uint64_t Gpu::issued_by_tenant(unsigned t) const {
  std::uint64_t n = 0;
  for (const auto& sm : sms_) n += sm->issued_by_tenant().at(t);
  return n;
}

void Gpu::tick(Cycle cycle, TimePs now) {
  for (auto& sm : sms_) sm->tick(cycle, now);
  dispatch();
  l2_tick(cycle, now);
}

TimePs Gpu::next_work_ps() {
  TimePs w = std::min(core_next_work_ps(), l2_next_work_ps());
  for (const auto& sm : sms_) w = std::min(w, sm->next_work_ps());
  return w;
}

unsigned Gpu::pick_tenant(const Sm& sm) const {
  const unsigned num_tenants = ctx_.num_tenants();
  auto eligible = [&](unsigned t) {
    return next_cta_t_[t] < ctx_.launch_of(t).num_ctas && sm.can_accept_cta(t);
  };
  switch (ctx_.cfg->tenancy.arbiter) {
    case TenantArbiter::kRoundRobin:
      for (unsigned k = 0; k < num_tenants; ++k) {
        const unsigned t = (tenant_rr_ + k) % num_tenants;
        if (eligible(t)) return t;
      }
      return kInvalidId;
    case TenantArbiter::kWeightedShare: {
      // Argmin of dispatched/weight: the tenant furthest below its share
      // gets the slot.  Strict < keeps ties on the lowest tenant id, so the
      // choice is deterministic.
      unsigned best = kInvalidId;
      double best_score = 0.0;
      for (unsigned t = 0; t < num_tenants; ++t) {
        if (!eligible(t)) continue;
        const double wt = (*ctx_.tenants)[t].weight > 0.0 ? (*ctx_.tenants)[t].weight : 1.0;
        const double score = static_cast<double>(next_cta_t_[t]) / wt;
        if (best == kInvalidId || score < best_score) {
          best = t;
          best_score = score;
        }
      }
      return best;
    }
    case TenantArbiter::kStrictPriority: {
      unsigned best = kInvalidId;
      unsigned best_prio = 0;
      for (unsigned t = 0; t < num_tenants; ++t) {
        if (!eligible(t)) continue;
        const unsigned prio = (*ctx_.tenants)[t].priority;
        if (best == kInvalidId || prio < best_prio) {
          best = t;
          best_prio = prio;
        }
      }
      return best;
    }
  }
  return kInvalidId;
}

void Gpu::dispatch() {
  // CTA dispatcher: at most one new CTA per SM per cycle, round-robin over
  // SMs; the arbiter picks the tenant each freed slot serves.
  if (ctas_left_ == 0) return;
  if (shared_.dispatch_wake) {
    shared_.dispatch_wake = false;
    dispatch_blocked_ = false;
  }
  // A scan that assigns nothing has no side effects (dispatch_rr_ and the
  // arbiter state only move on assignment), and can_accept_cta() can only
  // flip true when a CTA retires — which raises the dispatch wake.  So
  // skipping scans while blocked is exact in both stepping modes.
  if (dispatch_blocked_) return;
  const unsigned n = static_cast<unsigned>(sms_.size());
  const unsigned num_tenants = ctx_.num_tenants();
  bool assigned = false;
  for (unsigned i = 0; i < n && ctas_left_ != 0; ++i) {
    Sm& sm = *sms_[(dispatch_rr_ + i) % n];
    const unsigned t = pick_tenant(sm);
    if (t == kInvalidId) continue;
    sm.assign_cta(next_cta_t_[t]++, t);
    --ctas_left_;
    tenant_rr_ = (t + 1) % num_tenants;
    dispatch_rr_ = (dispatch_rr_ + i + 1) % n;
    assigned = true;
  }
  if (!assigned) dispatch_blocked_ = true;
}

TimePs Gpu::core_next_work_ps() const {
  if (ctas_left_ == 0) return kTimeNever;   // every tenant's queue drained
  if (dispatch_blocked_ && !shared_.dispatch_wake) return kTimeNever;
  return 0;  // CTAs remain and a slot may be free: dispatch this edge
}

void Gpu::finalize(Cycle end_cycle) {
  for (auto& sm : sms_) sm->finalize(end_cycle);
}

EpochRollInfo Gpu::end_epoch(Cycle boundary) {
  const EpochRollInfo info = shared_.governors[0]->roll_epoch();
  for (unsigned t = 1; t < shared_.governors.size(); ++t) shared_.governors[t]->roll_epoch();
  finalize(boundary);
  return info;
}

SmCycleStack Gpu::cycle_stack() const {
  SmCycleStack agg;
  agg.init(ctx_.num_tenants());
  for (const auto& sm : sms_) {
    agg.accumulate(sm->cycle_stack());
    agg.move(agg.shared_row(), static_cast<std::size_t>(SmBucket::kDispatchIdle),
             static_cast<std::size_t>(SmBucket::kDrained), sm->no_warp_drained_cycles());
  }
  return agg;
}

void Gpu::send_to_network(Packet&& p, TimePs now) {
  p.src_node = static_cast<std::uint16_t>(ctx_.net->gpu_node());
  ctx_.net->send(std::move(p), now);
}

TimePs Gpu::l2_next_work_ps() const {
  // Cached earliest delivery among SM egress + slice queues, plus the live
  // network RX front (lowered by remote HMC ticks between our edges).
  TimePs w = shared_.l2_wake;
  const auto& rx = ctx_.net->rx(ctx_.net->gpu_node());
  if (!rx.empty() && rx.front_ready_ps() < w) w = rx.front_ready_ps();
  return w;
}

void Gpu::l2_tick(Cycle cycle, TimePs now) {
  // With nothing deliverable at this edge the whole tick is a no-op (every
  // stage below only pops ready channel heads), so it can be skipped.
  if (fast_forward_ && l2_next_work_ps() > now) return;

  // 1. Move SM egress packets into the right slice queue (the on-die
  //    crossbar; its latency was already added by the SM).  An SM whose
  //    egress head is not ready yet (or whose queue is empty) is skipped.
  for (unsigned i = 0; i < sms_.size(); ++i) {
    if (shared_.egress_front[i] > now) continue;
    Sm& sm = *sms_[i];
    for (unsigned moved = 0; moved < 2; ++moved) {
      auto p = sm.out().pop_ready(now);
      if (!p) break;
      // The drain may unblock an egress-full warp (the SM then retries at
      // its next edge) and moves the SM's egress front.
      sm.on_egress_pop(now);
      unsigned slice;
      switch (p->type) {
        case PacketType::kMemRead:
        case PacketType::kMemWrite:
        case PacketType::kRdf:
          slice = ctx_.amap->hmc_of(p->line_addr);
          break;
        default:
          slice = p->dst_node;  // CMD / WTA / RdfResp travel to the target HMC
          break;
      }
      wire_bytes_ += p->size_bytes;
      ctx_.latency->queue_hop(*p, now, "sm_egress", ctx_.cfg->num_hmcs);
      if (is_urgent_packet(p->type)) {
        slices_.at(slice).urgent.push(std::move(*p), now);
      } else {
        slices_.at(slice).in.push(std::move(*p), now);
      }
    }
  }

  // 2. Slice processing.
  for (unsigned s = 0; s < slices_.size(); ++s) process_slice(s, cycle, now);

  // 3. Network RX.
  auto& rx = ctx_.net->rx(ctx_.net->gpu_node());
  while (auto p = rx.pop_ready(now)) handle_rx(std::move(*p), now);

  // Recompute the cached wake over everything this tick drains.  Later SM
  // pushes lower it directly (Sm::push_out).
  // Computed the same way in both stepping modes: naive stepping never
  // reads it, and one mode-independent path needs no stepping-mode branch.
  {
    TimePs w = *std::min_element(shared_.egress_front.begin(), shared_.egress_front.end());
    for (const L2Slice& s : slices_) {
      if (!s.in.empty()) w = std::min(w, s.in.front_ready_ps());
      if (!s.urgent.empty()) w = std::min(w, s.urgent.front_ready_ps());
    }
    shared_.l2_wake = w;
  }
}

void Gpu::process_slice(unsigned slice_idx, Cycle /*cycle*/, TimePs now) {
  L2Slice& slice = slices_[slice_idx];
  const TimePs l2_latency_ps =
      ctx_.cfg->l2.latency_cycles * tick_time_ps(1, ctx_.cfg->clocks.sm_khz);

  // Urgent pass-throughs (offload commands) go straight to the link; they
  // never touch the L2 arrays and must not queue behind request floods.
  while (auto p = slice.urgent.pop_ready(now)) {
    ctx_.latency->queue_hop(*p, now, "l2_slice", ctx_.cfg->num_hmcs);
    send_to_network(std::move(*p), now);
  }

  for (unsigned served = 0; served < 2; ++served) {
    if (!slice.in.ready(now)) return;
    const Packet& head = slice.in.front();

    if (head.type == PacketType::kMemRead) {
      ++l2_accesses_;
      const auto result = slice.cache->access_read(head.line_addr, head.token);
      if (result == CacheAccessResult::kMshrFull) return;  // retry next cycle
      ++l2_read_reqs_;
      Packet p = slice.in.pop();
      ctx_.latency->queue_hop(p, now, "l2_slice", ctx_.cfg->num_hmcs);
      const bool in_block = p.oid.block != kNoBlock;
      const unsigned touched = popcount_mask(p.mask) * p.mem_width;
      // Per-tenant L2 outcomes are counted here, at the same site as
      // l2_read_reqs_, so the per-tenant sums reconcile exactly with the
      // fabric total (RDF probes below bump the slice caches' own counters
      // and would contaminate a cache-counter-based split).
      OffloadGovernor& gov = *shared_.governors[p.tenant];
      if (result == CacheAccessResult::kHit) {
        ++t_l2_hits_.at(p.tenant);
        if (in_block) gov.cache_table().record_load_line(p.oid.block, true, touched);
        wire_bytes_ += kLineBytes;
        ctx_.latency->add_cache(p, l2_latency_ps);
        ctx_.latency->finish(p, PathClass::kGpuReadL2, now + l2_latency_ps, ctx_.cfg->num_hmcs);
        sms_.at(static_cast<std::size_t>(p.token))
            ->deliver_line(p.line_addr, now + l2_latency_ps, LineServe::kL2);
      } else if (result == CacheAccessResult::kMissNew) {
        ++t_l2_misses_.at(p.tenant);
        if (in_block) gov.cache_table().record_load_line(p.oid.block, false, 0);
        // Pin the destination to this slice's stack: the MSHR lives here, so
        // the fill (src_node of the response) must come back to the same
        // slice even if the page migrates while the miss is outstanding.
        p.dst_node = static_cast<std::uint16_t>(slice_idx);
        send_to_network(std::move(p), now);
      } else {
        // Merged into an existing L2 MSHR: this request's lifetime ends
        // here; the merged-into request's response will serve it.
        ++t_l2_merged_.at(p.tenant);
        if (in_block) gov.cache_table().record_load_line(p.oid.block, false, 0);
        ctx_.latency->cancel(p);
      }
      continue;
    }

    Packet p = slice.in.pop();
    ctx_.latency->queue_hop(p, now, "l2_slice", ctx_.cfg->num_hmcs);
    switch (p.type) {
      case PacketType::kMemWrite: {
        ++l2_accesses_;
        slice.cache->write_touch(p.line_addr);
        p.dst_node = static_cast<std::uint16_t>(slice_idx);  // same pin as kMissNew
        send_to_network(std::move(p), now);
        break;
      }
      case PacketType::kRdf: {
        // Probe the L2 on the way out (Fig. 6(a)): a hit turns the request
        // into a response carrying the cached words.
        ++l2_accesses_;
        ++rdf_l2_probes_;
        const bool hit = slice.cache->probe(p.line_addr);
        const bool in_block = p.oid.block != kNoBlock;
        if (in_block) {
          shared_.governors[p.tenant]->cache_table().record_load_line(
              p.oid.block, hit, hit ? popcount_mask(p.mask) * p.mem_width : 0);
        }
        if (hit) {
          ++rdf_l2_hits_;
          p.type = PacketType::kRdfResp;
          ctx_.latency->set_path(p, PathClass::kRdfCacheHit);
          p.dst_node = p.target_nsu;
          p.lane_data.assign(kWarpWidth, 0);
          for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
            if (p.mask & (LaneMask{1} << lane)) {
              p.lane_data[lane] =
                  ctx_.gmem->load_reg(p.lane_addrs[lane], p.mem_width, p.mem_f32);
            }
          }
          const bool ro_hit = shared_.ro_cache.lookup_or_insert(p.target_nsu, p.line_addr);
          p.size_bytes = ro_hit
                             ? small_packet_bytes() + kAddrBytes
                             : rdf_resp_packet_bytes(popcount_mask(p.mask), p.mem_width);
          wire_bytes_ += p.size_bytes;
        }
        send_to_network(std::move(p), now);
        break;
      }
      case PacketType::kOfldCmd:
      case PacketType::kWta:
      case PacketType::kRdfResp:
        send_to_network(std::move(p), now);
        break;
      default:
        throw std::logic_error(std::string("Gpu: unexpected packet at L2 slice: ") +
                               packet_type_name(p.type));
    }
  }
}

void Gpu::handle_rx(Packet&& p, TimePs now) {
  ++rx_packets_;
  ctx_.latency->queue_hop(p, now, "gpu_rx", ctx_.cfg->num_hmcs);
  switch (p.type) {
    case PacketType::kMemReadResp: {
      ++mem_read_resps_;
      ctx_.latency->add_link(p, 0, ctx_.cfg->xbar_latency_ps);
      ctx_.latency->finish(p, PathClass::kGpuReadDram, now + ctx_.cfg->xbar_latency_ps,
                           ctx_.cfg->num_hmcs);
      // The serving stack IS the slice that holds the MSHR (kMissNew pins
      // dst to its slice) — a fresh hmc_of here could land on a different
      // slice after a migration and strand the MSHR tokens.
      const unsigned slice_idx = p.src_node;
      ++l2_accesses_;
      // Dep-stall attribution: a fill from the line's current home stack is
      // local DRAM; anything else (possible under volatile mappings, where
      // the home moved while the miss was outstanding) is remote.
      const LineServe serve = p.src_node == ctx_.amap->hmc_of(p.line_addr)
                                  ? LineServe::kDramLocal
                                  : LineServe::kDramRemote;
      for (std::uint64_t token : slices_.at(slice_idx).cache->fill(p.line_addr)) {
        wire_bytes_ += kLineBytes;
        sms_.at(static_cast<std::size_t>(token))
            ->deliver_line(p.line_addr, now + ctx_.cfg->xbar_latency_ps, serve);
      }
      break;
    }
    case PacketType::kCacheInval: {
      ++invals_received_;
      if (ctx_.amap->policy().volatile_mapping()) {
        // Under migration the line may be cached in the slice of an older
        // mapping; sweep all slices rather than trust a live lookup.
        for (L2Slice& s : slices_) s.cache->invalidate(p.line_addr);
      } else {
        slices_.at(ctx_.amap->hmc_of(p.line_addr)).cache->invalidate(p.line_addr);
      }
      for (auto& sm : sms_) sm->invalidate_line(p.line_addr);
      // §4.1.1: this invalidation retires one in-flight WTA for its HMC.
      // (The tracker aggregates across stacks under a volatile mapping, so
      // a since-migrated key still retires the right count.)
      shared_.wta.on_invalidation(ctx_.amap->hmc_of(p.line_addr));
      break;
    }
    case PacketType::kOfldAck: {
      // Data-buffer credits ride on the ACK (§4.3).
      shared_.bufmgr.release(p.target_nsu, 0, p.credit_read_data, p.credit_write_addr,
                             p.tenant);
      ctx_.latency->add_link(p, 0, ctx_.cfg->xbar_latency_ps);
      ctx_.latency->finish(p, PathClass::kOfldCmd, now + ctx_.cfg->xbar_latency_ps,
                           ctx_.cfg->num_hmcs);
      const SmId sm = p.oid.sm;
      sms_.at(sm)->deliver_ofld_ack(std::move(p), now + ctx_.cfg->xbar_latency_ps);
      break;
    }
    case PacketType::kCredit: {
      shared_.bufmgr.release(p.target_nsu, p.credit_cmd, p.credit_read_data,
                             p.credit_write_addr, p.tenant);
      ctx_.latency->finish(p, PathClass::kCredit, now, ctx_.cfg->num_hmcs);
      break;
    }
    default:
      throw std::logic_error(std::string("Gpu: unexpected RX packet: ") +
                             packet_type_name(p.type));
  }
}

std::uint64_t Gpu::total_l2_hits() const {
  std::uint64_t n = 0;
  for (const L2Slice& s : slices_) n += s.cache->hits;
  return n;
}

std::uint64_t Gpu::total_l2_misses() const {
  std::uint64_t n = 0;
  for (const L2Slice& s : slices_) n += s.cache->misses;
  return n;
}

void Gpu::audit(AuditSnapshot& s) const {
  for (const auto& sm : sms_) sm->audit(s);
  for (const L2Slice& sl : slices_) {
    s.l2_hits += sl.cache->hits;
    s.l2_miss_new += sl.cache->misses;
    s.l2_merged += sl.cache->merged_misses;
  }
  s.l2_read_reqs += l2_read_reqs_;
  s.rdf_l2_probes += rdf_l2_probes_;
  s.rdf_l2_hits += rdf_l2_hits_;
  s.mem_read_resps += mem_read_resps_;
  s.gpu_rx_packets += rx_packets_;
  const SystemConfig& cfg = *ctx_.cfg;
  for (unsigned h = 0; h < cfg.num_hmcs; ++h) {
    s.buf_free_cmd += shared_.bufmgr.free_cmd(h);
    s.buf_free_read_data += shared_.bufmgr.free_read_data(h);
    s.buf_free_write_addr += shared_.bufmgr.free_write_addr(h);
  }
  s.buf_cap_cmd += std::uint64_t{cfg.ndp_buffers.nsu_cmd_entries} * cfg.num_hmcs;
  s.buf_cap_read_data += std::uint64_t{cfg.ndp_buffers.nsu_read_data_entries} * cfg.num_hmcs;
  s.buf_cap_write_addr += std::uint64_t{cfg.ndp_buffers.nsu_write_addr_entries} * cfg.num_hmcs;
  for (const auto& g : shared_.governors) s.gov_block_instrs += g->total_block_instrs();
  const SmCycleStack machine = cycle_stack();
  for (std::size_t b = 0; b < kNumSmBuckets; ++b) s.cyc_sm_buckets[b] += machine.bucket_total(b);
  const unsigned num_tenants = ctx_.num_tenants();
  if (num_tenants > 1) {
    s.tenant_issued.resize(num_tenants);
    s.tenant_l2_reads.resize(num_tenants);
    s.tenant_gov_instrs.resize(num_tenants);
    s.cyc_tenant_issue.resize(num_tenants);
    for (unsigned t = 0; t < num_tenants; ++t) {
      s.tenant_issued[t] = issued_by_tenant(t);
      s.tenant_l2_reads[t] = t_l2_hits_[t] + t_l2_misses_[t] + t_l2_merged_[t];
      s.tenant_gov_instrs[t] = shared_.governors[t]->total_block_instrs();
      s.cyc_tenant_issue[t] = machine.rows[t][static_cast<std::size_t>(SmBucket::kIssue)];
    }
  }
}

void Gpu::report(RunResult& r) const {
  if (r.completed && !shared_.wta.all_quiescent()) {
    throw std::logic_error("Gpu: in-flight WTA counter leaked");
  }
  std::uint64_t issued = 0, active = 0, l1_hits = 0, l1_misses = 0;
  for (const auto& sm : sms_) {
    sm->report(r);
    issued += sm->issued_instrs;
    active += sm->active_cycles;
    l1_hits += sm->l1().hits;
    l1_misses += sm->l1().misses;
  }
  r.ipc = r.sm_cycles ? static_cast<double>(issued) / static_cast<double>(r.sm_cycles) : 0.0;
  r.counters.l2_accesses += l2_accesses_;
  r.counters.gpu_wire_bytes += wire_bytes_;
  r.counters.sm_active_seconds +=
      static_cast<double>(active) / (static_cast<double>(ctx_.cfg->clocks.sm_khz) * 1e3);
  // Everything is finalized, so the SM stacks cover every SM cycle.
  r.cycle_stack.tenants = ctx_.num_tenants();
  r.cycle_stack.sm = cycle_stack();
  r.stall_dependency = sm_group_total(r.cycle_stack.sm, SmBucketGroup::kDep);
  r.stall_exec_busy = sm_group_total(r.cycle_stack.sm, SmBucketGroup::kExecBusy);
  r.stall_warp_idle = sm_group_total(r.cycle_stack.sm, SmBucketGroup::kWarpIdle);

  StatSet& out = r.stats;
  out.set("gpu.issued_instrs", static_cast<double>(issued));
  out.set("gpu.stall_dependency", static_cast<double>(r.stall_dependency));
  out.set("gpu.stall_exec_busy", static_cast<double>(r.stall_exec_busy));
  out.set("gpu.stall_warp_idle", static_cast<double>(r.stall_warp_idle));
  out.set("gpu.invalidations", static_cast<double>(invals_received_));
  out.set("gpu.rdf_l2_probes", static_cast<double>(rdf_l2_probes_));
  out.set("gpu.rdf_l2_hits", static_cast<double>(rdf_l2_hits_));
  out.set("gpu.l2_read_reqs", static_cast<double>(l2_read_reqs_));
  out.set("gpu.mem_read_resps", static_cast<double>(mem_read_resps_));
  out.set("gpu.rx_packets", static_cast<double>(rx_packets_));
  out.set("gpu.l1_hits", static_cast<double>(l1_hits));
  out.set("gpu.l1_misses", static_cast<double>(l1_misses));
  out.set("gpu.l2_hits", static_cast<double>(total_l2_hits()));
  out.set("gpu.l2_misses", static_cast<double>(total_l2_misses()));
  shared_.governors[0]->export_stats(out);
  shared_.bufmgr.export_stats(out);
  out.set("wta.max_inflight", static_cast<double>(shared_.wta.max_seen()));
  out.set("wta.total", static_cast<double>(shared_.wta.total()));
  out.set("rocache.hits", static_cast<double>(shared_.ro_cache.hits()));
  out.set("rocache.fills", static_cast<double>(shared_.ro_cache.fills()));
  out.set("rocache.invalidations", static_cast<double>(shared_.ro_cache.invalidations()));
  // Tenant results and tenant-keyed stats only exist on multi-tenant runs,
  // so the classic single-kernel stat set (golden-stats pins) is unchanged.
  const unsigned num_tenants = ctx_.num_tenants();
  if (num_tenants == 1) return;
  for (unsigned t = 0; t < num_tenants; ++t) {
    TenantResult tr;
    tr.finish_cycle = shared_.progress[t].finish_cycle;
    tr.issued = issued_by_tenant(t);
    tr.l2_hits = t_l2_hits_[t];
    tr.l2_misses = t_l2_misses_[t];
    tr.l2_merged = t_l2_merged_[t];
    tr.gov_block_instrs = shared_.governors[t]->total_block_instrs();
    std::string p = "gpu.t";
    p += std::to_string(t);
    out.set(p + ".issued_instrs", static_cast<double>(tr.issued));
    out.set(p + ".l2_hits", static_cast<double>(tr.l2_hits));
    out.set(p + ".l2_misses", static_cast<double>(tr.l2_misses));
    out.set(p + ".l2_merged", static_cast<double>(tr.l2_merged));
    out.set(p + ".ctas", static_cast<double>(next_cta_t_[t]));
    out.set(p + ".finish_cycle", static_cast<double>(tr.finish_cycle));
    std::string g = "gov.t";
    g += std::to_string(t);
    out.set(g + ".block_instrs", static_cast<double>(tr.gov_block_instrs));
    r.tenants.push_back(std::move(tr));
  }
}

}  // namespace sndp
