#include "ndp/nsu.h"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "mem/address_map.h"
#include "noc/network.h"
#include "obs/epoch_timeline.h"
#include "obs/latency.h"
#include "obs/stats_audit.h"
#include "sim/simulator.h"

namespace sndp {

Nsu::Nsu(HmcId hmc_id, const SystemContext& ctx, SendFn send_network, SendFn send_local_vault)
    : hmc_id_(hmc_id),
      ctx_(ctx),
      send_network_(std::move(send_network)),
      send_local_vault_(std::move(send_local_vault)),
      cfg_(ctx.cfg->nsu),
      read_data_(ctx.cfg->ndp_buffers.nsu_read_data_entries),
      write_addr_(ctx.cfg->ndp_buffers.nsu_write_addr_entries),
      cmds_(ctx.cfg->ndp_buffers.nsu_cmd_entries) {
  warps_.resize(cfg_.max_warps);
  fast_forward_ = ctx.cfg->fast_forward;
  cyc_.init(ctx.num_tenants());
}

void Nsu::receive(Packet&& p, TimePs now) { in_.push(std::move(p), now); }

bool Nsu::idle() const {
  return in_.empty() && cmds_.empty() && live_ == 0;
}

unsigned Nsu::active_warps() const { return static_cast<unsigned>(std::popcount(live_)); }

void Nsu::finalize(Cycle end_cycle) {
  if (end_cycle > next_expected_cycle_) {
    const Cycle tail = end_cycle - next_expected_cycle_;
    tick_count_ += tail;
    // The slept tail had no warps, no commands, and no ready ingress: idle.
    cyc_.add(cyc_.shared_row(), static_cast<std::size_t>(NsuBucket::kIdle), tail);
    next_expected_cycle_ = end_cycle;
  }
}

double Nsu::avg_occupancy() const {
  if (tick_count_ == 0) return 0.0;
  return static_cast<double>(occupancy_accum_) /
         (static_cast<double>(tick_count_) * cfg_.max_warps);
}

double Nsu::icache_utilization() const {
  // 8 B per instruction, as a fraction of the 4 KB I-cache (Fig. 11).
  const auto pcs = std::count(icache_touched_.begin(), icache_touched_.end(), true);
  const double bytes = static_cast<double>(pcs) * 8.0;
  return bytes / static_cast<double>(cfg_.icache_bytes);
}

LaneMask Nsu::exec_mask(const NsuWarp& warp, const Instr& instr) const {
  if (instr.guard_pred == kNoPred) return warp.active;
  LaneMask m = 0;
  for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
    if (!(warp.active & (LaneMask{1} << lane))) continue;
    if (warp.lanes[lane].preds[static_cast<unsigned>(instr.guard_pred)] == instr.guard_sense) {
      m |= LaneMask{1} << lane;
    }
  }
  return m;
}

void Nsu::tick(Cycle cycle, TimePs now) {
  // Epoch-timeline sampling at the first consumed NSU edge at/after each
  // boundary, before this edge's occupancy is accumulated.  Asleep edges
  // leave occupancy_accum_ frozen, so the value is fast-forward-invariant.
  if (timeline_ != nullptr && timeline_->nsu_due(timeline_src_, now)) {
    timeline_->poll_nsu(timeline_src_, now, occupancy_accum_);
  }
  if (fast_forward_ && next_work_ps(now) > now) return;  // still asleep
  // Skipped/slept edges each counted one naive tick with zero occupancy.
  // An edge is only slept when no warps are resident, the command buffer is
  // empty, and no ingress packet was ready — i.e. the NSU was idle — so the
  // compensation bills the whole gap to the idle bucket.
  if (cycle > next_expected_cycle_) {
    cyc_.add(cyc_.shared_row(), static_cast<std::size_t>(NsuBucket::kIdle),
             cycle - next_expected_cycle_);
  }
  tick_count_ += cycle - next_expected_cycle_ + 1;
  next_expected_cycle_ = cycle + 1;
  occupancy_accum_ += active_warps();

  // Ingress.
  while (auto p = in_.pop_ready(now)) {
    ctx_.latency->queue_hop(*p, now, "nsu_rx", hmc_id_);
    switch (p->type) {
      case PacketType::kOfldCmd:
        cmds_.push(std::move(*p));
        break;
      case PacketType::kRdfResp:
        // The RDF span ends at delivery into the read-data buffer; the wait
        // until the consuming warp issues is NSU-side execution state, not
        // part of the fetch round trip.
        ctx_.latency->finish_stamped(*p, now, hmc_id_);
        read_data_.deposit(*p);
        break;
      case PacketType::kWta:
        write_addr_.deposit(*p);
        break;
      case PacketType::kNsuWriteAck: {
        ctx_.latency->finish_stamped(*p, now, hmc_id_);
        bool matched = false;
        for (SlotMask m = live_; m != 0; m &= m - 1) {
          NsuWarp& w = warps_[lowest_slot(m)];
          if (w.oid.sm == p->oid.sm && w.oid.warp == p->oid.warp &&
              w.oid.instance == p->oid.instance) {
            if (w.pending_writes == 0) throw std::logic_error("Nsu: unexpected write ack");
            --w.pending_writes;
            matched = true;
            break;
          }
        }
        if (!matched) throw std::logic_error("Nsu: write ack for unknown warp");
        break;
      }
      default:
        throw std::logic_error(std::string("Nsu: unexpected packet ") +
                               packet_type_name(p->type));
    }
  }

  try_spawn(cycle, now);

  // Single-issue with temporal SIMT: a warp instruction occupies the issue
  // port for kWarpWidth / simd_lanes cycles (§4.5).  OFLD markers are
  // bookkeeping (spawn-time init / ack-wait), not lane work — they do not
  // hold the port.
  if (issue_busy_until_ > cycle) {
    // The issue port is occupied by a prior multi-cycle instruction: lane
    // work is in flight, so the cycle is execution for the holding tenant.
    cyc_.add(issue_busy_tenant_, static_cast<std::size_t>(NsuBucket::kExec), 1);
    return;
  }
  const unsigned n = static_cast<unsigned>(warps_.size());
  bool stepped = false;
  bool any_ready = false;
  unsigned stepped_tenant = 0;
  unsigned starved_tenant = 0;
  // Round robin from rr_next_: the live slots at or above it, then the ones
  // below.  A failed step leaves every slot live, and a successful one ends
  // the scan, so walking the snapshot visits what a full scan would.
  const SlotMask from_rr = live_ & ~low_slots(rr_next_);
  for (const SlotMask part : {from_rr, live_ & ~from_rr}) {
    for (SlotMask m = part; m != 0 && !stepped; m &= m - 1) {
      const unsigned i = lowest_slot(m);
      NsuWarp& w = warps_[i];
      if (w.ready_cycle > cycle) continue;
      if (!any_ready) {
        any_ready = true;
        starved_tenant = w.tenant;
      }
      const Instr& next = ctx_.image_of(w.tenant)->nsu.at(w.pc);
      // Port occupancy: markers are bookkeeping (0 cycles); loads/stores move
      // a full line through the NDP buffer port (1 cycle); lane ALU work pays
      // the temporal-SIMT initiation interval.
      unsigned hold = 0;
      if (next.is_global_mem()) {
        hold = 1;
      } else if (next.op != Opcode::kOfldBeg && next.op != Opcode::kOfldEnd) {
        hold = (kWarpWidth + cfg_.simd_lanes - 1) / cfg_.simd_lanes;
      }
      // Capture before step_warp: finishing a warp (kOfldEnd) clears the slot.
      const unsigned tenant = w.tenant;
      if (step_warp(i, cycle, now)) {
        stepped = true;
        stepped_tenant = tenant;
        rr_next_ = (i + 1) % n;
        issue_busy_until_ = cycle + hold;
        issue_busy_tenant_ = tenant;
      }
    }
  }
  // Classify this counted cycle into exactly one bucket (StatsAudit checks
  // bucket sum == tick count).  Priority: progress beats starvation beats
  // quota pressure beats latency wait.
  if (stepped) {
    cyc_.add(stepped_tenant, static_cast<std::size_t>(NsuBucket::kExec), 1);
  } else if (any_ready) {
    // A warp was ready to issue but every attempt blocked on missing RDF
    // data, a missing WTA, or outstanding write acks: ingress starvation.
    cyc_.add(starved_tenant, static_cast<std::size_t>(NsuBucket::kIngressStarved), 1);
  } else if (spawn_quota_blocked_) {
    cyc_.add(quota_tenant_, static_cast<std::size_t>(NsuBucket::kQuotaBlocked), 1);
  } else if (live_ != 0) {
    // Resident warps are all waiting out instruction latency: execution,
    // billed to the lowest live slot's tenant.
    cyc_.add(warps_[lowest_slot(live_)].tenant, static_cast<std::size_t>(NsuBucket::kExec), 1);
  } else {
    cyc_.add(cyc_.shared_row(), static_cast<std::size_t>(NsuBucket::kIdle), 1);
  }
}

void Nsu::try_spawn(Cycle cycle, TimePs now) {
  const unsigned quota = ctx_.cfg->tenancy.nsu_warp_quota;
  spawn_quota_blocked_ = false;
  while (!cmds_.empty()) {
    const SlotMask free = low_slots(static_cast<unsigned>(warps_.size())) & ~live_;
    if (free == 0) return;  // all warp slots busy; commands wait

    // Per-tenant warp-slot quota (QoS knob; 0 = unlimited).  Head-of-line
    // semantics: if the NEXT command's tenant is at its quota, spawning
    // stops entirely until one of that tenant's warps retires — simple,
    // deterministic, and order-preserving (commands are never reordered).
    if (quota > 0 && ctx_.num_tenants() > 1) {
      const unsigned head_tenant = cmds_.front().tenant;
      unsigned resident = 0;
      for (SlotMask m = live_; m != 0; m &= m - 1) {
        if (warps_[lowest_slot(m)].tenant == head_tenant) ++resident;
      }
      if (resident >= quota) {
        spawn_quota_blocked_ = true;
        quota_tenant_ = head_tenant;
        return;
      }
    }

    Packet cmd = cmds_.pop();
    // Command-buffer residency (waiting for a free warp slot) is queueing;
    // the stamp then parks on the warp until the ACK is emitted.
    ctx_.latency->queue_hop(cmd, now, "nsu_spawn", hmc_id_);
    const unsigned idx = lowest_slot(free);
    NsuWarp* slot = &warps_[idx];
    *slot = NsuWarp{};
    live_ |= slot_bit(idx);
    slot->lt = cmd.lt;
    slot->oid = cmd.oid;
    slot->tenant = cmd.tenant;
    slot->pc = static_cast<unsigned>(cmd.line_addr);  // start PC field
    slot->active = cmd.mask;
    slot->ready_cycle = cycle + 1;
    // Initialize live-in registers and predicate bits.
    for (std::size_t r = 0; r < cmd.reg_ids.size(); ++r) {
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        slot->lanes[lane].regs[cmd.reg_ids[r]] = cmd.reg_values[r * kWarpWidth + lane];
      }
    }
    if (!cmd.lane_preds.empty()) {
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        for (unsigned p = 0; p < kNumPreds; ++p) {
          slot->lanes[lane].preds[p] = (cmd.lane_preds[lane] >> p) & 1;
        }
      }
    }
    // The command-buffer entry is free as soon as the warp spawns: return
    // the credit to the GPU-side buffer manager (§4.3).
    Packet credit;
    credit.type = PacketType::kCredit;
    credit.src_node = static_cast<std::uint16_t>(hmc_id_);
    credit.dst_node = static_cast<std::uint16_t>(ctx_.net->gpu_node());
    credit.size_bytes = small_packet_bytes();
    credit.target_nsu = static_cast<std::uint8_t>(hmc_id_);
    credit.credit_cmd = 1;
    credit.tenant = cmd.tenant;
    ctx_.latency->start(credit, now, hmc_id_);
    send_network_(std::move(credit), now);
  }
}

bool Nsu::step_warp(unsigned slot, Cycle cycle, TimePs now) {
  NsuWarp& warp = warps_[slot];
  const Program& prog = ctx_.image_of(warp.tenant)->nsu;
  const Instr& in = prog.at(warp.pc);
  if (warp.pc >= icache_touched_.size()) icache_touched_.resize(warp.pc + 1);
  icache_touched_[warp.pc] = true;

  switch (in.op) {
    case Opcode::kOfldBeg:
      // Register initialization already happened at spawn; one cycle.
      ++warp.pc;
      warp.ready_cycle = cycle + 1;
      ++instrs_;
      return true;

    case Opcode::kLd: {
      const LaneMask lanes = exec_mask(warp, in);
      OffloadPacketId oid = warp.oid;
      oid.seq = warp.seq;
      if (lanes == 0) {
        ++warp.seq;
        ++warp.pc;
        warp.ready_cycle = cycle + 1;
        ++instrs_;
        return true;
      }
      const NdpBufferKey key = NdpBufferKey::of(oid);
      if (!read_data_.complete(key)) {
        ++stall_read_wait_;
        return false;  // data not yet in the read-data buffer
      }
      const ReadDataBuffer::Entry entry = read_data_.take(key);
      if (entry.expected != lanes) {
        throw std::logic_error("Nsu: read-data lane mask mismatch with GPU");
      }
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (lanes & (LaneMask{1} << lane)) warp.lanes[lane].regs[in.dst] = entry.data[lane];
      }
      ++warp.freed_read_entries;
      lane_ops_ += popcount_mask(lanes);
      ++instrs_;
      ++warp.seq;
      ++warp.pc;
      warp.ready_cycle = cycle + 2;  // buffer read port
      return true;
    }

    case Opcode::kSt: {
      const LaneMask lanes = exec_mask(warp, in);
      OffloadPacketId oid = warp.oid;
      oid.seq = warp.seq;
      if (lanes == 0) {
        ++warp.seq;
        ++warp.pc;
        warp.ready_cycle = cycle + 1;
        ++instrs_;
        return true;
      }
      const NdpBufferKey key = NdpBufferKey::of(oid);
      if (!write_addr_.complete(key)) return false;  // WTA not yet arrived
      const WriteAddrBuffer::Entry entry = write_addr_.take(key);
      if (entry.expected != lanes) {
        throw std::logic_error("Nsu: write-address lane mask mismatch with GPU");
      }
      // Group lanes by destination line and emit one write per line.
      const unsigned line_bytes = ctx_.amap->line_bytes();
      unsigned num_lines = 0;
      LaneMask remaining = lanes;
      while (remaining != 0) {
        const unsigned first = static_cast<unsigned>(std::countr_zero(remaining));
        const Addr line = entry.addrs[first] & ~static_cast<Addr>(line_bytes - 1);
        LaneMask line_lanes = 0;
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
          if (!(remaining & (LaneMask{1} << lane))) continue;
          if ((entry.addrs[lane] & ~static_cast<Addr>(line_bytes - 1)) == line) {
            line_lanes |= LaneMask{1} << lane;
          }
        }
        remaining &= ~line_lanes;
        ++num_lines;

        Packet wr;
        wr.type = PacketType::kNsuWrite;
        wr.oid = oid;
        wr.line_addr = line;
        wr.mask = line_lanes;
        wr.mem_width = entry.width;
        wr.mem_f32 = entry.f32;
        wr.misaligned = entry.misaligned;
        wr.tenant = static_cast<std::uint8_t>(warp.tenant);
        wr.size_bytes = nsu_write_packet_bytes(popcount_mask(line_lanes), entry.width,
                                               entry.misaligned);
        wr.lane_addrs.assign(kWarpWidth, 0);
        wr.lane_data.assign(kWarpWidth, 0);
        for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
          if (line_lanes & (LaneMask{1} << lane)) {
            wr.lane_addrs[lane] = entry.addrs[lane];
            wr.lane_data[lane] = warp.lanes[lane].regs[in.src[1]];
          }
        }
        const HmcId dest = ctx_.amap->hmc_of(line);
        wr.src_node = static_cast<std::uint16_t>(hmc_id_);
        wr.dst_node = static_cast<std::uint16_t>(dest);
        ++write_packets_;
        ctx_.latency->start(wr, now, hmc_id_);
        ctx_.latency->set_path(wr, dest == hmc_id_ ? PathClass::kNsuWriteLocal
                                                   : PathClass::kNsuWriteRemote);
        if (dest == hmc_id_) {
          send_local_vault_(std::move(wr), now);
        } else {
          send_network_(std::move(wr), now);
        }
      }
      warp.pending_writes += num_lines;
      ++warp.freed_write_entries;
      lane_ops_ += popcount_mask(lanes);
      ++instrs_;
      ++warp.seq;
      ++warp.pc;
      warp.ready_cycle = cycle + num_lines;  // one write per cycle
      return true;
    }

    case Opcode::kOfldEnd:
      if (warp.pending_writes > 0) return false;  // wait for DRAM write acks
      finish_warp(slot, now);
      ++instrs_;
      return true;

    default: {
      // NSU-side ALU work.
      if (!in.is_alu()) {
        throw std::logic_error(std::string("Nsu: unexpected opcode in NSU code: ") +
                               opcode_name(in.op));
      }
      const LaneMask lanes = exec_mask(warp, in);
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (lanes & (LaneMask{1} << lane)) execute_alu(in, warp.lanes[lane]);
      }
      lane_ops_ += popcount_mask(lanes);
      ++instrs_;
      ++warp.pc;
      const bool sfu = in.exec_class() == ExecClass::kSfu;
      warp.ready_cycle = cycle + (sfu ? cfg_.sfu_latency : cfg_.alu_latency);
      return true;
    }
  }
}

void Nsu::finish_warp(unsigned slot, TimePs now) {
  NsuWarp& warp = warps_[slot];
  const OffloadBlockInfo& info = ctx_.image_of(warp.tenant)->blocks.at(warp.oid.block);

  Packet ack;
  ack.type = PacketType::kOfldAck;
  ack.oid = warp.oid;
  ack.tenant = static_cast<std::uint8_t>(warp.tenant);
  ack.src_node = static_cast<std::uint16_t>(hmc_id_);
  ack.dst_node = static_cast<std::uint16_t>(ctx_.net->gpu_node());
  ack.mask = warp.active;
  ack.size_bytes = ofld_ack_packet_bytes(static_cast<unsigned>(info.regs_out.size()),
                                         popcount_mask(warp.active));
  ack.reg_ids = info.regs_out;
  ack.reg_values.assign(info.regs_out.size() * kWarpWidth, 0);
  for (std::size_t r = 0; r < info.regs_out.size(); ++r) {
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      ack.reg_values[r * kWarpWidth + lane] = warp.lanes[lane].regs[info.regs_out[r]];
    }
  }
  // Piggyback the freed data-buffer credits on the ACK (§4.3).
  ack.credit_read_data = static_cast<std::uint16_t>(info.num_loads);
  ack.credit_write_addr = static_cast<std::uint16_t>(info.num_stores);
  ack.target_nsu = static_cast<std::uint8_t>(hmc_id_);
  ctx_.latency->adopt(ack, warp.lt);
  // Spawn-to-ACK time is NSU execution, not queueing: advance the stamp
  // so it lands in the "other" segment at finish.
  ctx_.latency->exec_hop(ack, now, "nsu_exec", hmc_id_);
  send_network_(std::move(ack), now);

  ++blocks_completed_;
  finished_block_instrs_ += info.body_size();
  warp = NsuWarp{};  // slot free; next command can spawn on a later tick
  live_ &= ~slot_bit(slot);
}

void Nsu::audit(AuditSnapshot& s) const {
  s.nsu_blocks_completed += blocks_completed_;
  s.nsu_instrs += instrs_;
  s.nsu_lane_ops += lane_ops_;
  s.nsu_finished_block_instrs += finished_block_instrs_;
  s.cyc_nsu_sum.push_back(cyc_.total());
  s.cyc_nsu_counted.push_back(tick_count_);
}

void Nsu::report(RunResult& r) const {
  r.counters.nsu_lane_ops += lane_ops_;
  r.cycle_stack.nsu.accumulate(cyc_);
  std::string prefix = "hmc";
  prefix += std::to_string(hmc_id_);
  prefix += ".nsu";
  StatSet& out = r.stats;
  out.set(prefix + ".lane_ops", static_cast<double>(lane_ops_));
  out.set(prefix + ".instrs", static_cast<double>(instrs_));
  out.set(prefix + ".blocks_completed", static_cast<double>(blocks_completed_));
  out.set(prefix + ".finished_block_instrs", static_cast<double>(finished_block_instrs_));
  out.set(prefix + ".write_packets", static_cast<double>(write_packets_));
  out.set(prefix + ".stall_read_wait", static_cast<double>(stall_read_wait_));
  out.set(prefix + ".avg_occupancy", avg_occupancy());
  out.set(prefix + ".icache_utilization", icache_utilization());
}

}  // namespace sndp
