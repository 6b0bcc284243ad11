#include "mem/hmc.h"

#include <algorithm>
#include <stdexcept>

#include "mem/address_map.h"
#include "memfunc/global_memory.h"
#include "noc/network.h"
#include "obs/latency.h"
#include "obs/stats_audit.h"
#include "sim/simulator.h"

namespace sndp {

Hmc::Hmc(HmcId id, const SystemContext& ctx) : id_(id), ctx_(ctx) {
  const SystemConfig& cfg = *ctx_.cfg;
  fast_forward_ = cfg.fast_forward;
  noc_latency_ps_ = 2 * tick_time_ps(1, cfg.clocks.dram_khz);  // ~3 ns switch traversal

  vaults_.reserve(cfg.hmc.num_vaults);
  for (unsigned v = 0; v < cfg.hmc.num_vaults; ++v) {
    vaults_.push_back(std::make_unique<VaultController>(
        cfg.hmc, cfg.clocks.dram_khz,
        [this](const DramRequest& req, TimePs done) { on_vault_complete(req, done); },
        ctx_.num_tenants()));
  }
  vault_backlog_.resize(cfg.hmc.num_vaults);

  nsu_ = std::make_unique<Nsu>(
      id_, ctx_,
      /*send_network=*/[this](Packet&& p, TimePs now) { send_from_stack(std::move(p), now); },
      /*send_local_vault=*/
      [this](Packet&& p, TimePs now) {
        hmc_noc_bytes_ += p.size_bytes;
        enqueue_vault(std::move(p), now + noc_latency_ps_);
      });
}

bool Hmc::idle() const {
  return inflight_.empty() && pending_copies_.empty() && busy_vaults_ == 0 &&
         backlogged_ == 0 && nsu_->idle();
}

void Hmc::audit(AuditSnapshot& s) const {
  s.hmc_rx_packets += packets_routed_;
  s.mem_read_completions += mem_reads_completed_;
  s.rdf_completions += rdf_completed_;
  s.mem_write_completions += mem_writes_completed_;
  s.nsu_write_completions += nsu_writes_completed_;
  s.page_copy_read_completions += page_copy_reads_completed_;
  s.page_copy_write_completions += page_copy_writes_completed_;
  s.dram_read_bytes += dram_read_bytes_;
  s.dram_write_bytes += dram_write_bytes_;
  nsu_->audit(s);
  for (const auto& v : vaults_) {
    s.vault_reads += v->reads;
    s.vault_writes += v->writes;
    s.vault_activates += v->activates;
    s.cyc_vault_sum.push_back(v->cycle_stack().total());
    s.cyc_vault_counted.push_back(v->counted_cycles());
  }
}

void Hmc::finalize(Cycle end_cycle) {
  for (auto& v : vaults_) v->finalize(end_cycle);
}

void Hmc::send_from_stack(Packet&& p, TimePs now) {
  p.src_node = static_cast<std::uint16_t>(id_);
  hmc_noc_bytes_ += p.size_bytes;  // logic layer -> I/O port
  ctx_.net->send(std::move(p), now);
}

TimePs Hmc::compute_internal_wake() const {
  TimePs w = kTimeNever;
  for (SlotMask m = backlogged_; m != 0; m &= m - 1) {
    w = std::min(w, vault_backlog_[lowest_slot(m)].front_ready_ps());
  }
  for (SlotMask m = busy_vaults_; m != 0; m &= m - 1) {
    w = std::min(w, vaults_[lowest_slot(m)]->next_work_ps());
  }
  return w;
}

TimePs Hmc::next_work_ps() {
  TimePs w = wake_internal_;
  const auto& rx = ctx_.net->rx(id_);
  if (!rx.empty() && rx.front_ready_ps() < w) w = rx.front_ready_ps();
  return w;
}

void Hmc::tick(Cycle cycle, TimePs now) {
  if (fast_forward_ && next_work_ps() > now) return;  // still asleep
  // Drain the network RX into vaults / the NSU.
  auto& rx = ctx_.net->rx(id_);
  while (rx.ready(now)) {
    Packet p = rx.pop();
    ctx_.latency->queue_hop(p, now, "hmc_rx", id_);
    route_packet(std::move(p), now);
  }

  // Retry backlogged vault requests.  Nothing below pushes a backlog, so
  // the walk over a snapshot of backlogged_ sees every non-empty one.
  for (SlotMask m = backlogged_; m != 0; m &= m - 1) {
    const unsigned v = lowest_slot(m);
    auto& backlog = vault_backlog_[v];
    while (backlog.ready(now) && vaults_[v]->can_accept()) {
      Packet p = backlog.pop();
      ctx_.latency->queue_hop(p, now, "vault_queue", id_);
      const DramCoord coord = ctx_.amap->decode_at(p.line_addr, id_);
      const bool is_write = p.type == PacketType::kMemWrite ||
                            p.type == PacketType::kNsuWrite ||
                            p.type == PacketType::kPageCopyWrite;
      const bool page_copy = p.type == PacketType::kPageCopyRead ||
                             p.type == PacketType::kPageCopyWrite;
      const std::uint64_t token = next_token_++;
      vaults_[v]->enqueue(
          DramRequest{p.line_addr, is_write, token, coord, now, p.tenant, page_copy});
      busy_vaults_ |= slot_bit(v);
      inflight_.emplace(token, std::move(p));
    }
    if (backlog.empty()) backlogged_ &= ~slot_bit(v);
  }

  // An idle vault's tick is a no-op.  Completion callbacks only push
  // backlogs, never a vault queue, so busy_vaults_ gains no bit mid-walk.
  for (SlotMask m = busy_vaults_; m != 0; m &= m - 1) {
    const unsigned v = lowest_slot(m);
    vaults_[v]->tick(cycle, now);
    if (vaults_[v]->idle()) busy_vaults_ &= ~slot_bit(v);
  }

  // Computed the same way in both stepping modes: naive stepping never
  // reads it, and one mode-independent path needs no stepping-mode branch.
  wake_internal_ = compute_internal_wake();
}

void Hmc::route_packet(Packet&& p, TimePs now) {
  ++packets_routed_;
  switch (p.type) {
    case PacketType::kMemRead:
    case PacketType::kMemWrite:
    case PacketType::kRdf:
    case PacketType::kNsuWrite:
      hmc_noc_bytes_ += p.size_bytes;
      enqueue_vault(std::move(p), now + noc_latency_ps_);
      break;
    case PacketType::kOfldCmd:
    case PacketType::kRdfResp:
    case PacketType::kWta:
    case PacketType::kNsuWriteAck:
      hmc_noc_bytes_ += p.size_bytes;
      ctx_.latency->add_link(p, 0, noc_latency_ps_);
      nsu_->receive(std::move(p), now + noc_latency_ps_);
      break;
    case PacketType::kPageCopyRead:
      // A re-home triggered at a stack that no longer holds the page: the
      // lines live here, so the copy reads start here.
      hmc_noc_bytes_ += p.size_bytes;
      start_page_copy(p.line_addr / ctx_.amap->page_bytes(),
                      static_cast<HmcId>(p.target_nsu), now);
      break;
    case PacketType::kPageCopy: {
      // Bulk page arrival at the new home: write it back line-by-line
      // through the vaults, competing with demand traffic.
      hmc_noc_bytes_ += p.size_bytes;
      const unsigned line_bytes = ctx_.amap->line_bytes();
      const std::uint64_t page_bytes = ctx_.amap->page_bytes();
      for (std::uint64_t off = 0; off < page_bytes; off += line_bytes) {
        Packet wr;
        wr.type = PacketType::kPageCopyWrite;
        wr.line_addr = p.line_addr + off;
        wr.size_bytes = mem_write_req_bytes(line_bytes);
        enqueue_vault(std::move(wr), now + noc_latency_ps_);
      }
      break;
    }
    default:
      throw std::logic_error(std::string("Hmc: unexpected packet: ") +
                             packet_type_name(p.type));
  }
}

void Hmc::enqueue_vault(Packet&& p, TimePs now) {
  // Single-lookup contract: the packet was routed here, so decode against
  // this stack — the vault/bank/row split is stack-relative and must follow
  // the routing decision, not a second (possibly since-migrated) lookup.
  const DramCoord coord = ctx_.amap->decode_at(p.line_addr, id_);
  // Misrouting tripwire, only meaningful while the mapping cannot shift
  // between the sender's lookup and our arrival.
  if (!ctx_.amap->policy().volatile_mapping() &&
      ctx_.amap->hmc_of(p.line_addr) != id_) {
    throw std::logic_error("Hmc: packet for another stack");
  }
  // Both callers add exactly one intra-stack NoC traversal before `now`.
  ctx_.latency->add_link(p, 0, noc_latency_ps_);
  auto& backlog = vault_backlog_.at(coord.vault);
  backlog.push(std::move(p), now);
  backlogged_ |= slot_bit(coord.vault);
  // The NSU's local-vault fast path lands here from another clock domain;
  // make sure a sleeping stack wakes for it.
  const TimePs ready = backlog.back_ready_ps();
  if (ready < wake_internal_) wake_internal_ = ready;
}

void Hmc::on_vault_complete(const DramRequest& req, TimePs done_ps) {
  auto it = inflight_.find(req.token);
  if (it == inflight_.end()) throw std::logic_error("Hmc: completion for unknown token");
  Packet p = std::move(it->second);
  inflight_.erase(it);
  const unsigned line_bytes = ctx_.amap->line_bytes();

  // Split vault residency into DRAM service (deterministic tCL/tBURST
  // approximation of the FR-FCFS service slot) and FR-FCFS queueing.
  const DramTiming& t = ctx_.cfg->hmc.timing;
  const TimePs service_ps = tick_time_ps(
      req.is_write ? t.tBURST : t.tCL + t.tBURST, ctx_.cfg->clocks.dram_khz);
  ctx_.latency->add_vault(p, req.enqueue_ps, done_ps, service_ps, id_);

  switch (p.type) {
    case PacketType::kMemRead: {
      // Baseline line fetch: whole line back to the GPU.
      ++mem_reads_completed_;
      dram_read_bytes_ += line_bytes;
      hmc_noc_bytes_ += line_bytes;
      Packet resp;
      resp.type = PacketType::kMemReadResp;
      resp.line_addr = p.line_addr;
      resp.token = p.token;
      resp.oid = p.oid;
      resp.tenant = p.tenant;
      resp.dst_node = static_cast<std::uint16_t>(ctx_.net->gpu_node());
      resp.size_bytes = mem_read_resp_bytes();
      ctx_.latency->transfer(p, resp);
      send_from_stack(std::move(resp), done_ps);
      break;
    }
    case PacketType::kMemWrite: {
      // Write-through store: data already applied functionally at the SM.
      ++mem_writes_completed_;
      dram_write_bytes_ += p.size_bytes - mem_write_req_bytes(0);
      ctx_.latency->finish(p, PathClass::kGpuWrite, done_ps, id_);
      break;
    }
    case PacketType::kRdf: {
      // Read-and-forward: only the touched words travel to the target NSU.
      ++rdf_completed_;
      dram_read_bytes_ += line_bytes;
      Packet resp;
      resp.type = PacketType::kRdfResp;
      resp.oid = p.oid;
      resp.tenant = p.tenant;
      resp.line_addr = p.line_addr;
      resp.mask = p.mask;
      resp.expected_mask = p.expected_mask;
      resp.target_nsu = p.target_nsu;
      resp.mem_width = p.mem_width;
      resp.mem_f32 = p.mem_f32;
      resp.lane_data.assign(kWarpWidth, 0);
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (p.mask & (LaneMask{1} << lane)) {
          resp.lane_data[lane] =
              ctx_.gmem->load_reg(p.lane_addrs[lane], p.mem_width, p.mem_f32);
        }
      }
      resp.size_bytes = rdf_resp_packet_bytes(popcount_mask(p.mask), p.mem_width);
      // Local/remote is decided here, where the final target is known
      // even under the optimal-target-selection ablation.
      ctx_.latency->transfer(p, resp);
      ctx_.latency->set_path(resp, p.target_nsu == id_ ? PathClass::kRdfLocal
                                                       : PathClass::kRdfRemote);
      if (p.target_nsu == id_) {
        hmc_noc_bytes_ += resp.size_bytes;
        ctx_.latency->add_link(resp, 0, noc_latency_ps_);
        nsu_->receive(std::move(resp), done_ps + noc_latency_ps_);
      } else {
        // Remote forward: the consuming NSU pulls from a page homed here —
        // the migration policy's signal to move the page toward it.
        const PageMove mv = ctx_.amap->policy().note_remote_access(
            p.line_addr / ctx_.amap->page_bytes(), static_cast<HmcId>(p.target_nsu));
        resp.dst_node = p.target_nsu;
        send_from_stack(std::move(resp), done_ps);
        if (mv.moved) begin_page_copy(mv.page_id, mv.from, mv.to, done_ps);
      }
      break;
    }
    case PacketType::kNsuWrite: {
      // Apply the store functionally, ack the NSU, and invalidate any stale
      // copy in the GPU caches (§4.2).
      for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
        if (p.mask & (LaneMask{1} << lane)) {
          ctx_.gmem->store_reg(p.lane_addrs[lane], p.lane_data[lane], p.mem_width, p.mem_f32);
        }
      }
      ++nsu_writes_completed_;
      dram_write_bytes_ += popcount_mask(p.mask) * p.mem_width;

      Packet ack;
      ack.type = PacketType::kNsuWriteAck;
      ack.oid = p.oid;
      ack.tenant = p.tenant;
      ack.size_bytes = small_packet_bytes();
      ctx_.latency->transfer(p, ack);
      const unsigned origin = p.src_node;  // the NSU that issued the write
      if (origin == id_) {
        hmc_noc_bytes_ += ack.size_bytes;
        ctx_.latency->add_link(ack, 0, noc_latency_ps_);
        nsu_->receive(std::move(ack), done_ps + noc_latency_ps_);
      } else {
        // Remote NSU write into a page homed here: same migration signal as
        // the RDF remote-forward path.
        const PageMove mv = ctx_.amap->policy().note_remote_access(
            p.line_addr / ctx_.amap->page_bytes(), static_cast<HmcId>(origin));
        ack.dst_node = static_cast<std::uint16_t>(origin);
        send_from_stack(std::move(ack), done_ps);
        if (mv.moved) begin_page_copy(mv.page_id, mv.from, mv.to, done_ps);
      }

      Packet inval;
      inval.type = PacketType::kCacheInval;
      inval.line_addr = p.line_addr;
      inval.tenant = p.tenant;
      inval.dst_node = static_cast<std::uint16_t>(ctx_.net->gpu_node());
      inval.size_bytes = inval_packet_bytes();
      send_from_stack(std::move(inval), done_ps);
      break;
    }
    case PacketType::kPageCopyRead: {
      // One line of a migrating page read at the old home; when the page is
      // fully up, one bulk packet carries it to the new home (route_packet
      // splits it back into vault writes there).
      ++page_copy_reads_completed_;
      dram_read_bytes_ += line_bytes;
      hmc_noc_bytes_ += line_bytes;
      auto pc = pending_copies_.find(p.token);
      if (pc == pending_copies_.end()) {
        throw std::logic_error("Hmc: page-copy read without a pending copy");
      }
      if (--pc->second.lines_left == 0) {
        Packet bulk;
        bulk.type = PacketType::kPageCopy;
        bulk.line_addr = pc->second.page_id * ctx_.amap->page_bytes();
        bulk.dst_node = static_cast<std::uint16_t>(pc->second.to);
        bulk.size_bytes = static_cast<std::uint32_t>(kPktHeaderBytes + kAddrBytes +
                                                     ctx_.amap->page_bytes());
        pending_copies_.erase(pc);
        send_from_stack(std::move(bulk), done_ps);
      }
      break;
    }
    case PacketType::kPageCopyWrite: {
      ++page_copy_writes_completed_;
      dram_write_bytes_ += line_bytes;
      break;
    }
    default:
      throw std::logic_error("Hmc: unexpected completed request type");
  }
}

void Hmc::begin_page_copy(std::uint64_t page_id, HmcId from, HmcId to, TimePs now) {
  if (from == id_) {
    start_page_copy(page_id, to, now);
    return;
  }
  // The threshold crossed on a stale in-flight access served here after the
  // page had already moved away: kick the copy off at the stack whose
  // vaults actually hold the lines.
  Packet req;
  req.type = PacketType::kPageCopyRead;
  req.line_addr = page_id * ctx_.amap->page_bytes();
  req.target_nsu = static_cast<std::uint8_t>(to);
  req.dst_node = static_cast<std::uint16_t>(from);
  req.size_bytes = small_packet_bytes();
  send_from_stack(std::move(req), now);
}

void Hmc::start_page_copy(std::uint64_t page_id, HmcId to, TimePs now) {
  const unsigned line_bytes = ctx_.amap->line_bytes();
  const std::uint64_t page_bytes = ctx_.amap->page_bytes();
  const std::uint64_t cookie = next_copy_++;
  pending_copies_.emplace(
      cookie, PageCopy{page_id, to, static_cast<unsigned>(page_bytes / line_bytes)});
  for (std::uint64_t off = 0; off < page_bytes; off += line_bytes) {
    Packet rd;
    rd.type = PacketType::kPageCopyRead;
    rd.line_addr = page_id * page_bytes + off;
    rd.token = cookie;
    rd.size_bytes = mem_read_req_bytes();
    hmc_noc_bytes_ += rd.size_bytes;
    enqueue_vault(std::move(rd), now + noc_latency_ps_);
  }
}

void Hmc::report(RunResult& r) const {
  Distribution qlat;
  double lat_sum = 0.0;
  std::uint64_t lat_n = 0, activates = 0, reads = 0, writes = 0;
  for (const auto& v : vaults_) {
    if (v->queue_latency_ps.count() > 0) {
      // Merge by moments (min/max are approximate across vaults).
      qlat.record(v->queue_latency_ps.min());
      qlat.record(v->queue_latency_ps.max());
    }
    lat_sum += v->queue_latency_ps.sum();
    lat_n += v->queue_latency_ps.count();
    activates += v->activates;
    reads += v->reads;
    writes += v->writes;
    r.cycle_stack.vault.accumulate(v->cycle_stack());
  }
  r.counters.dram_activates += activates;
  r.counters.hmc_noc_bytes += hmc_noc_bytes_;
  r.counters.dram_read_bytes += dram_read_bytes_;
  r.counters.dram_write_bytes += dram_write_bytes_;
  std::string prefix = "hmc";
  prefix += std::to_string(id_);
  StatSet& out = r.stats;
  out.set(prefix + ".qlat.mean", lat_n ? lat_sum / static_cast<double>(lat_n) : 0.0);
  out.set(prefix + ".qlat.max", qlat.max());
  out.set(prefix + ".activates", static_cast<double>(activates));
  out.set(prefix + ".reads", static_cast<double>(reads));
  out.set(prefix + ".writes", static_cast<double>(writes));
  out.set(prefix + ".packets_routed", static_cast<double>(packets_routed_));
  out.set(prefix + ".mem_reads_completed", static_cast<double>(mem_reads_completed_));
  out.set(prefix + ".mem_writes_completed", static_cast<double>(mem_writes_completed_));
  out.set(prefix + ".rdf_completed", static_cast<double>(rdf_completed_));
  out.set(prefix + ".nsu_writes_completed", static_cast<double>(nsu_writes_completed_));
  out.set(prefix + ".page_copy_reads", static_cast<double>(page_copy_reads_completed_));
  out.set(prefix + ".page_copy_writes", static_cast<double>(page_copy_writes_completed_));
  nsu_->report(r);
}

}  // namespace sndp
