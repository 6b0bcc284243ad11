#include "sim/simulator.h"

#include "sim/trace.h"

#include <stdexcept>
#include <vector>

#include "common/log.h"
#include "ctrl/governor.h"
#include "gpu/gpu.h"
#include "gpu/wta_tracker.h"
#include "ndp/ro_cache.h"
#include "mem/address_map.h"
#include "mem/hmc.h"
#include "memfunc/global_memory.h"
#include "noc/network.h"
#include "obs/stats_audit.h"
#include "offload/codegen.h"
#include "ref/placement_profile.h"
#include "workloads/workload.h"

namespace sndp {

Simulator::Simulator(const SystemConfig& cfg) : cfg_(cfg) { cfg_.validate(); }

RunResult Simulator::run(Workload& workload) {
  return run_tenants({TenantDesc{&workload}}, workload.name());
}

RunResult Simulator::run_image(const KernelImage& image, const LaunchParams& launch,
                               GlobalMemory& gmem, const std::string& name) {
  TenantJob job;
  job.image = &image;
  job.launch = launch;
  job.name = name;
  return run_images({job}, gmem, name);
}

RunResult Simulator::run_tenants(const std::vector<TenantDesc>& tenants,
                                 const std::string& name) {
  if (tenants.empty()) throw std::invalid_argument("run_tenants: no tenants");
  for (unsigned t = 0; t < tenants.size(); ++t) {
    if (tenants[t].workload == nullptr) {
      throw std::invalid_argument("run_tenants: tenant " + std::to_string(t) +
                                  " has no workload");
    }
  }
  GlobalMemory gmem;
  MemoryAllocator alloc;
  std::vector<KernelImage> images;
  images.reserve(tenants.size());
  std::vector<TenantJob> jobs;
  jobs.reserve(tenants.size());
  for (unsigned t = 0; t < tenants.size(); ++t) {
    Workload& wl = *tenants[t].workload;
    // Round the shared allocator up to a fresh 16 MiB slice so tenant
    // address spaces are disjoint; tenant 0 starts at the classic base with
    // the classic seed, so its layout and contents are byte-identical to a
    // solo run of the same workload.
    if (t > 0) alloc.alloc(0, kTenantBaseAlign);
    Rng rng(tenant_setup_seed(cfg_.placement_seed, t));
    wl.setup(gmem, alloc, rng);
    images.push_back(analyze_and_generate(wl.program(), analyzer_opts_));
  }
  // Locality placement: a one-kernel run profiles itself over the reference
  // interpreter when the caller supplied no profile (the pre-pass reads a
  // copy of the launch-time image; gmem is untouched).
  const Workload& first = *tenants[0].workload;
  const auto profile = auto_placement_profile(tenants.size(), first.program(),
                                              first.launch(), gmem, cfg_, analyzer_opts_);
  if (profile != nullptr) cfg_.placement.locality_profile = profile;
  for (unsigned t = 0; t < tenants.size(); ++t) {
    TenantJob job;
    job.image = &images[t];
    job.launch = tenants[t].workload->launch();
    job.name = tenants[t].workload->name();
    job.weight = tenants[t].weight;
    job.priority = tenants[t].priority;
    jobs.push_back(std::move(job));
  }
  RunResult result = run_images(jobs, gmem, name);
  // The auto-built profile is specific to this kernel; drop it so a reused
  // Simulator re-profiles the next one.
  if (profile != nullptr) cfg_.placement.locality_profile = nullptr;
  bool all_ok = true;
  for (unsigned t = 0; t < tenants.size(); ++t) {
    const bool ok = tenants[t].workload->verify(gmem);
    if (t < result.tenants.size()) result.tenants[t].verified = ok;
    all_ok = all_ok && ok;
  }
  result.verified = all_ok;
  if (final_memory_sink_ != nullptr) *final_memory_sink_ = gmem;
  return result;
}

RunResult Simulator::run_images(const std::vector<TenantJob>& jobs, GlobalMemory& gmem,
                                const std::string& name) {
  if (jobs.empty()) throw std::invalid_argument("run_images: no tenant jobs");
  for (unsigned t = 0; t < jobs.size(); ++t) {
    if (jobs[t].image == nullptr) {
      throw std::invalid_argument("run_images: tenant " + std::to_string(t) +
                                  " has no kernel image");
    }
  }
  const unsigned num_tenants = static_cast<unsigned>(jobs.size());
  RunResult result;
  result.workload = name;

  AddressMap amap(cfg_);
  Network net(cfg_);
  TraceWriter trace;
  if (!cfg_.trace_path.empty()) {
    for (unsigned h = 0; h < cfg_.num_hmcs; ++h) {
      trace.name_row(static_cast<int>(h), "HMC " + std::to_string(h));
    }
    trace.name_row(static_cast<int>(cfg_.num_hmcs), "GPU");
    trace.name_row(static_cast<int>(cfg_.num_hmcs) + 1, "Governor");
    net.set_trace(&trace);
  }
  LatencyTracer latency(cfg_.latency_sample);
  latency.set_num_tenants(num_tenants);
  net.set_latency(&latency);
  // One governor per tenant: each climbs its own offload ratio from its own
  // completion signal, so one tenant's phase change cannot contaminate
  // another's epoch stats.  Tenant t perturbs the seed by its index, so
  // tenant 0 keeps the classic seed.
  std::vector<std::unique_ptr<OffloadGovernor>> govs;
  std::vector<TenantInfo> tenant_table;
  for (unsigned t = 0; t < num_tenants; ++t) {
    govs.push_back(std::make_unique<OffloadGovernor>(
        cfg_.governor, static_cast<unsigned>(jobs[t].image->blocks.size()), cfg_.l2.line_bytes,
        (cfg_.placement_seed ^ 0x60BE44) ^ (static_cast<std::uint64_t>(t) << 32)));
    TenantInfo ti;
    ti.image = jobs[t].image;
    ti.launch = jobs[t].launch;
    ti.governor = govs[t].get();
    ti.weight = jobs[t].weight;
    ti.priority = jobs[t].priority;
    tenant_table.push_back(ti);
  }
  NdpBufferManager bufmgr(cfg_.ndp_buffers, cfg_.num_hmcs);
  if (num_tenants > 1) bufmgr.set_tenancy(num_tenants, cfg_.tenancy.credit_share);
  RoCacheMirror ro_cache(cfg_.num_hmcs, cfg_.nsu, cfg_.l2.line_bytes);
  WtaInflightTracker wta_tracker(cfg_.num_hmcs);
  // Under a volatile mapping (migration) a WTA's generation-time stack and
  // its invalidation-time stack can disagree; collapse to one counter.
  wta_tracker.set_aggregate(amap.policy().volatile_mapping());

  SystemContext ctx;
  ctx.cfg = &cfg_;
  ctx.amap = &amap;
  ctx.gmem = &gmem;
  ctx.net = &net;
  ctx.bufmgr = &bufmgr;
  ctx.ro_cache = &ro_cache;
  ctx.wta_tracker = &wta_tracker;
  ctx.latency = &latency;
  ctx.tenants = &tenant_table;

  Gpu gpu(ctx);
  std::vector<std::unique_ptr<Hmc>> hmcs;
  for (unsigned h = 0; h < cfg_.num_hmcs; ++h) {
    hmcs.push_back(std::make_unique<Hmc>(h, ctx));
  }

  // Observability: the per-epoch timeline and the flow-conservation audit.
  EpochTimeline timeline(cfg_, cfg_.num_hmcs);
  gpu.set_timeline(&timeline);
  net.set_timeline(&timeline);
  for (unsigned h = 0; h < cfg_.num_hmcs; ++h) hmcs[h]->nsu().set_timeline(&timeline, h);
  // Migration counter: one dram-domain poller suffices (stack 0 ticks first
  // at every dram edge, and the poll sits before its fast-forward return).
  hmcs[0]->set_timeline(&timeline);

  StatsAudit audit;
  // `sm_flushed_to`: the SM cycle every SM's cycle stack was flushed to.
  // Each component adds the counters it owns; the rest belong to no
  // component: buffer credits, placement, latency, geometry (and, on the
  // final snapshot, the energy mirrors).
  auto audit_snapshot = [&](Cycle sm_flushed_to) {
    AuditSnapshot s;
    gpu.audit(s);
    net.audit(s);
    for (const auto& hmc : hmcs) hmc->audit(s);
    for (unsigned h = 0; h < cfg_.num_hmcs; ++h) {
      s.buf_free_cmd += bufmgr.free_cmd(h);
      s.buf_free_read_data += bufmgr.free_read_data(h);
      s.buf_free_write_addr += bufmgr.free_write_addr(h);
    }
    s.buf_cap_cmd = static_cast<std::uint64_t>(cfg_.ndp_buffers.nsu_cmd_entries) * cfg_.num_hmcs;
    s.buf_cap_read_data =
        static_cast<std::uint64_t>(cfg_.ndp_buffers.nsu_read_data_entries) * cfg_.num_hmcs;
    s.buf_cap_write_addr =
        static_cast<std::uint64_t>(cfg_.ndp_buffers.nsu_write_addr_entries) * cfg_.num_hmcs;
    s.line_bytes = cfg_.l2.line_bytes;
    s.pages_migrated = amap.policy().pages_migrated();
    s.migration_bytes = amap.policy().migration_bytes();
    s.page_bytes = cfg_.page_bytes;
    const LatencySummary& ls = latency.summary();
    for (std::size_t c = 0; c < kNumPathClasses; ++c) s.lat_counts[c] = ls.per_class[c].count();
    s.lat_started = ls.started;
    s.lat_finished = ls.finished;
    s.lat_cancelled = ls.cancelled;
    s.cyc_sm_flushed_to = sm_flushed_to;
    return s;
  };

  govs[0]->set_epoch_observer([&](const EpochRollInfo& info) {
    // Boundary-sync the SM cycle stacks so the timeline sample (and the
    // epoch audit) sees every cycle up to the boundary classified.  The
    // EpochTick replays fast-forwarded boundaries before any SM does work at
    // the wake edge, so syncing to the boundary cycle here is exact in both
    // stepping modes.
    const Cycle boundary = (info.epoch + 1) * cfg_.governor.epoch_cycles;
    gpu.sync_cycle_stacks(boundary);
    const AuditSnapshot s = audit_snapshot(boundary);
    timeline.on_epoch(info.epoch, info.ipc, info.block_instrs, info.ratio,
                      info.step, info.direction, s.sm_issued, s.l1_hits, s.l1_miss_new,
                      s.cyc_sm_buckets);
    audit.check_epoch(info.epoch, s);
  });

  // Clock domains (Table 2).
  ClockDomain sm_domain("sm", cfg_.clocks.sm_khz);
  ClockDomain l2_domain("l2", cfg_.clocks.l2_khz);
  // EpochTick must precede the SMs (it replays the governor epoch clock for
  // fast-forwarded cycles, which in naive order ran before the wake edge);
  // CoreTick stays after them, matching the naive per-cycle sequence.
  sm_domain.add(&gpu.epoch_tickable());
  for (auto& sm : gpu.sms()) sm_domain.add(sm.get());
  sm_domain.add(&gpu.core_tickable());
  l2_domain.add(&gpu.l2_tickable());
  ClockDomain dram_domain("dram", cfg_.clocks.dram_khz);
  ClockDomain nsu_domain("nsu", cfg_.clocks.nsu_khz);
  for (auto& hmc : hmcs) {
    dram_domain.add(hmc.get());
    nsu_domain.add(&hmc->nsu());
  }

  // Coincident edges tick in registration order: sm, l2, dram, nsu.
  Scheduler sched(cfg_.fast_forward);
  sched.set_time_limit(cfg_.max_time_ps);
  sched.add(&sm_domain);
  sched.add(&l2_domain);
  sched.add(&dram_domain);
  sched.add(&nsu_domain);

  auto system_idle = [&] {
    if (!gpu.idle() || !net.idle()) return false;
    for (const auto& hmc : hmcs) {
      if (!hmc->idle()) return false;
    }
    return true;
  };

  // Main loop.  The full idle scan is cheap now that per-component busy
  // checks are O(1), so it runs between single steps and the run stops on
  // the exact edge where the system drains — identically in both stepping
  // modes.  In fast-forward mode the scan is further gated on the
  // scheduler's quiescent flag (one flag read in the common case); a
  // quiescent-but-not-idle system (in-flight state no hint covers — a
  // modeling bug) dead-marches to the valve instead of spinning.
  bool completed = false;
  bool aborted = false;
  unsigned poll_countdown = 64;
  while (true) {
    const bool maybe_idle = cfg_.fast_forward ? sched.quiescent() : true;
    if (maybe_idle && system_idle()) {
      completed = true;
      break;
    }
    if (sched.now() >= cfg_.max_time_ps) break;
    if (cfg_.fast_forward && sched.quiescent()) {
      sched.advance_to_limit();
      continue;
    }
    sched.step();
    if (--poll_countdown == 0) {
      poll_countdown = 64;
      if (abort_poll_ && abort_poll_()) {
        aborted = true;
        break;
      }
    }
  }

  // Flush fast-forward-deferred per-cycle accounting (SM cycle stacks and
  // active counters, governor epoch clock, NSU tick counts) up to each
  // domain's consumed-edge count.  No-ops in naive mode.  The gpu.finalize flush can
  // roll one last epoch when the trailing fast-forward region crosses an
  // epoch boundary; the epoch observer audits it like any other.
  gpu.finalize(sm_domain.next_cycle());
  for (auto& hmc : hmcs) {
    hmc->nsu().finalize(nsu_domain.next_cycle());
    // Vault cycle stacks: derive the idle bucket once, from the dram domain's
    // consumed-edge count (busy classification happened live at each edge).
    hmc->finalize(dram_domain.next_cycle());
  }

  // Flush the timeline's lazily-polled series (L2, links, NSU occupancy) to
  // end-of-run values for epochs no consumed edge of their domain reached,
  // and assemble the per-epoch samples.
  {
    std::vector<std::uint64_t> occ;
    occ.reserve(hmcs.size());
    for (const auto& hmc : hmcs) occ.push_back(hmc->nsu().occupancy_accum());
    timeline.finalize(gpu.total_l2_hits(), gpu.total_l2_misses(), net.gpu_up_bytes(),
                      net.gpu_down_bytes(), net.cube_bytes(), occ,
                      amap.policy().pages_migrated());
  }
  result.timeline = timeline.samples();

  result.completed = completed;
  result.aborted = aborted;
  result.sm_cycles = sm_domain.now_cycle();
  result.runtime_ps = sched.now();
  // Each component adds its stats, its energy events and its cycle-stack
  // rows; the names of the tenant results are the jobs'.
  gpu.report(result);
  net.report(result);
  for (const auto& hmc : hmcs) hmc->report(result);
  for (unsigned t = 0; t < result.tenants.size(); ++t) result.tenants[t].name = jobs[t].name;

  const bool ndp_enabled = cfg_.governor.mode != OffloadMode::kOff;
  result.energy = EnergyModel(cfg_.energy)
                      .compute(result.counters, result.runtime_ps, cfg_.num_sms, cfg_.num_hmcs,
                               ndp_enabled);

  // Final flow-conservation audit.  Strict equalities (everything issued was
  // retired, credits home, energy mirrors consistent) only hold on a drained
  // run; valve-stopped or aborted runs get the monotonic/inequality subset.
  AuditSnapshot last = audit_snapshot(sm_domain.next_cycle());
  last.energy_dram_activates = result.counters.dram_activates;
  last.energy_offchip_bytes = result.counters.offchip_bytes;
  last.energy_nsu_lane_ops = result.counters.nsu_lane_ops;
  audit.check_final(last, completed && !aborted);

  // End-of-run invariants: with everything drained, all NSU buffer credits
  // must be home and no WTA can still be in flight (§4.1.1 page-migration
  // safety).  (Only meaningful when the run completed.)
  if (completed && !bufmgr.all_idle()) {
    throw std::logic_error("Simulator: NDP buffer credits leaked");
  }
  if (completed && !wta_tracker.all_quiescent()) {
    throw std::logic_error("Simulator: in-flight WTA counter leaked");
  }

  // Stats of the objects that are not timed components.
  bufmgr.export_stats(result.stats);
  result.energy.export_stats(result.stats);
  amap.export_stats(result.stats);
  result.stats.set("wta.max_inflight", static_cast<double>(wta_tracker.max_seen()));
  result.stats.set("wta.total", static_cast<double>(wta_tracker.total()));
  result.stats.set("rocache.hits", static_cast<double>(ro_cache.hits()));
  result.stats.set("rocache.fills", static_cast<double>(ro_cache.fills()));
  result.stats.set("rocache.invalidations", static_cast<double>(ro_cache.invalidations()));
  result.stats.set("sim.sm_cycles", static_cast<double>(result.sm_cycles));
  result.stats.set("sim.runtime_ps", static_cast<double>(result.runtime_ps));
  result.stats.set("sim.ipc", result.ipc);
  result.stats.set("sim.completed", completed ? 1.0 : 0.0);
  result.stats.set("sim.aborted", aborted ? 1.0 : 0.0);
  // How far past the valve the run's reported time landed (at most one
  // clock edge with the in-burst check) — nonzero only for valve-stopped
  // runs, so incomplete runs are diagnosable from the stats alone.
  const TimePs overshoot =
      (!completed && !aborted && result.runtime_ps > cfg_.max_time_ps)
          ? result.runtime_ps - cfg_.max_time_ps
          : 0;
  result.stats.set("sim.valve_overshoot_ps", static_cast<double>(overshoot));
  timeline.export_stats(result.stats);
  export_cycle_stats(result.cycle_stack, result.stats);
  result.latency = latency.summary();
  latency.export_stats(result.stats);
  audit.export_stats(result.stats);

  if (!completed && !aborted) {
    SNDP_WARN("sim", "run '%s' hit the simulated-time safety valve", name.c_str());
  }
  if (!cfg_.trace_path.empty()) {
    timeline.emit_trace(trace, static_cast<int>(cfg_.num_hmcs) + 1);
    latency.emit_trace(trace);
    const bool wrote = trace.write(cfg_.trace_path);
    if (!wrote) {
      SNDP_WARN("sim", "failed to write trace to '%s'", cfg_.trace_path.c_str());
    }
    result.stats.set("sim.trace_write_failed", wrote ? 0.0 : 1.0);
    result.stats.set("trace.events", static_cast<double>(trace.size()));
    result.stats.set("trace.dropped_events", static_cast<double>(trace.dropped()));
  }

  // Audit failures are modeling bugs, not workload outcomes — fail loudly,
  // after the stats/trace artifacts above are flushed so the violation is
  // diagnosable from them.  Mirrors the buffer-credit-leak throw.
  if (!audit.ok()) {
    throw std::logic_error("Simulator: stats audit failed: " + audit.first_violation_message());
  }
  return result;
}

}  // namespace sndp
