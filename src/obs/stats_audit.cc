#include "obs/stats_audit.h"

#include <cinttypes>
#include <cstdio>

#include "common/log.h"
#include "common/types.h"

namespace sndp {
namespace {

// Cumulative fields checked for monotonicity between consecutive snapshots.
struct CumulativeField {
  const char* name;
  std::uint64_t AuditSnapshot::* field;
};

constexpr CumulativeField kCumulative[] = {
    {"l1_hits", &AuditSnapshot::l1_hits},
    {"l1_miss_new", &AuditSnapshot::l1_miss_new},
    {"l1_merged", &AuditSnapshot::l1_merged},
    {"sm_issued", &AuditSnapshot::sm_issued},
    {"sm_rdf_probes", &AuditSnapshot::sm_rdf_probes},
    {"sm_rdf_l1_hits", &AuditSnapshot::sm_rdf_l1_hits},
    {"offloads_started", &AuditSnapshot::offloads_started},
    {"inline_blocks", &AuditSnapshot::inline_blocks},
    {"ofld_acks", &AuditSnapshot::ofld_acks},
    {"inline_block_instrs", &AuditSnapshot::inline_block_instrs},
    {"acked_block_instrs", &AuditSnapshot::acked_block_instrs},
    {"l2_hits", &AuditSnapshot::l2_hits},
    {"l2_miss_new", &AuditSnapshot::l2_miss_new},
    {"l2_merged", &AuditSnapshot::l2_merged},
    {"l2_read_reqs", &AuditSnapshot::l2_read_reqs},
    {"rdf_l2_probes", &AuditSnapshot::rdf_l2_probes},
    {"rdf_l2_hits", &AuditSnapshot::rdf_l2_hits},
    {"mem_read_resps", &AuditSnapshot::mem_read_resps},
    {"gpu_rx_packets", &AuditSnapshot::gpu_rx_packets},
    {"gov_block_instrs", &AuditSnapshot::gov_block_instrs},
    {"net_injected", &AuditSnapshot::net_injected},
    {"hmc_rx_packets", &AuditSnapshot::hmc_rx_packets},
    {"link_bytes", &AuditSnapshot::link_bytes},
    {"class_bytes", &AuditSnapshot::class_bytes},
    {"vault_reads", &AuditSnapshot::vault_reads},
    {"vault_writes", &AuditSnapshot::vault_writes},
    {"vault_activates", &AuditSnapshot::vault_activates},
    {"mem_read_completions", &AuditSnapshot::mem_read_completions},
    {"rdf_completions", &AuditSnapshot::rdf_completions},
    {"mem_write_completions", &AuditSnapshot::mem_write_completions},
    {"nsu_write_completions", &AuditSnapshot::nsu_write_completions},
    {"page_copy_read_completions", &AuditSnapshot::page_copy_read_completions},
    {"page_copy_write_completions", &AuditSnapshot::page_copy_write_completions},
    {"dram_read_bytes", &AuditSnapshot::dram_read_bytes},
    {"dram_write_bytes", &AuditSnapshot::dram_write_bytes},
    {"nsu_blocks_completed", &AuditSnapshot::nsu_blocks_completed},
    {"nsu_instrs", &AuditSnapshot::nsu_instrs},
    {"nsu_lane_ops", &AuditSnapshot::nsu_lane_ops},
    {"nsu_finished_block_instrs", &AuditSnapshot::nsu_finished_block_instrs},
    {"pages_migrated", &AuditSnapshot::pages_migrated},
    {"migration_bytes", &AuditSnapshot::migration_bytes},
};

}  // namespace

std::string AuditViolation::to_string() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "audit violation at %s: %s.%s lhs=%.17g rhs=%.17g delta=%.17g",
                epoch < 0 ? "end-of-run" : ("epoch " + std::to_string(epoch)).c_str(),
                component.c_str(), check.c_str(), lhs, rhs, delta());
  return buf;
}

void StatsAudit::expect(bool cond, std::int64_t epoch, const char* component,
                        const char* check, double lhs, double rhs) {
  ++checks_run_;
  if (cond) return;
  // Report the first failure of each check loudly; keep the list bounded.
  if (violations_.size() >= kMaxViolations) {
    ++suppressed_violations_;
    return;
  }
  AuditViolation v;
  v.epoch = epoch;
  v.component = component;
  v.check = check;
  v.lhs = lhs;
  v.rhs = rhs;
  bool first_of_kind = true;
  for (const AuditViolation& old : violations_) {
    if (old.check == v.check && old.component == v.component) {
      first_of_kind = false;
      break;
    }
  }
  if (first_of_kind) SNDP_WARN("audit", "%s", v.to_string().c_str());
  violations_.push_back(std::move(v));
}

void StatsAudit::eq(std::uint64_t lhs, std::uint64_t rhs, std::int64_t epoch,
                    const char* component, const char* check) {
  expect(lhs == rhs, epoch, component, check, static_cast<double>(lhs),
         static_cast<double>(rhs));
}

void StatsAudit::le(std::uint64_t lhs, std::uint64_t rhs, std::int64_t epoch,
                    const char* component, const char* check) {
  expect(lhs <= rhs, epoch, component, check, static_cast<double>(lhs),
         static_cast<double>(rhs));
}

void StatsAudit::instant_checks(std::int64_t epoch, const AuditSnapshot& s) {
  // --- Offload-block instruction accounting -------------------------------
  // The governor's per-epoch climb signal is fed from exactly two call
  // sites (inline completion, ACK drain); the SMs mirror both.
  eq(s.gov_block_instrs, s.inline_block_instrs + s.acked_block_instrs, epoch,
     "governor", "block_instr_sources");
  // Offload lifecycle: a block is started, finishes at an NSU, and its ACK
  // is eventually drained by the owning SM.
  le(s.ofld_acks, s.nsu_blocks_completed, epoch, "offload", "acks_le_completed");
  le(s.nsu_blocks_completed, s.offloads_started, epoch, "offload",
     "completed_le_started");
  le(s.acked_block_instrs, s.nsu_finished_block_instrs, epoch, "offload",
     "acked_instrs_le_finished");
  // An NSU warp instruction executes at most kWarpWidth lanes.
  le(s.nsu_lane_ops, s.nsu_instrs * kWarpWidth, epoch, "nsu",
     "lane_ops_le_instrs");

  // --- Memory request flow ------------------------------------------------
  // Every L1 read access (demand or RDF probe) lands in exactly one bucket.
  le(s.sm_rdf_l1_hits, s.sm_rdf_probes, epoch, "sm", "rdf_hits_le_probes");
  le(s.sm_rdf_probes - s.sm_rdf_l1_hits, s.l1_miss_new, epoch, "l1",
     "probe_misses_le_misses");
  // Same-callsite identity: every kMemRead retired at an L2 slice and every
  // RDF L2 probe increments exactly one of {hit, new miss, MSHR merge}.
  eq(s.l2_hits + s.l2_miss_new + s.l2_merged, s.l2_read_reqs + s.rdf_l2_probes,
     epoch, "l2", "access_outcomes");
  // Requests retired at L2 never exceed the kMemRead packets the SMs made.
  le(s.l2_read_reqs, s.mem_reads_created(), epoch, "l2",
     "retired_le_created");
  // RDF probes land in the same L2 hit/miss buckets as demand reads.
  le(s.rdf_l2_hits, s.rdf_l2_probes, epoch, "l2", "rdf_hits_le_probes");
  le(s.rdf_l2_probes - s.rdf_l2_hits, s.l2_miss_new, epoch, "l2",
     "probe_misses_le_misses");
  // One fill response / one vault completion per fill-generating L2 miss.
  le(s.mem_read_resps, s.l2_fill_misses(), epoch, "gpu", "fills_le_l2_misses");
  le(s.mem_read_completions, s.l2_fill_misses(), epoch, "vault",
     "read_completions_le_l2_misses");
  // Vault service counters are incremented when a burst is scheduled, which
  // precedes the completion callback.
  le(s.mem_read_completions + s.rdf_completions + s.page_copy_read_completions,
     s.vault_reads, epoch, "vault", "read_completions_le_serviced");
  le(s.mem_write_completions + s.nsu_write_completions +
         s.page_copy_write_completions,
     s.vault_writes, epoch, "vault", "write_completions_le_serviced");
  // DRAM byte counters are incremented in the same completion handler as the
  // per-type completion counters (reads always move a full line; writes move
  // at most a line of payload).
  eq(s.dram_read_bytes,
     (s.mem_read_completions + s.rdf_completions + s.page_copy_read_completions) *
         s.line_bytes,
     epoch, "dram", "read_bytes_pairing");
  le(s.dram_write_bytes,
     (s.mem_write_completions + s.nsu_write_completions +
      s.page_copy_write_completions) *
         s.line_bytes,
     epoch, "dram", "write_bytes_bound");

  // --- Placement migration ------------------------------------------------
  // Both counters increment together in the policy's re-home step, one page
  // of traffic per migration.
  eq(s.migration_bytes, s.pages_migrated * s.page_bytes, epoch, "mem",
     "migration_bytes_pairing");
  // The copy traffic behind that charge: each migration owes the fabric one
  // page of line reads at the old home and one page of line writes at the
  // new one.  Migration counters lead the copy (the policy flips before the
  // reads enqueue) and reads lead writes (the bulk packet ships only when
  // the page is fully read), so both are <= at every instant and tie out
  // exactly once drained (check_final).
  const std::uint64_t lines_per_page = s.page_bytes / s.line_bytes;
  le(s.page_copy_read_completions, s.pages_migrated * lines_per_page, epoch,
     "mem", "copy_reads_le_migrations");
  le(s.page_copy_write_completions, s.page_copy_read_completions, epoch,
     "mem", "copy_writes_le_reads");

  // --- NoC ----------------------------------------------------------------
  // Packet conservation: everything injected is sitting in a receive
  // channel or has been ejected by the GPU or an HMC.
  eq(s.net_injected, s.gpu_rx_packets + s.hmc_rx_packets + s.net_in_flight,
     epoch, "network", "packet_conservation");
  // Per-link byte counters and the per-class byte counters are fed from the
  // same send path.
  eq(s.link_bytes, s.class_bytes, epoch, "network", "link_byte_classes");

  // --- NDP buffer credits -------------------------------------------------
  le(s.buf_free_cmd, s.buf_cap_cmd, epoch, "buffers", "cmd_free_le_cap");
  le(s.buf_free_read_data, s.buf_cap_read_data, epoch, "buffers",
     "read_data_free_le_cap");
  le(s.buf_free_write_addr, s.buf_cap_write_addr, epoch, "buffers",
     "write_addr_free_le_cap");

  // --- Per-tenant splits --------------------------------------------------
  // Same-callsite identities: each per-tenant counter is bumped at the very
  // site that bumps the fabric total, so the split must sum to the total at
  // every instant.  Empty vectors (single-tenant runs) skip the checks.
  if (!s.tenant_issued.empty()) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : s.tenant_issued) sum += v;
    eq(sum, s.sm_issued, epoch, "tenants", "issued_sums_to_total");
  }
  if (!s.tenant_l2_reads.empty()) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : s.tenant_l2_reads) sum += v;
    eq(sum, s.l2_read_reqs, epoch, "tenants", "l2_reads_sum_to_total");
  }
  if (!s.tenant_gov_instrs.empty()) {
    std::uint64_t sum = 0;
    for (std::uint64_t v : s.tenant_gov_instrs) sum += v;
    eq(sum, s.gov_block_instrs, epoch, "tenants", "gov_instrs_sum_to_total");
  }

  // --- Cycle-stack profiler -----------------------------------------------
  // Exhaustive accounting: every counted cycle of every SM / NSU / vault is
  // in exactly one bucket.  Holds at every instant — classification happens
  // in the same tick that counts the cycle, and reclassification (pending
  // dep -> serve class, dispatch-idle -> drained) is sum-preserving.
  std::uint64_t sm_stack_cycles = 0;
  for (std::size_t i = 0; i < s.cyc_sm_sum.size(); ++i) {
    eq(s.cyc_sm_sum[i], s.cyc_sm_counted[i], epoch, "cycle_stack",
       "sm_bucket_sum_eq_counted");
    sm_stack_cycles += s.cyc_sm_sum[i];
  }
  for (std::size_t i = 0; i < s.cyc_nsu_sum.size(); ++i) {
    eq(s.cyc_nsu_sum[i], s.cyc_nsu_counted[i], epoch, "cycle_stack",
       "nsu_bucket_sum_eq_counted");
  }
  for (std::size_t i = 0; i < s.cyc_vault_sum.size(); ++i) {
    eq(s.cyc_vault_sum[i], s.cyc_vault_counted[i], epoch, "cycle_stack",
       "vault_bucket_sum_eq_counted");
  }
  // No SM lags or runs ahead: every stack was flushed to the same cycle.
  eq(sm_stack_cycles, s.cyc_sm_sum.size() * s.cyc_sm_flushed_to, epoch,
     "cycle_stack", "sm_stacks_cover_flushed_cycles");
  // The stack against counters kept outside it: issue slots, cycles with a
  // valid warp, and the dep cycles parked until their load's serve class
  // is known.
  std::uint64_t sm_active = 0;  // every bucket outside the no-warp group
  for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
    if (sm_bucket_group(static_cast<SmBucket>(b)) != SmBucketGroup::kNoWarp) {
      sm_active += s.cyc_sm_buckets[b];
    }
  }
  eq(s.cyc_sm(SmBucket::kIssue), s.sm_issued, epoch, "cycle_stack", "issue_eq_issued");
  eq(sm_active, s.sm_active_cycles, epoch, "cycle_stack", "active_groups_eq_active_cycles");
  eq(s.cyc_sm(SmBucket::kDepPending), s.sm_parked_dep_cycles, epoch, "cycle_stack",
     "dep_pending_eq_parked");
  // Tenant rows partition the machine: the issue bucket is stamped at the
  // same site as the per-tenant issued counter.
  for (std::size_t t = 0; t < s.cyc_tenant_issue.size(); ++t) {
    if (t < s.tenant_issued.size()) {
      eq(s.cyc_tenant_issue[t], s.tenant_issued[t], epoch, "cycle_stack",
         "tenant_issue_row_eq_issued");
    }
  }

  // --- Latency tracer -----------------------------------------------------
  // Every histogram entry must correspond to a delivered packet the
  // component counters saw.  Classes whose finish site coincides with the
  // counter's increment site are exact at every instant; classes whose span
  // closes a hop later (RDF / NSU-write ACKs finish at the NSU, offload
  // spans at the GPU) lag their producer counter and only tie out drained.
  std::uint64_t lat_total = 0;
  for (std::uint64_t c : s.lat_counts) lat_total += c;
  eq(lat_total, s.lat_finished, epoch, "latency", "class_counts_sum");
  le(s.lat_finished + s.lat_cancelled, s.lat_started, epoch, "latency",
     "lifecycle_le_started");
  // Same-instant identities.
  eq(s.lat(PathClass::kGpuReadL2), s.l2_hits - s.rdf_l2_hits, epoch,
     "latency", "gpu_read_l2_eq_demand_hits");
  eq(s.lat(PathClass::kGpuReadDram), s.mem_read_resps, epoch, "latency",
     "gpu_read_dram_eq_fill_resps");
  eq(s.lat(PathClass::kGpuWrite), s.mem_write_completions, epoch,
     "latency", "gpu_write_eq_completions");
  eq(s.lat_cancelled, s.l2_merged, epoch, "latency",
     "cancelled_eq_l2_merged");
  // Lagging-finish flow bounds.
  le(s.lat(PathClass::kRdfCacheHit), s.sm_rdf_l1_hits + s.rdf_l2_hits,
     epoch, "latency", "rdf_cache_hit_le_hits");
  le(s.lat(PathClass::kRdfLocal) + s.lat(PathClass::kRdfRemote),
     s.rdf_completions, epoch, "latency", "rdf_le_completions");
  le(s.lat(PathClass::kNsuWriteLocal) + s.lat(PathClass::kNsuWriteRemote),
     s.nsu_write_completions, epoch, "latency",
     "nsu_write_le_completions");
  le(s.ofld_acks, s.lat(PathClass::kOfldCmd), epoch, "latency",
     "sm_acks_le_ofld_spans");
  le(s.lat(PathClass::kOfldCmd), s.offloads_started, epoch, "latency",
     "ofld_spans_le_started");
  le(s.lat(PathClass::kCredit), s.offloads_started, epoch, "latency",
     "credits_le_spawns");
}

void StatsAudit::check_epoch(std::uint64_t epoch, const AuditSnapshot& s) {
  ++epochs_checked_;
  const std::int64_t e = static_cast<std::int64_t>(epoch);
  if (have_prev_) {
    for (const CumulativeField& f : kCumulative) {
      le(prev_.*(f.field), s.*(f.field), e, "monotone", f.name);
    }
  }
  instant_checks(e, s);
  prev_ = s;
  have_prev_ = true;
}

void StatsAudit::check_final(const AuditSnapshot& s, bool drained) {
  if (have_prev_) {
    for (const CumulativeField& f : kCumulative) {
      le(prev_.*(f.field), s.*(f.field), -1, "monotone", f.name);
    }
  }
  instant_checks(-1, s);
  if (!drained) return;

  // Strict conservation: the system is drained, so every in-flight term is
  // zero and every producer/consumer pair must agree exactly.
  eq(s.net_in_flight, 0, -1, "network", "drained_in_flight");
  eq(s.net_injected, s.gpu_rx_packets + s.hmc_rx_packets, -1, "network",
     "drained_injected_eq_ejected");
  eq(s.l2_read_reqs, s.mem_reads_created(), -1, "l2",
     "drained_retired_eq_created");
  eq(s.mem_read_resps, s.l2_fill_misses(), -1, "gpu", "drained_fills_eq_misses");
  eq(s.mem_read_completions, s.l2_fill_misses(), -1, "vault",
     "drained_read_completions_eq_misses");
  eq(s.nsu_blocks_completed, s.offloads_started, -1, "offload",
     "drained_completed_eq_started");
  eq(s.ofld_acks, s.offloads_started, -1, "offload",
     "drained_acks_eq_started");
  eq(s.acked_block_instrs, s.nsu_finished_block_instrs, -1, "offload",
     "drained_acked_instrs_eq_finished");
  eq(s.vault_reads,
     s.mem_read_completions + s.rdf_completions + s.page_copy_read_completions,
     -1, "vault", "drained_reads_eq_completions");
  eq(s.vault_writes,
     s.mem_write_completions + s.nsu_write_completions +
         s.page_copy_write_completions,
     -1, "vault", "drained_writes_eq_completions");
  // Drained, every migration's copy has landed: exactly one page of vault
  // reads and one page of vault writes per re-home.
  const std::uint64_t lines_per_page = s.page_bytes / s.line_bytes;
  eq(s.page_copy_read_completions, s.pages_migrated * lines_per_page, -1,
     "mem", "drained_copy_reads_eq_migrations");
  eq(s.page_copy_write_completions, s.pages_migrated * lines_per_page, -1,
     "mem", "drained_copy_writes_eq_migrations");
  // Drained, every load's fill has arrived and its consumer issued, so no
  // dependency cycle can still be parked awaiting its serve class.
  eq(s.cyc_sm(SmBucket::kDepPending), 0, -1, "cycle_stack", "drained_dep_pending");
  eq(s.buf_free_cmd, s.buf_cap_cmd, -1, "buffers", "drained_cmd_credits");
  eq(s.buf_free_read_data, s.buf_cap_read_data, -1, "buffers",
     "drained_read_data_credits");
  eq(s.buf_free_write_addr, s.buf_cap_write_addr, -1, "buffers",
     "drained_write_addr_credits");

  // EnergyCounters must mirror the component stats they were folded from —
  // this is exactly the class of bug that motivated the audit (nsu_lane_ops
  // was silently never folded, zeroing the NSU dynamic energy term).
  eq(s.energy_dram_activates, s.vault_activates, -1, "energy",
     "dram_activates_mirror");
  eq(s.energy_offchip_bytes, s.class_bytes, -1, "energy",
     "offchip_bytes_mirror");
  eq(s.energy_nsu_lane_ops, s.nsu_lane_ops, -1, "energy",
     "nsu_lane_ops_mirror");

  // Drained, every lagging span has closed: per-class histogram counts must
  // equal the delivered-packet counts exactly, and the span lifecycle must
  // balance.  A tracked request that vanished (span never finished or
  // cancelled) or was double-counted shows up here.
  eq(s.lat_started, s.lat_finished + s.lat_cancelled, -1, "latency",
     "drained_lifecycle");
  eq(s.lat(PathClass::kRdfCacheHit), s.sm_rdf_l1_hits + s.rdf_l2_hits, -1,
     "latency", "drained_rdf_cache_hit");
  eq(s.lat(PathClass::kRdfLocal) + s.lat(PathClass::kRdfRemote),
     s.rdf_completions, -1, "latency", "drained_rdf_eq_completions");
  eq(s.lat(PathClass::kNsuWriteLocal) + s.lat(PathClass::kNsuWriteRemote),
     s.nsu_write_completions, -1, "latency",
     "drained_nsu_write_eq_completions");
  eq(s.lat(PathClass::kOfldCmd), s.ofld_acks, -1, "latency",
     "drained_ofld_eq_acks");
  eq(s.lat(PathClass::kCredit), s.offloads_started, -1, "latency",
     "drained_credit_eq_spawns");
  // Every demand L2 read either hit, filled from DRAM, or merged.
  eq(s.lat(PathClass::kGpuReadL2) + s.lat(PathClass::kGpuReadDram) +
         s.lat_cancelled,
     s.l2_read_reqs, -1, "latency", "drained_read_outcomes");
}

std::string StatsAudit::first_violation_message() const {
  if (violations_.empty()) return {};
  return violations_.front().to_string();
}

void StatsAudit::export_stats(StatSet& out) const {
  out.set("audit.checks", static_cast<double>(checks_run_));
  out.set("audit.epochs", static_cast<double>(epochs_checked_));
  out.set("audit.violations",
          static_cast<double>(violations_.size() + suppressed_violations_));
}

}  // namespace sndp
