// Tests for the cross-component flow-conservation audit: consistent books
// pass silently, a corrupted counter trips an epoch-precise violation with
// the offending component and delta, and real simulator runs balance.
#include <gtest/gtest.h>

#include "sndp.h"

namespace sndp {
namespace {

// A self-consistent snapshot scaled by `k`: every instant invariant and
// every drained conservation equality holds, and fields grow monotonically
// with k.  Mirrors a plausible flow: 5k L1 misses of which k are RDF-probe
// misses, 4k kMemRead packets, 2k L2 fill misses, k RDF DRAM reads.
AuditSnapshot consistent(std::uint64_t k) {
  AuditSnapshot s;
  s.sm_issued = 100 * k;
  // The SM stacks' issue bucket: every active cycle issued.
  s.cyc_sm_buckets[static_cast<std::size_t>(SmBucket::kIssue)] = 100 * k;
  s.sm_active_cycles = 100 * k;
  s.l1_hits = 10 * k;
  s.l1_miss_new = 5 * k;
  s.l1_merged = k;
  s.sm_rdf_probes = 2 * k;
  s.sm_rdf_l1_hits = k;  // k probe misses travel on as RDF packets
  s.offloads_started = 2 * k;
  s.inline_blocks = k;
  s.ofld_acks = 2 * k;
  s.inline_block_instrs = 10 * k;
  s.acked_block_instrs = 20 * k;
  s.gov_block_instrs = 30 * k;

  s.l2_read_reqs = 4 * k;  // == mem_reads_created()
  s.rdf_l2_probes = k;
  s.rdf_l2_hits = 0;
  s.l2_hits = 2 * k;
  s.l2_miss_new = 3 * k;  // 2k demand fills + k RDF probe misses
  s.l2_merged = 0;
  s.mem_read_resps = 2 * k;  // == l2_fill_misses()
  s.gpu_rx_packets = 5 * k;

  s.net_injected = 11 * k;
  s.hmc_rx_packets = 6 * k;
  s.net_in_flight = 0;
  s.link_bytes = 1000 * k;
  s.class_bytes = 1000 * k;

  s.vault_reads = 3 * k;
  s.vault_writes = k;
  s.vault_activates = 3 * k;
  s.mem_read_completions = 2 * k;
  s.rdf_completions = k;
  s.mem_write_completions = k;
  s.nsu_write_completions = 0;
  s.dram_read_bytes = 3 * k * s.line_bytes;
  s.dram_write_bytes = 64 * k;

  s.nsu_blocks_completed = 2 * k;
  s.nsu_instrs = 2 * k;
  s.nsu_lane_ops = 50 * k;
  s.nsu_finished_block_instrs = 20 * k;

  s.buf_free_cmd = s.buf_cap_cmd = 8 * k;
  s.buf_free_read_data = s.buf_cap_read_data = 8 * k;
  s.buf_free_write_addr = s.buf_cap_write_addr = 8 * k;

  s.energy_dram_activates = 3 * k;
  s.energy_offchip_bytes = 1000 * k;
  s.energy_nsu_lane_ops = 50 * k;

  // One closed span per delivered request: the 2k demand L2 hits and 2k
  // fills, k stores, k L1-served RDFs, k vault RDFs, and 2k offload and
  // 2k credit round trips.
  auto lat = [&s](PathClass c) -> std::uint64_t& {
    return s.lat_counts[static_cast<std::size_t>(c)];
  };
  lat(PathClass::kGpuReadL2) = 2 * k;
  lat(PathClass::kGpuReadDram) = 2 * k;
  lat(PathClass::kGpuWrite) = k;
  lat(PathClass::kRdfCacheHit) = k;
  lat(PathClass::kRdfLocal) = k;
  lat(PathClass::kOfldCmd) = 2 * k;
  lat(PathClass::kCredit) = 2 * k;
  s.lat_finished = 11 * k;
  s.lat_started = 11 * k;
  return s;
}

TEST(StatsAudit, ConsistentSnapshotsPassEveryCheck) {
  StatsAudit audit;
  for (std::uint64_t e = 0; e < 5; ++e) audit.check_epoch(e, consistent(e + 1));
  audit.check_final(consistent(6), /*drained=*/true);
  EXPECT_TRUE(audit.ok());
  EXPECT_TRUE(audit.violations().empty());
  EXPECT_GT(audit.checks_run(), 0u);
}

TEST(StatsAudit, DefaultSnapshotIsVacuouslyConsistent) {
  StatsAudit audit;
  audit.check_epoch(0, AuditSnapshot{});
  audit.check_final(AuditSnapshot{}, /*drained=*/true);
  EXPECT_TRUE(audit.ok());
}

TEST(StatsAudit, CorruptedCounterTripsEpochPreciseViolation) {
  StatsAudit audit;
  for (std::uint64_t e = 0; e < 3; ++e) audit.check_epoch(e, consistent(e + 1));
  ASSERT_TRUE(audit.ok());

  // Lose one injected packet at epoch 3: the NoC books no longer balance.
  AuditSnapshot bad = consistent(4);
  bad.net_injected -= 1;
  audit.check_epoch(3, bad);

  ASSERT_FALSE(audit.ok());
  const AuditViolation& v = audit.violations().front();
  EXPECT_EQ(v.epoch, 3);
  EXPECT_EQ(v.component, "network");
  EXPECT_EQ(v.check, "packet_conservation");
  EXPECT_DOUBLE_EQ(v.delta(), -1.0);
  EXPECT_NE(v.to_string().find("epoch 3"), std::string::npos);
  EXPECT_NE(audit.first_violation_message().find("network.packet_conservation"),
            std::string::npos);
}

TEST(StatsAudit, BackwardsCounterTripsMonotonicityCheck) {
  StatsAudit audit;
  audit.check_epoch(0, consistent(2));
  AuditSnapshot shrunk = consistent(2);
  shrunk.vault_reads -= 1;  // a cumulative counter must never decrease
  audit.check_epoch(1, shrunk);
  ASSERT_FALSE(audit.ok());
  // The regressed total also breaks flow identities; the monotone check must
  // be among the findings and carry the offending epoch.
  bool found = false;
  for (const AuditViolation& v : audit.violations()) {
    if (v.component == "monotone" && v.check == "vault_reads") {
      EXPECT_EQ(v.epoch, 1);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(StatsAudit, UnfoldedEnergyMirrorTripsFinalCheck) {
  // The motivating bug: NSU lane-ops were counted by every NSU but never
  // folded into EnergyCounters, silently zeroing the NSU dynamic energy.
  StatsAudit audit;
  AuditSnapshot s = consistent(3);
  s.energy_nsu_lane_ops = 0;
  audit.check_final(s, /*drained=*/true);
  ASSERT_FALSE(audit.ok());
  const AuditViolation& v = audit.violations().front();
  EXPECT_EQ(v.epoch, -1);  // end-of-run
  EXPECT_EQ(v.component, "energy");
  EXPECT_EQ(v.check, "nsu_lane_ops_mirror");
  EXPECT_NE(v.to_string().find("end-of-run"), std::string::npos);
}

TEST(StatsAudit, UndrainedRunSkipsStrictEqualities) {
  // Mid-flight snapshot: packets in the network, blocks not yet completed.
  AuditSnapshot s = consistent(3);
  s.net_in_flight = 2;
  s.net_injected += 2;
  s.nsu_blocks_completed -= 1;
  s.ofld_acks -= 1;
  StatsAudit audit;
  audit.check_final(s, /*drained=*/false);
  EXPECT_TRUE(audit.ok());  // inequalities hold; equalities not asserted
  StatsAudit strict;
  strict.check_final(s, /*drained=*/true);
  EXPECT_FALSE(strict.ok());
}

TEST(StatsAudit, ViolationListIsBoundedButCounted) {
  StatsAudit audit;
  AuditSnapshot s = consistent(1);
  s.net_injected += 1;  // one violated check per epoch
  for (std::uint64_t e = 0; e < 200; ++e) audit.check_epoch(e, s);
  EXPECT_LE(audit.violations().size(), 64u);
  StatSet out;
  audit.export_stats(out);
  EXPECT_DOUBLE_EQ(out.get("audit.violations"), 200.0);
  EXPECT_DOUBLE_EQ(out.get("audit.epochs"), 200.0);
}

TEST(StatsAudit, RealRunsBalanceAcrossModes) {
  for (OffloadMode mode : {OffloadMode::kOff, OffloadMode::kAlways,
                           OffloadMode::kDynamicCache}) {
    SystemConfig cfg = SystemConfig::small_test();
    cfg.governor.mode = mode;
    cfg.governor.epoch_cycles = 500;  // force many epoch-boundary checks
    auto wl = make_workload("BFS", ProblemScale::kTiny);
    const RunResult r = Simulator(cfg).run(*wl);  // throws if the audit fails
    EXPECT_TRUE(r.verified);
    EXPECT_DOUBLE_EQ(r.stats.get("audit.violations"), 0.0);
    EXPECT_GT(r.stats.get("audit.checks"), 0.0);
    EXPECT_GT(r.stats.get("audit.epochs"), 0.0);
  }
}

}  // namespace
}  // namespace sndp
