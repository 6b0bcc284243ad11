// Multi-tenant serving test matrix (ctest label: integration).
//
// Pins the tenancy contract from DESIGN.md "Multi-tenant serving":
//
//  * one tenant is the classic single-kernel path, bit-identical stats;
//  * multi-tenant runs are deterministic and bit-identical across
//    fast-forward on/off;
//  * a strict-priority top tenant's output bytes are identical to a solo
//    run of the same workload (disjoint address spaces + issue-time
//    functional writes make outputs interference-independent);
//  * the run only completes once EVERY tenant's CTA queue has drained —
//    not just tenant 0's;
//  * per-tenant offload governors do not cross-contaminate: each tenant's
//    completed-block-instruction total in a mix equals its solo total,
//    and every tenant's governor ends each epoch;
//  * the StatsAudit per-tenant splits sum to the fabric totals, and the
//    per-tenant latency histograms partition the per-class histograms.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sndp.h"

namespace sndp {
namespace {

SystemConfig tenant_cfg() {
  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.mode = OffloadMode::kDynamicCache;
  cfg.governor.epoch_cycles = 1000;  // scaled epoch (EXPERIMENTS.md)
  return cfg;
}

struct Mix {
  std::string name;
  ProblemScale scale = ProblemScale::kTiny;
  double weight = 1.0;
  unsigned priority = 0;
};

RunResult run_mix(const SystemConfig& cfg, const std::vector<Mix>& mix,
                  GlobalMemory* sink = nullptr,
                  std::vector<std::unique_ptr<Workload>>* keep = nullptr) {
  std::vector<std::unique_ptr<Workload>> local;
  std::vector<std::unique_ptr<Workload>>& wls = keep != nullptr ? *keep : local;
  std::vector<TenantDesc> descs;
  for (const Mix& m : mix) {
    wls.push_back(make_workload(m.name, m.scale));
    descs.push_back(TenantDesc{wls.back().get(), m.weight, m.priority});
  }
  Simulator sim(cfg);
  if (sink != nullptr) sim.set_final_memory_sink(sink);
  return sim.run_tenants(descs, "mix");
}

TEST(Tenant, SingleTenantBitIdenticalToClassicPath) {
  const SystemConfig cfg = tenant_cfg();
  auto solo = make_workload("VADD", ProblemScale::kTiny);
  RunResult classic = Simulator(cfg).run(*solo);
  RunResult one = run_mix(cfg, {{"VADD"}});
  EXPECT_TRUE(classic.completed && classic.verified);
  EXPECT_TRUE(one.completed && one.verified);
  EXPECT_EQ(classic.sm_cycles, one.sm_cycles);
  EXPECT_TRUE(one.tenants.empty());  // single-tenant results stay classic
  EXPECT_EQ(classic.stats.values(), one.stats.values());
  // No tenant-keyed stats leak into single-tenant output.
  for (const auto& [k, v] : one.stats.values()) {
    EXPECT_EQ(k.rfind("gpu.t0", 0), std::string::npos) << k;
    (void)v;
  }
}

TEST(Tenant, MultiTenantDeterministicAcrossFastForward) {
  const std::vector<Mix> mix{{"VADD"}, {"KMN"}};
  std::vector<RunResult> runs;
  std::vector<GlobalMemory> mems(2);
  unsigned i = 0;
  for (const bool ff : {true, false}) {
    SystemConfig cfg = tenant_cfg();
    cfg.fast_forward = ff;
    runs.push_back(run_mix(cfg, mix, &mems[i++]));
  }
  for (const RunResult& r : runs) {
    ASSERT_TRUE(r.completed && r.verified);
    ASSERT_EQ(r.tenants.size(), 2u);
  }
  for (unsigned k = 1; k < runs.size(); ++k) {
    EXPECT_EQ(runs[0].sm_cycles, runs[k].sm_cycles) << "variant " << k;
    EXPECT_EQ(runs[0].stats.values(), runs[k].stats.values()) << "variant " << k;
    for (unsigned t = 0; t < 2; ++t) {
      EXPECT_EQ(runs[0].tenants[t].finish_cycle, runs[k].tenants[t].finish_cycle);
      EXPECT_EQ(runs[0].tenants[t].issued, runs[k].tenants[t].issued);
      EXPECT_EQ(runs[0].tenants[t].l2_misses, runs[k].tenants[t].l2_misses);
    }
    Addr diff = 0;
    EXPECT_TRUE(mems[0].equal_contents(mems[k], &diff))
        << "variant " << k << " memory diverges at 0x" << std::hex << diff;
  }
}

TEST(Tenant, StrictPriorityTopTenantByteIdenticalToSolo) {
  SystemConfig cfg = tenant_cfg();
  auto solo = make_workload("VADD", ProblemScale::kTiny);
  GlobalMemory solo_mem;
  {
    Simulator sim(cfg);
    sim.set_final_memory_sink(&solo_mem);
    ASSERT_TRUE(sim.run(*solo).verified);
  }
  cfg.tenancy.arbiter = TenantArbiter::kStrictPriority;
  GlobalMemory mix_mem;
  std::vector<std::unique_ptr<Workload>> wls;
  const RunResult r = run_mix(
      cfg, {{"VADD", ProblemScale::kTiny, 1.0, 0}, {"KMN", ProblemScale::kTiny, 1.0, 1}},
      &mix_mem, &wls);
  ASSERT_TRUE(r.completed && r.verified);
  // Tenant 0 shares its base address and setup seed with the solo run, so
  // its entire output must match the solo bytes exactly.
  for (const OutputRegion& region : wls[0]->output_regions()) {
    Addr diff = 0;
    EXPECT_TRUE(mix_mem.equal_range(solo_mem, region.base, region.bytes, &diff))
        << region.name << " diverges at 0x" << std::hex << diff;
  }
}

TEST(Tenant, CompletionWaitsForEveryTenant) {
  // Tenant 1 has strictly more work (kSmall) than tenant 0 (kTiny): the
  // run may only report completed once tenant 1's queue drained too.
  const RunResult r =
      run_mix(tenant_cfg(), {{"VADD", ProblemScale::kTiny}, {"KMN", ProblemScale::kSmall}});
  ASSERT_TRUE(r.completed);
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_TRUE(r.tenants[0].verified);
  EXPECT_TRUE(r.tenants[1].verified);
  EXPECT_GT(r.tenants[1].finish_cycle, 0u);
  EXPECT_GT(r.tenants[1].finish_cycle, r.tenants[0].finish_cycle);
  EXPECT_LE(r.tenants[1].finish_cycle, r.sm_cycles);
  EXPECT_GT(r.tenants[1].issued, r.tenants[0].issued);
}

TEST(Tenant, PerTenantGovernorsDoNotCrossContaminate) {
  // Every block instance completes exactly once, so a workload's total
  // completed-block-instruction count is a timing-independent constant.
  // With a shared governor both tenants' completions would fold into one
  // counter; per-tenant governors must reproduce each solo total exactly.
  const SystemConfig cfg = tenant_cfg();
  std::map<std::string, double> solo_instrs;
  for (const std::string& name : {std::string("VADD"), std::string("KMN")}) {
    auto wl = make_workload(name, ProblemScale::kTiny);
    solo_instrs[name] = Simulator(cfg).run(*wl).stats.get("governor.block_instrs");
  }
  const RunResult r = run_mix(cfg, {{"VADD"}, {"KMN"}});
  ASSERT_EQ(r.tenants.size(), 2u);
  EXPECT_EQ(static_cast<double>(r.tenants[0].gov_block_instrs), solo_instrs["VADD"]);
  EXPECT_EQ(static_cast<double>(r.tenants[1].gov_block_instrs), solo_instrs["KMN"]);
}

TEST(Tenant, AuditSumsAndLatencyPartitionByTenant) {
  const RunResult r = run_mix(tenant_cfg(), {{"BFS"}, {"VADD"}, {"KMN"}});
  ASSERT_TRUE(r.completed && r.verified);  // audit throws on violation
  ASSERT_EQ(r.tenants.size(), 3u);
  double issued = 0, l2 = 0;
  for (unsigned t = 0; t < 3; ++t) {
    const std::string p = "gpu.t" + std::to_string(t);
    issued += r.stats.get(p + ".issued_instrs");
    l2 += r.stats.get(p + ".l2_hits") + r.stats.get(p + ".l2_misses") +
          r.stats.get(p + ".l2_merged");
  }
  EXPECT_EQ(issued, r.stats.get("gpu.issued_instrs"));
  EXPECT_EQ(l2, r.stats.get("gpu.l2_read_reqs"));
  // The per-tenant histograms partition each path class exactly.
  ASSERT_EQ(r.latency.per_tenant.size(), 3u);
  for (std::size_t c = 0; c < kNumPathClasses; ++c) {
    std::uint64_t sum = 0;
    for (const auto& per_class : r.latency.per_tenant) sum += per_class[c].count();
    EXPECT_EQ(sum, r.latency.per_class[c].count())
        << path_class_name(static_cast<PathClass>(c));
  }
}

TEST(Tenant, QosKnobsAndArbitersCompleteDeterministically) {
  for (const TenantArbiter arb :
       {TenantArbiter::kRoundRobin, TenantArbiter::kWeightedShare,
        TenantArbiter::kStrictPriority}) {
    SystemConfig cfg = tenant_cfg();
    cfg.tenancy.arbiter = arb;
    cfg.tenancy.nsu_warp_quota = 4;
    cfg.tenancy.credit_share = 0.5;
    const std::vector<Mix> mix{{"VADD", ProblemScale::kTiny, 2.0, 1},
                               {"KMN", ProblemScale::kTiny, 1.0, 0}};
    const RunResult a = run_mix(cfg, mix);
    const RunResult b = run_mix(cfg, mix);
    ASSERT_TRUE(a.completed && a.verified) << static_cast<int>(arb);
    EXPECT_EQ(a.sm_cycles, b.sm_cycles) << static_cast<int>(arb);
    EXPECT_EQ(a.stats.values(), b.stats.values()) << static_cast<int>(arb);
    EXPECT_GE(a.stats.get("bufmgr.denials_qos"), 0.0);
  }
}

// Every tenant's governor climbs from its own epochs: a mix whose governors
// all end each epoch lands on these pins in both stepping modes.  If only
// tenant 0's governor rolled, VADD and KMN would keep their initial ratio:
// 4878 cycles, and finish/misses of 1110/224 and 986/122.
TEST(Tenant, EveryGovernorEndsEachEpoch) {
  for (const bool ff : {true, false}) {
    SystemConfig cfg = SystemConfig::paper();
    cfg.governor.mode = OffloadMode::kDynamic;
    cfg.governor.epoch_cycles = 250;
    cfg.tenancy.arbiter = TenantArbiter::kWeightedShare;
    cfg.fast_forward = ff;
    const RunResult r = run_mix(cfg, {{"BFS", ProblemScale::kTiny, 2.0, 0}, {"VADD"}, {"KMN"}});
    ASSERT_TRUE(r.completed && r.verified) << "ff " << ff;
    ASSERT_EQ(r.tenants.size(), 3u);
    EXPECT_EQ(r.sm_cycles, 5046u) << "ff " << ff;
    const std::uint64_t finish[] = {5046, 1205, 1023};
    const std::uint64_t misses[] = {512, 196, 110};
    for (unsigned t = 0; t < 3; ++t) {
      EXPECT_EQ(r.tenants[t].finish_cycle, finish[t]) << "tenant " << t << " ff " << ff;
      EXPECT_EQ(r.tenants[t].l2_misses, misses[t]) << "tenant " << t << " ff " << ff;
    }
  }
}

// A credit share below one block's read-data need can never grant that
// block: the run is refused up front instead of polling until the valve.
TEST(Tenant, RefusesCreditShareSmallerThanOneBlock) {
  SystemConfig cfg = tenant_cfg();
  cfg.tenancy.credit_share = 0.0039;  // ceil(0.0039 * 256) = 1 entry per tenant
  cfg.max_time_ps = 5'000'000;  // a run that is not refused stops early
  try {
    run_mix(cfg, {{"BFS"}, {"VADD"}});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("tenant 0 (BFS) block"), std::string::npos) << what;
    EXPECT_NE(what.find("needs 2 read-data"), std::string::npos) << what;
    EXPECT_NE(what.find("at most 1 and 1"), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace sndp
