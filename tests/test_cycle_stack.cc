// Cycle-stack profiler tests (src/obs/cycle_stack.*; ctest label:
// integration — every case is an end-to-end simulator run).
//
//  * Sum-to-runtime: for every Table-1 workload and operator kernel, under
//    fast-forward on/off, the machine SM stack must cover every consumed SM
//    edge of every SM, the bucket groups must reproduce the legacy Fig. 8
//    stall counters, and the stacks must be bit-identical across both
//    stepping modes.  (Per-component
//    sum==counted is additionally enforced by StatsAudit on each of these
//    runs — a violation throws out of Simulator::run.)
//
//  * Tenant partition: on multi-tenant runs under every CTA arbiter, the
//    tenant rows plus the shared row partition each machine bucket total,
//    and each tenant's issue row equals its issued-instruction counter.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "sndp.h"

namespace sndp {
namespace {

SystemConfig tiny_cfg() {
  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.mode = OffloadMode::kDynamicCache;
  cfg.governor.epoch_cycles = 1000;  // scaled epoch (EXPERIMENTS.md)
  return cfg;
}

RunResult run_tiny(const std::string& wl, const SystemConfig& cfg) {
  auto w = make_workload(wl, ProblemScale::kTiny);
  RunResult r = Simulator(cfg).run(*w);
  EXPECT_TRUE(r.completed) << wl;
  EXPECT_TRUE(r.verified) << wl;
  return r;
}

void expect_stacks_equal(const CycleStackSummary& a, const CycleStackSummary& b,
                         const std::string& what) {
  EXPECT_EQ(a.sm.rows, b.sm.rows) << what << ": sm stack diverged";
  EXPECT_EQ(a.nsu.rows, b.nsu.rows) << what << ": nsu stack diverged";
  EXPECT_EQ(a.vault.rows, b.vault.rows) << what << ": vault stack diverged";
}

TEST(CycleStack, SumToRuntimeAllWorkloadsAllModes) {
  for (const std::string& wl : all_workload_names()) {
    SystemConfig base = tiny_cfg();
    const RunResult r = run_tiny(wl, base);

    // Exhaustiveness: the SM stack covers every consumed SM edge (cycles
    // 0..sm_cycles inclusive) of every SM — nothing dropped, nothing
    // double-counted.
    const std::uint64_t edges_per_sm = static_cast<std::uint64_t>(r.sm_cycles) + 1;
    EXPECT_EQ(r.cycle_stack.sm.total(), base.num_sms * edges_per_sm) << wl;

    // The bucket groups reproduce the legacy Fig. 8 counters exactly.
    std::uint64_t exec = 0, dep = 0, idle = 0;
    for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
      const std::uint64_t n = r.cycle_stack.sm.bucket_total(b);
      switch (sm_bucket_group(static_cast<SmBucket>(b))) {
        case SmBucketGroup::kExecBusy: exec += n; break;
        case SmBucketGroup::kDep: dep += n; break;
        case SmBucketGroup::kWarpIdle: idle += n; break;
        case SmBucketGroup::kIssue:
        case SmBucketGroup::kNoWarp: break;
      }
    }
    EXPECT_EQ(exec, r.stall_exec_busy) << wl;
    EXPECT_EQ(dep, r.stall_dependency) << wl;
    EXPECT_EQ(idle, r.stall_warp_idle) << wl;
    // All retroactive dep attributions resolved by the end of a drained run.
    EXPECT_EQ(r.cycle_stack.sm.bucket_total(
                  static_cast<std::size_t>(SmBucket::kDepPending)),
              0u)
        << wl;

    // Bit-identity across stepping modes: fast-forward off must reproduce
    // the same stacks.
    SystemConfig noff = base;
    noff.fast_forward = false;
    expect_stacks_equal(r.cycle_stack, run_tiny(wl, noff).cycle_stack,
                        wl + " ff-off");
  }
}

TEST(CycleStack, TenantRowsPartitionTotalsUnderEveryArbiter) {
  for (TenantArbiter arb : {TenantArbiter::kRoundRobin, TenantArbiter::kWeightedShare,
                            TenantArbiter::kStrictPriority}) {
    SystemConfig cfg = tiny_cfg();
    cfg.tenancy.arbiter = arb;
    auto wl_a = make_workload("VADD", ProblemScale::kTiny);
    auto wl_b = make_workload("KMN", ProblemScale::kTiny);
    std::vector<TenantDesc> descs{{wl_a.get(), 2.0, 0}, {wl_b.get(), 1.0, 1}};
    const RunResult r = Simulator(cfg).run_tenants(descs, "VADD+KMN");
    ASSERT_TRUE(r.completed);
    ASSERT_TRUE(r.verified);
    ASSERT_EQ(r.cycle_stack.tenants, 2u);
    ASSERT_EQ(r.cycle_stack.sm.rows.size(), 3u);  // t0, t1, shared

    // Tenant rows + shared row partition every machine bucket total, for
    // every component stack.
    for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
      std::uint64_t rows = 0;
      for (const auto& row : r.cycle_stack.sm.rows) rows += row[b];
      EXPECT_EQ(rows, r.cycle_stack.sm.bucket_total(b));
    }
    // Each tenant's issue row is exactly its issued-instruction counter (no
    // cross-tenant bleed), and the shared row never issues.
    ASSERT_EQ(r.tenants.size(), 2u);
    const auto issue = static_cast<std::size_t>(SmBucket::kIssue);
    EXPECT_EQ(r.cycle_stack.sm.rows[0][issue], r.tenants[0].issued);
    EXPECT_EQ(r.cycle_stack.sm.rows[1][issue], r.tenants[1].issued);
    EXPECT_EQ(r.cycle_stack.sm.rows[2][issue], 0u);
    // Idle/drained machine time lands on the shared row only.
    const auto drained = static_cast<std::size_t>(SmBucket::kDrained);
    EXPECT_EQ(r.cycle_stack.sm.rows[0][drained], 0u);
    EXPECT_EQ(r.cycle_stack.sm.rows[1][drained], 0u);
  }
}

}  // namespace
}  // namespace sndp
