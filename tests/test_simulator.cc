// Simulator-facade tests: safety valve, config plumbing, stepping identity.
#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "sndp.h"

namespace sndp {
namespace {

TEST(SimulatorFacade, SafetyValveStopsRunaway) {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.max_time_ps = 50'000;  // 50 ns: far too little to finish
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  EXPECT_FALSE(r.completed);
  EXPECT_FALSE(r.verified);
  EXPECT_GE(r.runtime_ps, 50'000u);
}

TEST(SimulatorFacade, SafetyValveRuntimeTightlyBounded) {
  // Regression: the main loop used to step 64 edges between valve checks,
  // so runtime_ps could overshoot max_time_ps by a whole burst.  With the
  // in-burst check the overshoot is at most one clock edge — bounded by
  // the slowest domain's period (NSU @ 350 MHz ~ 2858 ps).
  SystemConfig cfg = SystemConfig::small_test();
  cfg.max_time_ps = 50'000;
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  ASSERT_FALSE(r.completed);
  const auto overshoot = r.runtime_ps - cfg.max_time_ps;
  EXPECT_LE(overshoot, 3000u);
  // ... and the overshoot is exported so incomplete runs are diagnosable.
  EXPECT_DOUBLE_EQ(r.stats.get("sim.valve_overshoot_ps"), static_cast<double>(overshoot));
  EXPECT_DOUBLE_EQ(r.stats.get("sim.completed"), 0.0);
  EXPECT_DOUBLE_EQ(r.stats.get("sim.aborted"), 0.0);
}

TEST(SimulatorFacade, CompletedRunReportsZeroOvershoot) {
  SystemConfig cfg = SystemConfig::small_test();
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  ASSERT_TRUE(r.completed);
  EXPECT_DOUBLE_EQ(r.stats.get("sim.valve_overshoot_ps"), 0.0);
}

TEST(SimulatorFacade, AbortPollStopsRun) {
  SystemConfig cfg = SystemConfig::small_test();
  Simulator sim(cfg);
  sim.set_abort_poll([] { return true; });  // abort at the first burst
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = sim.run(*wl);
  EXPECT_TRUE(r.aborted);
  EXPECT_FALSE(r.completed);
  EXPECT_DOUBLE_EQ(r.stats.get("sim.aborted"), 1.0);
}

TEST(SimulatorFacade, RejectsInvalidConfig) {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.num_hmcs = 0;
  EXPECT_THROW(Simulator{cfg}, std::invalid_argument);
}

// The message of the std::invalid_argument `run` throws, or "" if none.
template <typename F>
std::string invalid_argument_message(F&& run) {
  try {
    run();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(SimulatorFacade, RunTenantsRejectsNullWorkload) {
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  Simulator sim(SystemConfig::small_test());
  const std::vector<TenantDesc> descs = {TenantDesc{wl.get()}, TenantDesc{nullptr}};
  const std::string msg = invalid_argument_message([&] { sim.run_tenants(descs, "mix"); });
  EXPECT_NE(msg.find("tenant 1"), std::string::npos) << msg;
}

TEST(SimulatorFacade, RunImagesRejectsNullImage) {
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const KernelImage image = analyze_and_generate(wl->program());
  TenantJob first;
  first.image = &image;
  first.launch = wl->launch();
  TenantJob second = first;
  second.image = nullptr;
  GlobalMemory gmem;
  Simulator sim(SystemConfig::small_test());
  const std::string msg =
      invalid_argument_message([&] { sim.run_images({first, second}, gmem, "mix"); });
  EXPECT_NE(msg.find("tenant 1"), std::string::npos) << msg;
}

TEST(SimulatorFacade, NsuFrequencyScalesNdpRuntime) {
  // §7.6 in miniature: a slower NSU lengthens always-offload runs.
  SystemConfig fast_cfg = SystemConfig::small_test();
  fast_cfg.governor.mode = OffloadMode::kAlways;
  SystemConfig slow_cfg = fast_cfg;
  slow_cfg.clocks.nsu_khz = 87'500;  // 1/4 speed
  auto wl1 = make_workload("SP", ProblemScale::kTiny);
  auto wl2 = make_workload("SP", ProblemScale::kTiny);
  const RunResult fast = Simulator(fast_cfg).run(*wl1);
  const RunResult slow = Simulator(slow_cfg).run(*wl2);
  EXPECT_TRUE(slow.verified);
  EXPECT_GT(slow.sm_cycles, fast.sm_cycles);
}

TEST(SimulatorFacade, HmcCountChangesPlacementSpread) {
  SystemConfig cfg1 = SystemConfig::small_test();
  cfg1.num_hmcs = 1;  // degenerate hypercube: everything is local
  cfg1.governor.mode = OffloadMode::kAlways;
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg1).run(*wl);
  EXPECT_TRUE(r.verified);
  EXPECT_EQ(r.cube_link_bytes, 0u);  // no inter-stack links exist
}

// Fast-forward determinism (the ISSUE's acceptance bar): idle fast-forward
// must be a pure wall-clock optimisation.  Every workload, run with
// sim.fast_forward on and off, must produce byte-identical stat maps and
// the exact same final runtime_ps / sm_cycles.
class FastForwardDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(FastForwardDeterminism, StatsAreByteIdenticalToNaiveStepping) {
  const std::string name = GetParam();
  for (OffloadMode mode : {OffloadMode::kOff, OffloadMode::kDynamicCache}) {
    SystemConfig cfg = SystemConfig::small_test();
    cfg.governor.mode = mode;

    cfg.fast_forward = true;
    auto wl_ff = make_workload(name, ProblemScale::kTiny);
    const RunResult ff = Simulator(cfg).run(*wl_ff);

    cfg.fast_forward = false;
    auto wl_nv = make_workload(name, ProblemScale::kTiny);
    const RunResult naive = Simulator(cfg).run(*wl_nv);

    EXPECT_TRUE(ff.completed);
    EXPECT_EQ(ff.runtime_ps, naive.runtime_ps) << name;
    EXPECT_EQ(ff.sm_cycles, naive.sm_cycles) << name;
    // The full exported stat maps (every counter in the system) must match
    // key-for-key and bit-for-bit.
    EXPECT_EQ(ff.stats.values(), naive.stats.values()) << name;
  }
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, FastForwardDeterminism,
                         ::testing::Values("BPROP", "BFS", "BICG", "FWT", "KMN", "MiniFE",
                                           "SP", "STN", "STCL", "VADD", "GEMM", "SPMV",
                                           "REDUCE", "ATTN"));

TEST(SimulatorFacade, EnergyCountersAreConsistent) {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = OffloadMode::kDynamicCache;
  auto wl = make_workload("BICG", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  EXPECT_EQ(r.counters.offchip_bytes, r.gpu_link_bytes + r.cube_link_bytes);
  EXPECT_GT(r.counters.sm_lane_ops, 0u);
  EXPECT_GT(r.counters.dram_read_bytes, 0u);
  EXPECT_GT(r.counters.sm_active_seconds, 0.0);
  EXPECT_GT(r.energy.total(), 0.0);
}

TEST(SimulatorFacade, NsuLaneOpsFoldIntoEnergy) {
  // Regression (found by the flow audit's energy-mirror check): NSU lane
  // ops were counted per NSU but never folded into EnergyCounters, so the
  // NSU dynamic energy term was always zero for any offloading run.
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = OffloadMode::kAlways;
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  ASSERT_TRUE(r.verified);
  ASSERT_GT(r.stats.get("governor.offloads"), 0.0);
  EXPECT_GT(r.counters.nsu_lane_ops, 0u);
  EXPECT_GT(r.energy.nsu_j, 0.0);
  // The counter mirrors the per-NSU totals exactly.
  EXPECT_EQ(static_cast<double>(r.counters.nsu_lane_ops),
            r.stats.sum_matching("hmc", ".nsu.lane_ops"));
}

TEST(SimulatorFacade, MigrationChargesPageCopyTraffic) {
  // Regression: a migration re-home used to flip the page map for free.
  // Now the old home reads the page line-by-line, ships one bulk packet
  // over the cube links, and the new home writes the lines back through
  // its vaults — and the flow audit pairs that traffic with
  // mem.pages_migrated exactly on a drained run.
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = OffloadMode::kAlways;
  cfg.placement.policy = PlacementPolicyKind::kMigration;
  cfg.placement.migration_threshold = 1;
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  ASSERT_TRUE(r.verified);
  ASSERT_TRUE(r.completed);
  const double migrated = r.stats.get("mem.pages_migrated");
  ASSERT_GT(migrated, 0.0);
  const double lines = static_cast<double>(cfg.page_bytes / cfg.l2.line_bytes);
  EXPECT_EQ(r.stats.sum_matching("hmc", ".page_copy_reads"), migrated * lines);
  EXPECT_EQ(r.stats.sum_matching("hmc", ".page_copy_writes"), migrated * lines);
  // Each migrated page crosses the inter-stack links at least once.
  EXPECT_GE(static_cast<double>(r.cube_link_bytes),
            migrated * static_cast<double>(cfg.page_bytes));
  EXPECT_EQ(r.stats.get("audit.violations"), 0.0);
}

TEST(SimulatorFacade, TraceWriteFailureIsSurfacedInStats) {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.trace_path = ::testing::TempDir() + "/no_such_dir_sndp/trace.json";
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);  // must not throw
  EXPECT_TRUE(r.verified);
  EXPECT_DOUBLE_EQ(r.stats.get("sim.trace_write_failed"), 1.0);

  // ... and the stat reads 0 when the path is writable.
  cfg.trace_path = ::testing::TempDir() + "/sndp_writable_trace.json";
  auto wl2 = make_workload("VADD", ProblemScale::kTiny);
  const RunResult ok = Simulator(cfg).run(*wl2);
  EXPECT_DOUBLE_EQ(ok.stats.get("sim.trace_write_failed"), 0.0);
  std::remove(cfg.trace_path.c_str());
}

}  // namespace
}  // namespace sndp
