// Tests for the per-epoch metrics timeline: deterministic boundary math,
// delta/rate assembly, capacity capping, fast-forward invariance of the
// recorded samples, and the timeline's three export surfaces (RunResult,
// sweep JSON, Chrome-trace counter events).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "sndp.h"

namespace sndp {
namespace {

SystemConfig timeline_cfg() {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = OffloadMode::kDynamicCache;
  cfg.governor.epoch_cycles = 500;
  return cfg;
}

TEST(EpochTimeline, BoundaryMatchesClockMath) {
  SystemConfig cfg = timeline_cfg();
  EpochTimeline tl(cfg);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(tl.boundary_ps(k),
              tick_time_ps((k + 1) * cfg.governor.epoch_cycles, cfg.clocks.sm_khz));
  }
}

TEST(EpochTimeline, AssemblesPerEpochDeltas) {
  SystemConfig cfg = timeline_cfg();
  EpochTimeline tl(cfg);
  // Epoch 0: 300 of 400 L1 and 80 of 100 L2 accesses hit; epoch 1: 200 of
  // 400 L1 accesses hit and the L2 sees nothing.
  AuditSnapshot at;
  at.sm_issued = 4000;
  at.l1_hits = 300;
  at.l1_miss_new = 100;
  at.l2_hits = 80;
  at.l2_miss_new = 20;
  at.pages_migrated = 3;
  at.cyc_sm_buckets[0] = 10;
  tl.record({.epoch = 0, .ipc = 2.0, .block_instrs = 1000, .ratio = 0.5, .step = 0.15,
             .direction = +1},
            at);
  at.sm_issued = 6000;
  at.l1_hits = 500;
  at.l1_miss_new = 300;
  at.pages_migrated = 5;
  at.cyc_sm_buckets[0] = 25;
  tl.record({.epoch = 1, .ipc = 1.5, .block_instrs = 750, .ratio = 0.65, .step = 0.15,
             .direction = +1},
            at);

  ASSERT_EQ(tl.samples().size(), 2u);
  const EpochSample& a = tl.samples()[0];
  EXPECT_EQ(a.epoch, 0u);
  EXPECT_EQ(a.end_cycle, cfg.governor.epoch_cycles);
  EXPECT_EQ(a.end_ps, tl.boundary_ps(0));
  EXPECT_DOUBLE_EQ(a.ratio, 0.5);
  EXPECT_DOUBLE_EQ(a.epoch_ipc, 2.0);
  EXPECT_EQ(a.block_instrs, 1000u);
  EXPECT_DOUBLE_EQ(a.sm_ipc, 4000.0 / (500.0 * cfg.num_sms));
  EXPECT_DOUBLE_EQ(a.l1_hit_rate, 0.75);
  EXPECT_DOUBLE_EQ(a.l2_hit_rate, 0.8);
  EXPECT_EQ(a.pages_migrated, 3u);
  EXPECT_EQ(a.sm_stack[0], 10);

  const EpochSample& b = tl.samples()[1];
  EXPECT_EQ(b.end_ps, tl.boundary_ps(1));
  EXPECT_DOUBLE_EQ(b.sm_ipc, 2000.0 / (500.0 * cfg.num_sms));
  EXPECT_DOUBLE_EQ(b.l1_hit_rate, 0.5);  // (500-300)/((500-300)+(300-100))
  EXPECT_DOUBLE_EQ(b.l2_hit_rate, 0.0);  // no L2 access this epoch: rate 0
  EXPECT_EQ(b.pages_migrated, 2u);
  EXPECT_EQ(b.sm_stack[0], 15);
  EXPECT_EQ(tl.dropped(), 0u);
}

TEST(EpochTimeline, EmptyEpochHasZeroRates) {
  SystemConfig cfg = timeline_cfg();
  EpochTimeline tl(cfg);
  tl.record({.epoch = 0, .ratio = 0.1, .step = 0.15, .direction = +1}, AuditSnapshot{});
  ASSERT_EQ(tl.samples().size(), 1u);
  const EpochSample& s = tl.samples()[0];
  EXPECT_DOUBLE_EQ(s.sm_ipc, 0.0);
  EXPECT_DOUBLE_EQ(s.l1_hit_rate, 0.0);  // no accesses: defined as 0, not NaN
  EXPECT_DOUBLE_EQ(s.l2_hit_rate, 0.0);
  EXPECT_DOUBLE_EQ(s.nsu_occupancy, 0.0);
}

TEST(EpochTimeline, SimulatorRecordsDynamicRun) {
  SystemConfig cfg = timeline_cfg();
  auto wl = make_workload("BFS", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  ASSERT_TRUE(r.completed);
  ASSERT_FALSE(r.timeline.empty());
  EXPECT_DOUBLE_EQ(r.stats.get("timeline.epochs"),
                   static_cast<double>(r.timeline.size()));
  EXPECT_DOUBLE_EQ(static_cast<double>(r.timeline.size()),
                   r.stats.get("governor.epochs"));
  for (std::size_t i = 0; i < r.timeline.size(); ++i) {
    const EpochSample& s = r.timeline[i];
    EXPECT_EQ(s.epoch, i);
    EXPECT_GE(s.ratio, 0.0);
    EXPECT_LE(s.ratio, 1.0);
    EXPECT_GE(s.l1_hit_rate, 0.0);
    EXPECT_LE(s.l1_hit_rate, 1.0);
    EXPECT_GE(s.l2_hit_rate, 0.0);
    EXPECT_LE(s.l2_hit_rate, 1.0);
    EXPECT_GE(s.gpu_up_util, 0.0);
    EXPECT_LE(s.gpu_up_util, 1.0 + 1e-9);
    EXPECT_GE(s.nsu_occupancy, 0.0);
    EXPECT_LE(s.nsu_occupancy, 1.0 + 1e-9);
    EXPECT_GT(s.valve_pressure, 0.0);
    EXPECT_LE(s.valve_pressure, 1.0);
    if (i > 0) {
      EXPECT_GT(s.end_ps, r.timeline[i - 1].end_ps);
    }
  }
  // The run did work, so some epoch must show SM throughput and traffic.
  double max_sm_ipc = 0.0, max_up = 0.0;
  for (const EpochSample& s : r.timeline) {
    max_sm_ipc = std::max(max_sm_ipc, s.sm_ipc);
    max_up = std::max(max_up, s.gpu_up_util);
  }
  EXPECT_GT(max_sm_ipc, 0.0);
  EXPECT_GT(max_up, 0.0);
}

TEST(EpochTimeline, FastForwardProducesIdenticalSamples) {
  // The FF-invariance contract, end to end: every field of every sample is
  // bit-identical between fast-forward and naive stepping.
  for (const char* name : {"VADD", "BFS", "STN"}) {
    SystemConfig cfg = timeline_cfg();
    cfg.fast_forward = true;
    auto wl_ff = make_workload(name, ProblemScale::kTiny);
    const RunResult ff = Simulator(cfg).run(*wl_ff);

    cfg.fast_forward = false;
    auto wl_nv = make_workload(name, ProblemScale::kTiny);
    const RunResult naive = Simulator(cfg).run(*wl_nv);

    ASSERT_EQ(ff.timeline.size(), naive.timeline.size()) << name;
    for (std::size_t i = 0; i < ff.timeline.size(); ++i) {
      EXPECT_EQ(ff.timeline[i], naive.timeline[i]) << name << " epoch " << i;
    }
  }
}

TEST(EpochTimeline, MigrationSamplesMatchAcrossSteppingModes) {
  // Page migrations happen in dram-domain ticks; the cut must record the
  // same per-epoch counts whether or not fast-forward skips edges.
  SystemConfig cfg = timeline_cfg();
  cfg.governor.mode = OffloadMode::kAlways;
  cfg.placement.policy = PlacementPolicyKind::kMigration;
  cfg.placement.migration_threshold = 1;
  auto run = [&](bool ff) {
    cfg.fast_forward = ff;
    auto wl = make_workload("BFS", ProblemScale::kTiny);
    return Simulator(cfg).run(*wl);
  };
  const RunResult ff = run(true);
  const RunResult naive = run(false);
  ASSERT_TRUE(ff.completed);
  ASSERT_EQ(ff.timeline.size(), naive.timeline.size());
  std::uint64_t migrated = 0;
  for (std::size_t i = 0; i < ff.timeline.size(); ++i) {
    EXPECT_EQ(ff.timeline[i], naive.timeline[i]) << "epoch " << i;
    migrated += ff.timeline[i].pages_migrated;
  }
  // Migrations after the last boundary belong to no epoch.
  EXPECT_GT(migrated, 0u);
  EXPECT_LE(static_cast<double>(migrated), ff.stats.get("mem.pages_migrated"));
}

TEST(EpochTimeline, RecordsEveryConsumedBoundary) {
  // A run that consumed N SM edges (sm_cycles = N - 1) ends N / epoch_cycles
  // epochs, including the boundaries after the last stepped instant, and the
  // timeline and the audit each see every one of them once.
  for (const char* name : {"VADD", "BFS", "FWT"}) {
    for (const Cycle epoch : {Cycle{1}, Cycle{97}, Cycle{131}, Cycle{1000}}) {
      for (const bool ff : {true, false}) {
        SystemConfig cfg = SystemConfig::paper();
        cfg.governor.mode = OffloadMode::kDynamicCache;
        cfg.governor.epoch_cycles = epoch;
        cfg.fast_forward = ff;
        auto wl = make_workload(name, ProblemScale::kTiny);
        const RunResult r = Simulator(cfg).run(*wl);
        const std::string id = std::string(name) + " -e " + std::to_string(epoch) +
                               (ff ? "" : " --no-ff");
        ASSERT_TRUE(r.completed) << id;
        const double epochs = r.stats.get("governor.epochs");
        EXPECT_EQ(epochs, static_cast<double>((r.sm_cycles + 1) / epoch)) << id;
        EXPECT_EQ(r.stats.get("timeline.epochs"), epochs) << id;
        EXPECT_EQ(r.stats.get("audit.epochs"), epochs) << id;
      }
    }
  }
}

TEST(EpochTimeline, StaticModeStillRecordsTimeline) {
  SystemConfig cfg = timeline_cfg();
  cfg.governor.mode = OffloadMode::kStaticRatio;
  cfg.governor.static_ratio = 0.4;
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  ASSERT_FALSE(r.timeline.empty());
  for (const EpochSample& s : r.timeline) EXPECT_DOUBLE_EQ(s.ratio, 0.4);
}

TEST(EpochTimeline, SweepJsonCarriesTimelineArray) {
  SweepRunner runner({.jobs = 1});
  SweepPoint p;
  p.id = "timeline/BFS";
  p.tenants = {{"BFS"}};
  p.scale = ProblemScale::kTiny;
  p.cfg = timeline_cfg();
  runner.add(std::move(p));
  runner.run();

  const std::string path = ::testing::TempDir() + "/sndp_timeline_sweep.json";
  ASSERT_TRUE(write_sweep_json(path, runner.outcomes(), 1));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path.c_str());

  EXPECT_NE(doc.find("\"timeline\":[{"), std::string::npos);
  EXPECT_NE(doc.find("\"epoch\":0"), std::string::npos);
  EXPECT_NE(doc.find("\"nsu_occupancy\":"), std::string::npos);
  // Determinism rule: the timeline must come before the wall-clock-varying
  // "timing" object in each point.
  EXPECT_LT(doc.find("\"timeline\":"), doc.find("\"timing\":"));
}

TEST(EpochTimeline, TraceCarriesCounterEvents) {
  const std::string path = ::testing::TempDir() + "/sndp_timeline_trace.json";
  SystemConfig cfg = timeline_cfg();
  cfg.trace_path = path;
  auto wl = make_workload("BFS", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  ASSERT_FALSE(r.timeline.empty());

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string doc = ss.str();
  std::remove(path.c_str());

  EXPECT_NE(doc.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"offload_ratio\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"nsu_occupancy\""), std::string::npos);
  EXPECT_NE(doc.find("\"name\":\"Governor\""), std::string::npos);  // row name
  EXPECT_DOUBLE_EQ(r.stats.get("sim.trace_write_failed"), 0.0);
}

TEST(EpochTimeline, CapsSamplesAndCountsDrops) {
  SystemConfig cfg = timeline_cfg();
  EpochTimeline tl(cfg);
  constexpr std::uint64_t kOver = 100'500;  // past the 100k cap
  AuditSnapshot at;
  for (std::uint64_t e = 0; e < kOver; ++e) {
    at.sm_issued = e;
    tl.record({.epoch = e, .ratio = 0.1, .step = 0.15, .direction = +1}, at);
  }
  EXPECT_EQ(tl.samples().size(), 100'000u);
  EXPECT_EQ(tl.dropped(), kOver - 100'000);
  StatSet out;
  tl.export_stats(out);
  EXPECT_DOUBLE_EQ(out.get("timeline.dropped"), static_cast<double>(kOver - 100'000));
}

}  // namespace
}  // namespace sndp
