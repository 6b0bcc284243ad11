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
  EpochTimeline tl(cfg, cfg.num_hmcs);
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(tl.boundary_ps(k),
              tick_time_ps((k + 1) * cfg.governor.epoch_cycles, cfg.clocks.sm_khz));
  }
}

TEST(EpochTimeline, AssemblesPerEpochDeltas) {
  SystemConfig cfg = timeline_cfg();
  EpochTimeline tl(cfg, cfg.num_hmcs);
  // Epoch 0: 300 of 400 L1 accesses hit; epoch 1: 200 of 400.
  tl.on_epoch(0, 2.0, 1000, 0.5, 0.15, +1, /*issued=*/4000, 300, 100, {});
  tl.on_epoch(1, 1.5, 750, 0.65, 0.15, +1, /*issued=*/6000, 500, 300, {});
  // L2 saw 80 of 100 accesses hit in epoch 0, then nothing.
  tl.finalize(/*l2_hits=*/80, /*l2_misses=*/20, /*up=*/0, /*down=*/0,
              /*cube=*/0, std::vector<std::uint64_t>(cfg.num_hmcs, 0));

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

  const EpochSample& b = tl.samples()[1];
  EXPECT_DOUBLE_EQ(b.sm_ipc, 2000.0 / (500.0 * cfg.num_sms));
  EXPECT_DOUBLE_EQ(b.l1_hit_rate, 0.5);  // (500-300)/((500-300)+(300-100))

  // The un-polled L2 series was flushed with the final totals: all activity
  // lands in epoch 0's delta, epoch 1 is empty (rate 0).
  EXPECT_DOUBLE_EQ(tl.samples()[0].l2_hit_rate, 0.8);
  EXPECT_DOUBLE_EQ(tl.samples()[1].l2_hit_rate, 0.0);
  EXPECT_EQ(tl.dropped(), 0u);
}

TEST(EpochTimeline, EmptyEpochHasZeroRates) {
  SystemConfig cfg = timeline_cfg();
  EpochTimeline tl(cfg, cfg.num_hmcs);
  tl.on_epoch(0, 0.0, 0, 0.1, 0.15, +1, 0, 0, 0, {});
  tl.finalize(0, 0, 0, 0, 0, std::vector<std::uint64_t>(cfg.num_hmcs, 0));
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
  p.workload = "BFS";
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
  EpochTimeline tl(cfg, cfg.num_hmcs);
  constexpr std::uint64_t kOver = 100'500;  // past the 100k cap
  for (std::uint64_t e = 0; e < kOver; ++e) {
    tl.on_epoch(e, 0.0, 0, 0.1, 0.15, +1, e, 0, 0, {});
  }
  tl.finalize(0, 0, 0, 0, 0, std::vector<std::uint64_t>(cfg.num_hmcs, 0));
  EXPECT_EQ(tl.samples().size(), 100'000u);
  EXPECT_EQ(tl.dropped(), kOver - 100'000);
  StatSet out;
  tl.export_stats(out);
  EXPECT_DOUBLE_EQ(out.get("timeline.dropped"), static_cast<double>(kOver - 100'000));
}

}  // namespace
}  // namespace sndp
