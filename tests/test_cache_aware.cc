// Tests for the cache-locality-aware offload decision (§7.3).
#include <gtest/gtest.h>
#include <cmath>

#include "ctrl/cache_aware.h"
#include "ctrl/governor.h"

namespace sndp {
namespace {

GovernorConfig gcfg() {
  GovernorConfig g;
  g.warmup_instances = 4;
  g.model_hit_push_cost = false;  // test the paper's plain Benefit equation
  return g;
}

OffloadBlockInfo block_with(unsigned loads, unsigned stores, unsigned in, unsigned out) {
  OffloadBlockInfo b;
  b.block_id = 0;
  b.num_loads = loads;
  b.num_stores = stores;
  for (unsigned i = 0; i < in; ++i) b.regs_in.push_back(static_cast<std::uint8_t>(i));
  for (unsigned i = 0; i < out; ++i) b.regs_out.push_back(static_cast<std::uint8_t>(16 + i));
  return b;
}

TEST(CacheAware, OptimisticDuringWarmup) {
  CacheAwareTable table(1, gcfg(), 128);
  const auto info = block_with(1, 0, 4, 4);
  table.record_instance(0, 32);
  EXPECT_TRUE(table.should_offload(0, info));
  EXPECT_TRUE(std::isinf(table.score(0, info)));
}

TEST(CacheAware, StreamingMissesKeepOffloading) {
  CacheAwareTable table(1, gcfg(), 128);
  const auto info = block_with(2, 1, 0, 0);
  for (int i = 0; i < 10; ++i) {
    table.record_instance(0, 32);
    for (int l = 0; l < 4; ++l) table.record_load_line(0, false, 0);  // all misses
    table.record_store_bytes(0, 256);
  }
  // Benefit = ceil(4 * 1.0) * 128 + 256 = 768 > 0 overhead.
  EXPECT_DOUBLE_EQ(table.score(0, info), 768.0);
  EXPECT_TRUE(table.should_offload(0, info));
}

TEST(CacheAware, CacheResidentLoadsSuppress) {
  CacheAwareTable table(1, gcfg(), 128);
  const auto info = block_with(2, 0, 1, 1);  // 2 regs -> 512 B overhead at 32 lanes
  for (int i = 0; i < 10; ++i) {
    table.record_instance(0, 32);
    for (int l = 0; l < 4; ++l) table.record_load_line(0, true, 256);  // all hits
  }
  // Benefit = ceil(4 * 0) * 128 + 0 = 0 < 512 overhead.
  EXPECT_LT(table.score(0, info), 0.0);
  EXPECT_FALSE(table.should_offload(0, info));
}

TEST(CacheAware, CeilingOnFractionalLines) {
  CacheAwareTable table(1, gcfg(), 128);
  const auto info = block_with(1, 0, 0, 0);
  // 10 instances, 10 lines, 9 hits: 1 * 0.1 -> ceil = 1 line.
  for (int i = 0; i < 10; ++i) {
    table.record_instance(0, 32);
  }
  for (int l = 0; l < 10; ++l) table.record_load_line(0, l < 9, l < 9 ? 256 : 0);
  EXPECT_DOUBLE_EQ(table.score(0, info), 128.0);
}

TEST(CacheAware, StoreTermUsesMeasuredBytes) {
  CacheAwareTable table(1, gcfg(), 128);
  const auto info = block_with(0, 1, 0, 0);
  for (int i = 0; i < 8; ++i) {
    table.record_instance(0, 32);
    table.record_store_bytes(0, 8 * 32);  // WordSize x SIMDWidth
  }
  EXPECT_DOUBLE_EQ(table.score(0, info), 256.0);
}

TEST(CacheAware, HitPushCostExtensionSuppressesBorderline) {
  GovernorConfig g = gcfg();
  g.model_hit_push_cost = true;
  CacheAwareTable table(1, g, 128);
  const auto info = block_with(4, 0, 0, 0);  // no register overhead at all
  for (int i = 0; i < 10; ++i) {
    table.record_instance(0, 32);
    // 8 lines, 6 hits, broadcast-style pushes (256 B per hit line).
    for (int l = 0; l < 8; ++l) table.record_load_line(0, l < 6, l < 6 ? 256 : 0);
  }
  // Benefit = ceil(8*0.25)*128 = 256; hit-push cost = ceil(8*0.75)*128 = 768.
  EXPECT_LT(table.score(0, info), 0.0);

  CacheAwareTable plain(1, gcfg(), 128);
  for (int i = 0; i < 10; ++i) {
    plain.record_instance(0, 32);
    for (int l = 0; l < 8; ++l) plain.record_load_line(0, l < 6, l < 6 ? 256 : 0);
  }
  EXPECT_GT(plain.score(0, info), 0.0);  // the paper's equation alone accepts
}

TEST(Governor, ModesControlDecisions) {
  const auto info = block_with(2, 1, 0, 0);
  {
    GovernorConfig g;
    g.mode = OffloadMode::kOff;
    OffloadGovernor gov(g, 1, 128, 1);
    for (int i = 0; i < 100; ++i) EXPECT_FALSE(gov.decide(info, 32));
  }
  {
    GovernorConfig g;
    g.mode = OffloadMode::kAlways;
    OffloadGovernor gov(g, 1, 128, 1);
    for (int i = 0; i < 100; ++i) EXPECT_TRUE(gov.decide(info, 32));
  }
  {
    GovernorConfig g;
    g.mode = OffloadMode::kStaticRatio;
    g.static_ratio = 0.5;
    OffloadGovernor gov(g, 1, 128, 1);
    unsigned yes = 0;
    for (int i = 0; i < 10000; ++i) yes += gov.decide(info, 32) ? 1 : 0;
    EXPECT_NEAR(yes / 10000.0, 0.5, 0.05);
  }
}

TEST(Governor, EpochAdvancesWithSmCycles) {
  GovernorConfig g;
  g.mode = OffloadMode::kDynamic;
  g.epoch_cycles = 100;
  OffloadGovernor gov(g, 1, 128, 1);
  gov.on_block_complete(250);
  const EpochRollInfo first = gov.roll_epoch();
  EXPECT_EQ(first.epoch, 0u);
  EXPECT_EQ(first.block_instrs, 250u);
  EXPECT_DOUBLE_EQ(first.ipc, 2.5);  // block instrs / epoch_cycles
  const EpochRollInfo second = gov.roll_epoch();
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_EQ(second.block_instrs, 0u);  // each epoch counts its own
  StatSet stats;
  gov.export_stats(stats);
  EXPECT_DOUBLE_EQ(stats.get("governor.epochs"), 2.0);
  EXPECT_DOUBLE_EQ(stats.get("governor.block_instrs"), 250.0);
}

TEST(Governor, StaticModesRollEpochsWithoutClimbing) {
  // Epochs end in every mode (each end feeds the per-epoch metrics
  // timeline), but only the dynamic modes feed the hill climb: a static
  // governor's ratio must not move however many epochs elapse.
  GovernorConfig g;
  g.mode = OffloadMode::kStaticRatio;
  g.static_ratio = 0.5;
  g.epoch_cycles = 10;
  OffloadGovernor gov(g, 1, 128, 1);
  for (int e = 0; e < 10; ++e) EXPECT_DOUBLE_EQ(gov.roll_epoch().ratio, 0.5);
  StatSet stats;
  gov.export_stats(stats);
  EXPECT_DOUBLE_EQ(stats.get("governor.epochs"), 10.0);
  EXPECT_DOUBLE_EQ(stats.get("governor.final_ratio"), 0.5);
}

TEST(Governor, DeterministicForSeed) {
  const auto info = block_with(2, 1, 0, 0);
  GovernorConfig g;
  g.mode = OffloadMode::kStaticRatio;
  g.static_ratio = 0.3;
  OffloadGovernor a(g, 1, 128, 99), b(g, 1, 128, 99);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.decide(info, 32), b.decide(info, 32));
}

}  // namespace
}  // namespace sndp
