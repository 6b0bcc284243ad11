// Tests for the common layer: RNG determinism, stats, units, config, and
// checked number parsing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "common/config.h"
#include "common/parse.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/units.h"

namespace sndp {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(1234), b(1234);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, ReseedReproduces) {
  Rng rng(7);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(rng.next_u64());
  rng.reseed(7);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(rng.next_u64(), first[i]);
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 8; ++i) any_diff = any_diff || (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
}

TEST(Rng, NextBelowRoughlyUniform) {
  Rng rng(11);
  std::array<unsigned, 8> counts{};
  constexpr unsigned kDraws = 80000;
  for (unsigned i = 0; i < kDraws; ++i) ++counts[rng.next_below(8)];
  for (unsigned c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kDraws / 8.0, kDraws / 8.0 * 0.1);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(13);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(17);
  unsigned hits = 0;
  constexpr unsigned kDraws = 100000;
  for (unsigned i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(StatSet, SetGetAdd) {
  StatSet s;
  s.set("a", 1.0);
  s.add("a", 2.0);
  EXPECT_DOUBLE_EQ(s.get("a"), 3.0);
  EXPECT_THROW(s.get("missing"), std::out_of_range);
  EXPECT_DOUBLE_EQ(s.get_or("missing", -1.0), -1.0);
}

TEST(StatSet, SumMatching) {
  StatSet s;
  s.set("sm0.stall", 1.0);
  s.set("sm1.stall", 2.0);
  s.set("sm1.other", 7.0);
  EXPECT_DOUBLE_EQ(s.sum_matching("sm", ".stall"), 3.0);
}

TEST(Distribution, Moments) {
  Distribution d;
  d.record(1.0);
  d.record(3.0);
  d.record(2.0);
  EXPECT_EQ(d.count(), 3u);
  EXPECT_DOUBLE_EQ(d.mean(), 2.0);
  EXPECT_DOUBLE_EQ(d.min(), 1.0);
  EXPECT_DOUBLE_EQ(d.max(), 3.0);
}

TEST(Units, LinkSerialization) {
  // 20 GB/s -> 50 ps per byte.
  EXPECT_EQ(serialize_ps(1, 20.0), 50u);
  EXPECT_EQ(serialize_ps(128, 20.0), 6400u);
}

TEST(Units, TickTimeExactNoDrift) {
  // 700 MHz = 700'000 kHz; tick n maps to n * 1e9 / 700e3 ps exactly.
  const std::uint64_t khz = 700'000;
  EXPECT_EQ(tick_time_ps(0, khz), 0u);
  EXPECT_EQ(tick_time_ps(7, khz), 10000u);  // 7 cycles = 10 ns exactly
  // No cumulative drift: 7,000,000 cycles = 10 ms exactly.
  EXPECT_EQ(tick_time_ps(7'000'000, khz), 10'000'000'000ull);
}

TEST(Config, PaperPresetMatchesTable2) {
  const SystemConfig c = SystemConfig::paper();
  EXPECT_EQ(c.num_sms, 64u);
  EXPECT_EQ(c.num_hmcs, 8u);
  EXPECT_EQ(c.sm.max_threads, 1536u);
  EXPECT_EQ(c.sm.max_ctas, 8u);
  EXPECT_EQ(c.sm.max_registers, 32768u);
  EXPECT_EQ(c.sm.scratchpad_bytes, 48u * 1024);
  EXPECT_EQ(c.sm.l1d.size_bytes, 32u * 1024);
  EXPECT_EQ(c.sm.l1d.ways, 4u);
  EXPECT_EQ(c.sm.l1d.mshr_entries, 48u);
  EXPECT_EQ(c.l2.size_bytes, 2u * 1024 * 1024);
  EXPECT_EQ(c.l2.ways, 16u);
  EXPECT_EQ(c.hmc.num_vaults, 16u);
  EXPECT_EQ(c.hmc.banks_per_vault, 16u);
  EXPECT_EQ(c.hmc.vault_queue_size, 64u);
  EXPECT_EQ(c.hmc.timing.tRP, 9u);
  EXPECT_EQ(c.hmc.timing.tCCD, 4u);
  EXPECT_EQ(c.hmc.timing.tRCD, 9u);
  EXPECT_EQ(c.hmc.timing.tCL, 9u);
  EXPECT_EQ(c.hmc.timing.tWR, 12u);
  EXPECT_EQ(c.hmc.timing.tRAS, 24u);
  EXPECT_EQ(c.clocks.sm_khz, 700'000u);
  EXPECT_EQ(c.clocks.nsu_khz, 350'000u);
  EXPECT_DOUBLE_EQ(c.link.gb_per_s, 20.0);
  EXPECT_EQ(c.nsu.max_warps, 48u);
  EXPECT_EQ(c.ndp_buffers.sm_pending_entries, 300u);
  EXPECT_EQ(c.ndp_buffers.sm_ready_entries, 64u);
  EXPECT_EQ(c.ndp_buffers.nsu_read_data_entries, 256u);
  EXPECT_EQ(c.ndp_buffers.nsu_write_addr_entries, 256u);
  EXPECT_EQ(c.ndp_buffers.nsu_cmd_entries, 10u);
  EXPECT_EQ(c.governor.epoch_cycles, 30'000u);
  EXPECT_DOUBLE_EQ(c.governor.initial_ratio, 0.1);
  EXPECT_DOUBLE_EQ(c.governor.initial_step, 0.15);
  EXPECT_NO_THROW(c.validate());
}

TEST(Config, MoreCoreAnd2xPresets) {
  EXPECT_EQ(SystemConfig::paper_more_core().num_sms, 72u);
  EXPECT_EQ(SystemConfig::paper_2x().num_sms, 128u);
  EXPECT_NO_THROW(SystemConfig::paper_more_core().validate());
  EXPECT_NO_THROW(SystemConfig::paper_2x().validate());
  EXPECT_NO_THROW(SystemConfig::small_test().validate());
}

// The message of the first check `c` fails, or "" when it validates.
std::string validate_error(const SystemConfig& c) {
  try {
    c.validate();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(Config, ValidateBoundsActivityMaskSlots) {
  // SM warp slots, NSU warp slots and vaults each index one 64-bit mask.
  SystemConfig c = SystemConfig::paper();
  c.sm.max_threads = 64 * kWarpWidth;
  c.nsu.max_warps = 64;
  c.hmc.num_vaults = 64;
  EXPECT_EQ(validate_error(c), "");

  c = SystemConfig::paper();
  c.sm.max_threads = 65 * kWarpWidth;
  EXPECT_NE(validate_error(c).find("sm.max_threads"), std::string::npos) << validate_error(c);

  c = SystemConfig::paper();
  c.nsu.max_warps = 65;
  EXPECT_NE(validate_error(c).find("nsu.max_warps"), std::string::npos) << validate_error(c);

  c = SystemConfig::paper();
  c.hmc.num_vaults = 65;
  EXPECT_NE(validate_error(c).find("hmc.num_vaults"), std::string::npos) << validate_error(c);
  c.hmc.num_vaults = 128;  // a power of two, still past one mask word
  EXPECT_NE(validate_error(c).find("hmc.num_vaults"), std::string::npos) << validate_error(c);
}

TEST(Config, ValidateRejectsZeroNsuSimdLanes) {
  // The NSU's issue hold divides the warp width by its SIMD lane count.
  SystemConfig c = SystemConfig::paper();
  c.nsu.simd_lanes = 0;
  EXPECT_NE(validate_error(c).find("nsu.simd_lanes"), std::string::npos) << validate_error(c);
  c.nsu.simd_lanes = 1;
  EXPECT_EQ(validate_error(c), "");
}

TEST(Config, RejectsClockFasterThanOnePicosecondTick) {
  // Time advances in whole picoseconds: a 1 ps tick is the fastest clock.
  for (std::uint64_t ClockConfig::*clock :
       {&ClockConfig::sm_khz, &ClockConfig::dram_khz, &ClockConfig::nsu_khz}) {
    SystemConfig c = SystemConfig::paper();
    c.clocks.*clock = 1'000'000'000;
    EXPECT_EQ(validate_error(c), "");
    c.clocks.*clock = 1'000'000'001;
    EXPECT_NE(validate_error(c).find("one edge per ps"), std::string::npos) << validate_error(c);
  }
}

TEST(Config, ValidateRejectsBadShapes) {
  SystemConfig c = SystemConfig::paper();
  c.num_hmcs = 0;  // need at least one stack
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::paper();
  c.num_hmcs = 6;  // non-power-of-two counts ride the incomplete hypercube
  EXPECT_NO_THROW(c.validate());

  c = SystemConfig::paper();
  c.num_hmcs = 300;  // exceeds the 8-bit node-id space
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::paper();
  c.placement.policy = PlacementPolicyKind::kMigration;
  c.placement.migration_threshold = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::paper();
  c.num_sms = 0;
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::paper();
  c.page_bytes = 3000;  // not a power of two
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::paper();
  c.sm.l1d.line_bytes = 64;  // mismatched with L2
  EXPECT_THROW(c.validate(), std::invalid_argument);

  c = SystemConfig::paper();
  c.governor.step_min = 0.5;
  c.governor.step_max = 0.1;
  EXPECT_THROW(c.validate(), std::invalid_argument);
}

TEST(Config, OffloadModeNamesRoundTrip) {
  for (const OffloadMode m : {OffloadMode::kOff, OffloadMode::kAlways, OffloadMode::kStaticRatio,
                              OffloadMode::kDynamic, OffloadMode::kDynamicCache}) {
    OffloadMode parsed = OffloadMode::kOff;
    ASSERT_TRUE(parse_offload_mode(offload_mode_name(m), &parsed)) << offload_mode_name(m);
    EXPECT_EQ(parsed, m);
  }
  OffloadMode parsed = OffloadMode::kOff;
  EXPECT_FALSE(parse_offload_mode("dyn_cache", &parsed));
  EXPECT_FALSE(parse_offload_mode("", &parsed));
}

TEST(CacheConfigTest, SetCountArithmetic) {
  CacheConfig c;
  c.size_bytes = 32 * 1024;
  c.ways = 4;
  c.line_bytes = 128;
  EXPECT_EQ(c.num_sets(), 64u);
}

TEST(Parse, UnsignedTakesTheWholeStringInRange) {
  EXPECT_EQ(parse_unsigned("0", 0, 10), 0u);
  EXPECT_EQ(parse_unsigned("10", 0, 10), 10u);
  EXPECT_EQ(parse_unsigned("007", 0, 10), 7u);
  EXPECT_EQ(parse_unsigned("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  std::string why;
  // Trailing garbage, blanks and empty text are errors, not a prefix or 0.
  for (const char* bad : {"12abc", "abc", "", " 1", "1 ", "1.5", "0x10"}) {
    EXPECT_FALSE(parse_unsigned(bad, 0, 100, &why).has_value()) << bad;
  }
  EXPECT_EQ(why, "not an unsigned integer");
  EXPECT_FALSE(parse_unsigned("", 0, 100, &why).has_value());
  EXPECT_EQ(why, "empty value");
}

TEST(Parse, UnsignedRejectsSignsAndOutOfRange) {
  std::string why;
  // strtoul would wrap "-1" to the maximum; a sign is refused outright.
  EXPECT_FALSE(parse_unsigned("-1", 0, UINT64_MAX, &why).has_value());
  EXPECT_EQ(why, "an unsigned value takes no sign");
  EXPECT_FALSE(parse_unsigned("+1", 0, UINT64_MAX, &why).has_value());
  EXPECT_EQ(why, "an unsigned value takes no sign");
  EXPECT_FALSE(parse_unsigned("0", 1, 255, &why).has_value());
  EXPECT_EQ(why, "must be in [1, 255]");
  EXPECT_FALSE(parse_unsigned("256", 1, 255, &why).has_value());
  EXPECT_FALSE(parse_unsigned("0", 1, UINT64_MAX, &why).has_value());
  EXPECT_EQ(why, "must be >= 1");
  // Overflowing 64 bits is out of range, not a wrapped value.
  EXPECT_FALSE(parse_unsigned("18446744073709551616", 0, UINT64_MAX, &why).has_value());
  EXPECT_EQ(why, "out of range");
}

TEST(Parse, DoubleIsFiniteWholeAndInRange) {
  EXPECT_EQ(parse_double("0.25", 0.0, 1.0), 0.25);
  EXPECT_EQ(parse_double("1", 0.0, 1.0), 1.0);
  EXPECT_EQ(parse_double("-2.5e1", -100.0, 0.0), -25.0);
  std::string why;
  for (const char* bad : {"x", "", "0.5x", " 0.5", "0.5 "}) {
    EXPECT_FALSE(parse_double(bad, 0.0, 1.0, &why).has_value()) << bad;
  }
  for (const char* bad : {"inf", "nan", "-inf"}) {
    EXPECT_FALSE(parse_double(bad, -1e300, 1e300, &why).has_value()) << bad;
    EXPECT_EQ(why, "not a finite number") << bad;
  }
  EXPECT_FALSE(parse_double("1e999", -1e300, 1e300, &why).has_value());
  EXPECT_FALSE(parse_double("1.5", 0.0, 1.0, &why).has_value());
  EXPECT_EQ(why, "must be in [0, 1]");
  EXPECT_FALSE(parse_double("-1", 0.0, std::numeric_limits<double>::max(), &why).has_value());
  EXPECT_EQ(why, "must be >= 0");
}

TEST(Parse, FlagParserNarrowsToTheTargetType) {
  EXPECT_EQ(parse_flag<unsigned>("prog", "--n", "4294967295"), 4294967295u);
  EXPECT_EQ(parse_flag("prog", "--n", "64", 1u), 64u);
  EXPECT_EQ(parse_flag("prog", "--r", "0.5", 0.0, 1.0), 0.5);
}

TEST(ParseDeathTest, BadFlagValueNamesFlagAndValueAndExits2) {
  EXPECT_EXIT(parse_flag<unsigned>("prog", "--sms", "abc"), ::testing::ExitedWithCode(2),
              "prog: invalid value 'abc' for --sms: not an unsigned integer");
  // One past the type's maximum is refused instead of truncated.
  EXPECT_EXIT(parse_flag<unsigned>("prog", "--sms", "4294967296"),
              ::testing::ExitedWithCode(2), "for --sms: must be <= 4294967295");
}

}  // namespace
}  // namespace sndp
