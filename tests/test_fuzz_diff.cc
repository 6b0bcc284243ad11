// NDP-equivalence fuzzing (ctest label: fuzz).
//
// Seeds 1..N (default 100; override with SNDP_FUZZ_SEEDS=N) each generate a
// random well-formed kernel plus a random configuration and cross-check the
// timing simulator against the reference interpreter byte-for-byte.  A
// divergence is shrunk to a minimal op list and dumped as a reproducer file
// (directory: SNDP_FUZZ_ARTIFACT_DIR, default the test temp dir); replay a
// dump with SNDP_FUZZ_REPRO=<file>.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sndp.h"

namespace sndp {
namespace {

TEST(FuzzDiff, GenerationIsAPureFunctionOfTheSeed) {
  for (std::uint64_t seed : {1ull, 7ull, 123456789ull}) {
    const FuzzSpec a = generate_spec(seed);
    const FuzzSpec b = generate_spec(seed);
    EXPECT_EQ(a.to_text(), b.to_text());
    EXPECT_GE(a.ops.size(), 3u);
    // The program builds and validates.
    EXPECT_NO_THROW(build_fuzz_program(a).validate());
  }
}

TEST(FuzzDiff, SpecTextRoundTrips) {
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    const std::string text = generate_spec(seed).to_text();
    const auto parsed = FuzzSpec::from_text(text);
    ASSERT_TRUE(parsed.has_value()) << "seed " << seed << "\n" << text;
    EXPECT_EQ(parsed->to_text(), text) << "seed " << seed;
  }
  EXPECT_FALSE(FuzzSpec::from_text("not a reproducer").has_value());
  EXPECT_FALSE(FuzzSpec::from_text("sndp-fuzz-repro-v1\nseed 1\n").has_value());
}

TEST(FuzzDiff, FromTextRejectsMalformedFields) {
  // Every field is parsed whole and range-checked: a numeric prefix, a
  // sign, a missing or extra token, or an out-of-range enum value refuses
  // the reproducer instead of replaying a different case.
  const std::string head = "sndp-fuzz-repro-v1\n";
  const std::string body = "launch 32 1\nloop 0\nmode 1 1\nhmcs 2\n";
  const std::string tail = "op 3 1 2 4\nend\n";
  ASSERT_TRUE(FuzzSpec::from_text(head + "seed 12\n" + body + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "seed 12abc\n" + body + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "seed -1\n" + body + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "seed 12 13\n" + body + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "launch 32\n" + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + body + "op 3 1 2 4\nend now\n").has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + body + "opwl\n" + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "mode 1 1.5\n" + tail).has_value());
  // Enum values one past the last member.
  EXPECT_FALSE(FuzzSpec::from_text(head + "mode 5 1\n" + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "placement 4 64\n" + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "tenants 2 3\n" + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + body + "op 7 1 2 4\nend\n").has_value());
  // Comment lines are skipped; a blank line is refused.
  EXPECT_TRUE(FuzzSpec::from_text(head + "# note\n" + body + tail).has_value());
  EXPECT_FALSE(FuzzSpec::from_text(head + "\n" + body + tail).has_value());
}

TEST(FuzzDiff, PlacementLineRoundTripsAndDefaultsToRandom) {
  // New reproducers carry the placement axis...
  FuzzSpec spec = generate_spec(42);
  spec.placement = PlacementPolicyKind::kMigration;
  spec.migration_threshold = 3;
  const auto parsed = FuzzSpec::from_text(spec.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->placement, PlacementPolicyKind::kMigration);
  EXPECT_EQ(parsed->migration_threshold, 3u);
  // ...while pre-placement reproducers (no `placement` line) still parse and
  // default to the random policy those runs actually used.
  const auto legacy = FuzzSpec::from_text(
      "sndp-fuzz-repro-v1\nseed 5\nlaunch 32 1\nloop 0\nmode 1 1\nhmcs 2\n"
      "op 3 1 2 4\nend\n");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->placement, PlacementPolicyKind::kRandom);
}

TEST(FuzzDiff, LegacyPartitionsLineIsIgnored) {
  // Reproducers written while the parallel-in-time engine existed carry a
  // `partitions N` line.  Those runs were bit-identical to serial, so the
  // line still parses and is ignored: the case replays serially.
  const std::string body =
      "sndp-fuzz-repro-v1\nseed 5\nlaunch 32 1\nloop 0\nmode 1 1\nhmcs 2\n";
  const auto legacy = FuzzSpec::from_text(body + "partitions 4\nop 3 1 2 4\nend\n");
  const auto plain = FuzzSpec::from_text(body + "op 3 1 2 4\nend\n");
  ASSERT_TRUE(legacy.has_value());
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(legacy->to_text(), plain->to_text());
  // New reproducers no longer write the line.
  EXPECT_EQ(generate_spec(42).to_text().find("partitions"), std::string::npos);
  // A malformed count is still refused, like any other directive.
  EXPECT_FALSE(FuzzSpec::from_text(body + "partitions x\nend\n").has_value());
}

TEST(FuzzDiff, TenantsLineRoundTripsAndDefaultsToSingle) {
  // New reproducers carry the tenant axis...
  FuzzSpec spec = generate_spec(42);
  spec.tenants = 3;
  spec.arbiter = 2;
  const auto parsed = FuzzSpec::from_text(spec.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->tenants, 3u);
  EXPECT_EQ(parsed->arbiter, 2u);
  EXPECT_EQ(fuzz_config(*parsed).tenancy.arbiter, TenantArbiter::kStrictPriority);
  // ...while pre-tenant reproducers (no `tenants` line) still parse and
  // replay single-tenant, as those runs actually executed.
  const auto legacy = FuzzSpec::from_text(
      "sndp-fuzz-repro-v1\nseed 5\nlaunch 32 1\nloop 0\nmode 1 1\nhmcs 2\n"
      "op 3 1 2 4\nend\n");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_EQ(legacy->tenants, 1u);
  // The axis is drawn last: the generator finds multi-tenant cases often
  // enough to matter, and drawing it never perturbs the pre-tenant shape.
  unsigned multi = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const FuzzSpec s = generate_spec(seed);
    if (s.tenants > 1) ++multi;
  }
  EXPECT_GE(multi, 8u);
}

TEST(FuzzDiff, TenantProgramsAreBaseShiftedCopies) {
  const FuzzSpec spec = generate_spec(7);
  // Tenant 0 is the classic program byte-for-byte; tenant 1 differs only
  // in its array bases (same length, same opcodes).
  EXPECT_EQ(build_fuzz_program(spec).disassemble(),
            build_fuzz_program(spec, 0).disassemble());
  const Program p0 = build_fuzz_program(spec, 0);
  const Program p1 = build_fuzz_program(spec, 1);
  EXPECT_EQ(p0.size(), p1.size());
  EXPECT_NE(p0.disassemble(), p1.disassemble());
}

TEST(FuzzDiff, TenantMixesMatchReference) {
  // Forced multi-tenant sweeps across all three arbiters; the seeds keep
  // their organically generated kernel/config shape.
  unsigned checked = 0;
  for (std::uint64_t seed : {2ull, 5ull, 13ull, 21ull, 34ull, 55ull}) {
    FuzzSpec spec = generate_spec(seed);
    spec.tenants = 2 + static_cast<unsigned>(seed % 2);
    spec.arbiter = static_cast<unsigned>(seed % 3);
    const auto divergence = run_fuzz_case(spec);
    EXPECT_FALSE(divergence.has_value())
        << "seed " << seed << ": " << *divergence << "\nspec:\n" << spec.to_text();
    ++checked;
  }
  EXPECT_EQ(checked, 6u);
}

TEST(FuzzDiff, OperatorLineRoundTripsAndDefaultsToEmpty) {
  // New reproducers carry the operator axis...
  FuzzSpec spec = generate_spec(42);
  spec.op_workload = "GEMM";
  spec.op_variant = 2;
  const auto parsed = FuzzSpec::from_text(spec.to_text());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->op_workload, "GEMM");
  EXPECT_EQ(parsed->op_variant, 2u);
  // ...while pre-operator reproducers (no `opwl` line) still parse and
  // replay the generated kernel, as those runs actually executed.
  const auto legacy = FuzzSpec::from_text(
      "sndp-fuzz-repro-v1\nseed 5\nlaunch 32 1\nloop 0\nmode 1 1\nhmcs 2\n"
      "op 3 1 2 4\nend\n");
  ASSERT_TRUE(legacy.has_value());
  EXPECT_TRUE(legacy->op_workload.empty());
  // The axis is drawn last: the generator picks operator cases often enough
  // to matter, and drawing it never perturbs the pre-operator shape.
  unsigned op_cases = 0;
  for (std::uint64_t seed = 0; seed < 64; ++seed) {
    const FuzzSpec s = generate_spec(seed);
    if (!s.op_workload.empty()) ++op_cases;
  }
  EXPECT_GE(op_cases, 6u);
}

TEST(FuzzDiff, OperatorKernelsMatchReference) {
  // Every operator x every tile-config variant, over a few organically
  // generated config shapes (placement / offload mode / stack count vary
  // with the seed; the operator replaces the generated kernel).
  unsigned checked = 0;
  for (const std::string& name : operator_names()) {
    for (unsigned variant = 0; variant < 4; ++variant) {
      const std::uint64_t seed = 11 + 7 * variant;
      FuzzSpec spec = generate_spec(seed);
      spec.op_workload = name;
      spec.op_variant = variant;
      const auto divergence = run_fuzz_case(spec);
      EXPECT_FALSE(divergence.has_value())
          << name << " variant " << variant << ": " << *divergence
          << "\nspec:\n" << spec.to_text();
      ++checked;
    }
  }
  EXPECT_EQ(checked, 4u * static_cast<unsigned>(operator_names().size()));
}

TEST(FuzzDiff, ReproducerFileIsReplayable) {
  const FuzzSpec spec = generate_spec(9);
  const std::string path = ::testing::TempDir() + "/sndp_fuzz_repro_test.txt";
  ASSERT_TRUE(write_fuzz_reproducer(path, spec, "unit-test detail"));
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const auto parsed = FuzzSpec::from_text(ss.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->to_text(), spec.to_text());
  std::remove(path.c_str());
}

// Regression: fuzz seed 132 (shrunk).  A MOV pulled onto the NSU as a
// store-data producer was not duplicated on the GPU, and the NSU's stale
// copy of the register was written back over a later GPU-side
// redefinition.  Fixed in the analyzer (clean pulled producers are
// duplicated; regs_out excludes GPU-redefined registers).
TEST(FuzzDiff, RegressionStaleLiveOutWriteback) {
  const char* text =
      "sndp-fuzz-repro-v1\n"
      "seed 132\n"
      "launch 32 1\n"
      "loop 0\n"
      "mode 1 1\n"
      "hmcs 1\n"
      "op 0 1297819140 3550617306 16\n"
      "op 5 2078359683 3154170877 19\n"
      "op 4 3622310777 1576909848 4\n"
      "op 0 2302930005 3065292651 13\n"
      "op 0 3452833698 628654046 3\n"
      "op 2 1815697264 1796338291 19\n"
      "end\n";
  const auto spec = FuzzSpec::from_text(text);
  ASSERT_TRUE(spec.has_value());
  const auto divergence = run_fuzz_case(*spec);
  EXPECT_FALSE(divergence.has_value()) << *divergence;
}

// Migration storm: threshold-1 migration on 4-stack kernels re-homes a page
// on its first remote access, so the mapping churns throughout the run.
// Every in-flight transaction must keep using the slice/stack it was pinned
// to at issue time, or bytes land in the wrong cache and diverge.
TEST(FuzzDiff, MigrationStormMatchesReference) {
  for (std::uint64_t seed : {3ull, 11ull, 42ull}) {
    FuzzSpec spec = generate_spec(seed);
    spec.num_hmcs = 4;
    spec.placement = PlacementPolicyKind::kMigration;
    spec.migration_threshold = 1;
    const auto divergence = run_fuzz_case(spec);
    EXPECT_FALSE(divergence.has_value())
        << "seed " << seed << ": " << *divergence << "\nspec:\n" << spec.to_text();
  }
}

TEST(FuzzDiff, RandomKernelsMatchReference) {
  unsigned seeds = 100;
  if (const char* env = std::getenv("SNDP_FUZZ_SEEDS")) {
    seeds = static_cast<unsigned>(std::strtoul(env, nullptr, 10));
  }
  std::string artifact_dir = ::testing::TempDir();
  if (const char* env = std::getenv("SNDP_FUZZ_ARTIFACT_DIR")) artifact_dir = env;
  if (!artifact_dir.empty() && artifact_dir.back() != '/') artifact_dir += '/';

  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    const FuzzSpec spec = generate_spec(seed);
    const auto divergence = run_fuzz_case(spec);
    if (!divergence.has_value()) continue;
    const FuzzSpec minimal = shrink_fuzz_case(spec);
    const std::string path =
        artifact_dir + "fuzz_repro_seed" + std::to_string(seed) + ".txt";
    write_fuzz_reproducer(path, minimal, *divergence);
    ADD_FAILURE() << "seed " << seed << " diverges: " << *divergence
                  << "\nminimal reproducer (" << minimal.ops.size()
                  << " ops) written to " << path << "\nspec:\n"
                  << minimal.to_text();
  }
}

// Committed reproducers (tests/repros/*.txt): every shrunk divergence that
// led to a fix is kept as a replay file and must stay green.
TEST(FuzzDiff, CommittedReproducersReplayClean) {
#ifndef SNDP_COMMITTED_REPRO_DIR
  GTEST_SKIP() << "SNDP_COMMITTED_REPRO_DIR not defined";
#else
  unsigned replayed = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SNDP_COMMITTED_REPRO_DIR)) {
    if (entry.path().extension() != ".txt") continue;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in) << "cannot open " << entry.path();
    std::stringstream ss;
    ss << in.rdbuf();
    const auto spec = FuzzSpec::from_text(ss.str());
    ASSERT_TRUE(spec.has_value()) << "unparseable reproducer " << entry.path();
    const auto divergence = run_fuzz_case(*spec);
    EXPECT_FALSE(divergence.has_value())
        << entry.path() << ": " << *divergence << "\nspec:\n" << spec->to_text();
    ++replayed;
  }
  EXPECT_GE(replayed, 1u);
#endif
}

TEST(FuzzDiff, ReplayEnvReproducer) {
  const char* path = std::getenv("SNDP_FUZZ_REPRO");
  if (path == nullptr) {
    GTEST_SKIP() << "set SNDP_FUZZ_REPRO=<file> to replay a reproducer";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  const auto spec = FuzzSpec::from_text(ss.str());
  ASSERT_TRUE(spec.has_value()) << "unparseable reproducer " << path;
  const auto divergence = run_fuzz_case(*spec);
  EXPECT_FALSE(divergence.has_value())
      << *divergence << "\nspec:\n" << spec->to_text();
}

}  // namespace
}  // namespace sndp
