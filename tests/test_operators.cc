// Operator-library tests (integration tier).  Three properties beyond the
// per-operator structural checks:
//  * generation is deterministic — same scale/config, same rng seed, same
//    program bytes and same initial memory image;
//  * the timing simulator is byte-identical to the reference interpreter
//    for every operator across a spread of tile/size configs (the full
//    13-point config matrix runs in the diff tier; here the matrix is the
//    tile axis instead);
//  * a mixed tenant set (operator + classic Table-1 kernel) matches
//    independent reference replay under every arbiter.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sndp.h"

namespace sndp {
namespace {

SystemConfig ndp_config() {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = OffloadMode::kAlways;
  return cfg;
}

// Runs one explicitly-configured operator instance through the reference
// interpreter and the timing simulator on identical images.  Empty string:
// byte-identical; otherwise a failure description.
std::string diff_operator(Workload& wl, const SystemConfig& cfg) {
  GlobalMemory initial;
  MemoryAllocator alloc;
  Rng rng(11);
  wl.setup(initial, alloc, rng);

  GlobalMemory ref_mem = initial;
  const RefResult ref = ref_run(wl.program(), wl.launch(), ref_mem);
  if (!ref.completed) {
    return "reference failed: " + (ref.error.empty() ? "budget exhausted" : ref.error);
  }

  GlobalMemory sim_mem = initial;
  const KernelImage image = analyze_and_generate(wl.program());
  Simulator sim(cfg);
  const RunResult r = sim.run_image(image, wl.launch(), sim_mem, wl.name());
  if (!r.completed) return "simulator did not complete";
  if (!wl.verify(sim_mem)) return "host verify failed on the sim image";

  Addr where = 0;
  if (!sim_mem.equal_contents(ref_mem, &where)) {
    return "memory mismatch at 0x" + std::to_string(where);
  }
  return {};
}

TEST(Operators, RegisteredAndDistinctFromTableOne) {
  ASSERT_EQ(operator_names().size(), 4u);
  EXPECT_EQ(all_workload_names().size(), workload_names().size() + 4u);
  for (const auto& n : operator_names()) {
    auto wl = make_workload(n, ProblemScale::kTiny);
    EXPECT_EQ(wl->name(), n);
    EXPECT_FALSE(wl->description().empty());
  }
}

TEST(Operators, GenerationIsDeterministic) {
  for (const auto& name : operator_names()) {
    GlobalMemory mem_a, mem_b;
    MemoryAllocator alloc_a, alloc_b;
    auto a = make_workload(name, ProblemScale::kTiny);
    auto b = make_workload(name, ProblemScale::kTiny);
    Rng rng_a(7), rng_b(7);
    a->setup(mem_a, alloc_a, rng_a);
    b->setup(mem_b, alloc_b, rng_b);
    EXPECT_EQ(a->program().disassemble(), b->program().disassemble()) << name;
    EXPECT_TRUE(mem_a.equal_contents(mem_b)) << name << ": initial images differ";
  }
}

TEST(Operators, TileConfigChangesTheKernelShape) {
  // The tile axis is real: different unroll factors emit different kernels
  // (same config twice stays byte-identical — covered above via the scale
  // presets — so a differing disassembly means the config reached codegen).
  GlobalMemory mem;
  MemoryAllocator alloc;
  Rng rng(7);
  GemmOperator narrow(ProblemScale::kTiny, GemmConfig{16, 16, 16, 1});
  GemmOperator wide(ProblemScale::kTiny, GemmConfig{16, 16, 16, 8});
  narrow.setup(mem, alloc, rng);
  {
    GlobalMemory m2;
    MemoryAllocator a2;
    Rng r2(7);
    wide.setup(m2, a2, r2);
  }
  EXPECT_NE(narrow.program().disassemble(), wide.program().disassemble());
  EXPECT_GT(wide.program().size(), narrow.program().size());
}

TEST(Operators, GemmMatchesReferenceAcrossTileConfigs) {
  const GemmConfig configs[] = {
      {16, 16, 16, 1},  // score 0: analyzer keeps it on the GPU
      {16, 16, 16, 2},  {8, 16, 32, 8}, {24, 8, 16, 4}};
  for (const GemmConfig& c : configs) {
    GemmOperator wl(ProblemScale::kTiny, c);
    EXPECT_EQ(diff_operator(wl, ndp_config()), "")
        << "GEMM " << c.m << "x" << c.n << "x" << c.k << "/t" << c.tile_k;
  }
}

TEST(Operators, SpmvMatchesReferenceAcrossTileConfigs) {
  const SpmvConfig configs[] = {{128, 2, 64}, {256, 4, 128}, {64, 8, 32}};
  for (const SpmvConfig& c : configs) {
    SpmvOperator wl(ProblemScale::kTiny, c);
    EXPECT_EQ(diff_operator(wl, ndp_config()), "")
        << "SPMV rows=" << c.rows << " nnz=" << c.max_nnz;
  }
}

TEST(Operators, ReduceMatchesReferenceAcrossTileConfigs) {
  const ReduceConfig configs[] = {{128, 8, 2, false},   // rejected (score <= 0)
                                  {64, 16, 4, true},
                                  {64, 8, 8, true},     // offloaded, interleaved
                                  {256, 4, 4, false}};
  for (const ReduceConfig& c : configs) {
    ReduceOperator wl(ProblemScale::kTiny, c);
    EXPECT_EQ(diff_operator(wl, ndp_config()), "")
        << "REDUCE batches=" << c.batches << " len=" << c.len << " unroll=" << c.unroll
        << (c.interleaved ? " interleaved" : "");
  }
}

TEST(Operators, AttnMatchesReferenceAcrossTileConfigs) {
  const AttnConfig configs[] = {{64, 4, 32, true},
                                {64, 2, 32, false},
                                {128, 8, 64, true},   // masked: guarded producer
                                {64, 4, 16, false}};
  for (const AttnConfig& c : configs) {
    AttnOperator wl(ProblemScale::kTiny, c);
    EXPECT_EQ(diff_operator(wl, ndp_config()), "")
        << "ATTN q=" << c.queries << " ctx=" << c.ctx << " keys=" << c.keys
        << (c.masked ? " masked" : "");
  }
}

TEST(Operators, TenantMixMatchesReferenceUnderEveryArbiter) {
  // One operator tenant sharing the machine with a classic Table-1 tenant;
  // arbitration changes scheduling, never bytes.
  const std::pair<TenantArbiter, const char*> arbiters[] = {
      {TenantArbiter::kRoundRobin, "round-robin"},
      {TenantArbiter::kWeightedShare, "weighted-share"},
      {TenantArbiter::kStrictPriority, "strict-priority"}};
  for (const auto& [arb, label] : arbiters) {
    OraclePoint p;
    p.label = label;
    p.cfg = SystemConfig::paper();
    p.cfg.governor.epoch_cycles = 1000;
    p.cfg.governor.mode = OffloadMode::kAlways;
    p.cfg.tenancy.arbiter = arb;
    const DiffReport report =
        diff_check_tenants({"ATTN", "VADD"}, ProblemScale::kTiny, {p});
    ASSERT_TRUE(report.ref_completed) << label << ": " << report.ref_error;
    EXPECT_TRUE(report.ok()) << label << "\n" << to_string(report);
    EXPECT_EQ(report.outcomes.size(), 1u);
  }
}

}  // namespace
}  // namespace sndp
