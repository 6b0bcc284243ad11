#include "ref/fuzz.h"

#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>

#include "common/parse.h"
#include "offload/codegen.h"
#include "ref/placement_profile.h"
#include "ref/ref_interp.h"
#include "sim/simulator.h"
#include "workloads/ops/ops.h"
#include "workloads/registry.h"
#include "workloads/wl_util.h"

namespace sndp {

namespace {

// Fixed memory layout: power-of-two input arrays, write-only output arrays.
constexpr Addr kBaseA = 0x10000;    // f64[kFuzzElems]
constexpr Addr kBaseB = 0x20000;    // f64[kFuzzElems]
constexpr Addr kBaseI = 0x30000;    // u64[kFuzzElems], values in [0, kFuzzElems)
constexpr Addr kBaseOut = 0x40000;  // accumulators: 2 * total_threads * 8
constexpr Addr kBaseOut2 = 0x60000; // per-store-op slots: n_stores * total * 8

// Register conventions (R0-R3 are the launch registers).
constexpr unsigned kLoopReg = 4;
constexpr unsigned kFaccReg = 5;
constexpr unsigned kIaccReg = 6;
constexpr unsigned kBaseRegA = 16, kBaseRegB = 17, kBaseRegI = 18;
constexpr unsigned kBaseRegOut = 19, kBaseRegOut2 = 20;
constexpr unsigned kScratchFirst = 21, kScratchCount = 7;
constexpr unsigned kLoopPred = 0, kLoadPred = 1, kStorePred = 2;

constexpr std::uint64_t kIdxMask = kFuzzElems - 1;

}  // namespace

FuzzSpec generate_spec(std::uint64_t seed) {
  Rng rng(seed ^ 0xF022DEC0DEull);
  FuzzSpec spec;
  spec.seed = seed;

  const unsigned threads[] = {32, 48, 64, 96, 128};
  spec.launch.cta_threads = threads[rng.next_below(5)];
  spec.launch.num_ctas = 1 + static_cast<unsigned>(rng.next_below(4));
  spec.loop_trips = rng.bernoulli(0.5) ? 1 + static_cast<unsigned>(rng.next_below(4)) : 0;

  switch (rng.next_below(6)) {
    case 0: spec.mode = OffloadMode::kOff; break;
    case 1: spec.mode = OffloadMode::kDynamic; break;
    case 2: spec.mode = OffloadMode::kDynamicCache; break;
    case 3:
      spec.mode = OffloadMode::kStaticRatio;
      spec.static_ratio = 0.25 + 0.25 * static_cast<double>(rng.next_below(3));
      break;
    default: spec.mode = OffloadMode::kAlways; break;
  }
  const unsigned hmcs[] = {1, 2, 4};
  spec.num_hmcs = hmcs[rng.next_below(3)];
  // Placement axis: half the cases stay on the default random hash; the
  // rest spread across the alternate policies, with migration biased toward
  // storm thresholds (lots of mid-run re-homing) to stress pinned lookups.
  switch (rng.next_below(8)) {
    case 0: spec.placement = PlacementPolicyKind::kFirstTouch; break;
    case 1: spec.placement = PlacementPolicyKind::kLocality; break;
    case 2:
    case 3:
      spec.placement = PlacementPolicyKind::kMigration;
      spec.migration_threshold = 1 + static_cast<unsigned>(rng.next_below(32));
      break;
    default: spec.placement = PlacementPolicyKind::kRandom; break;
  }

  const unsigned n_ops = 3 + static_cast<unsigned>(rng.next_below(14));
  for (unsigned i = 0; i < n_ops; ++i) {
    FuzzOp op;
    const std::uint64_t k = rng.next_below(100);
    if (k < 25) {
      op.kind = FuzzOp::Kind::kStridedLoad;
    } else if (k < 40) {
      op.kind = FuzzOp::Kind::kIndirectLoad;
    } else if (k < 50) {
      op.kind = FuzzOp::Kind::kGuardedLoad;
    } else if (k < 70) {
      op.kind = FuzzOp::Kind::kFloatAlu;
    } else if (k < 85) {
      op.kind = FuzzOp::Kind::kIntAlu;
    } else if (k < 95) {
      op.kind = FuzzOp::Kind::kStore;
    } else {
      op.kind = FuzzOp::Kind::kGuardedStore;
    }
    op.a = rng.next_u32();
    op.b = rng.next_u32();
    op.c = 1 + static_cast<std::uint32_t>(rng.next_below(kWarpWidth - 1));
    spec.ops.push_back(op);
  }

  // Retired parallel-in-time axis: these two draws once picked a partition
  // count.  Their values are discarded, but the draws stay so the tenant
  // and operator axes drawn below keep the values every seed has always
  // had — without them every case from here on would test a different
  // kernel.
  if ((spec.placement == PlacementPolicyKind::kRandom ||
       spec.placement == PlacementPolicyKind::kLocality) &&
      rng.bernoulli(0.5)) {
    (void)rng.bernoulli(0.5);
  }

  // Tenant axis, drawn last of all so pre-tenant seeds keep their shape.
  // A quarter of the cases run 2-3 concurrent copies of the kernel in
  // disjoint address slices, under a random arbiter policy.
  if (rng.bernoulli(0.25)) {
    spec.tenants = 2 + static_cast<unsigned>(rng.next_below(2));
    spec.arbiter = static_cast<unsigned>(rng.next_below(3));
  }

  // Operator axis, drawn after everything else so pre-operator seeds keep
  // their shape.  A fifth of the cases swap the generated kernel for an
  // operator-library workload (GEMM/SpMV/reduction/attention) at a random
  // tile config, reusing the config axes above — real address patterns and
  // guarded epilogues the synthetic op soup cannot produce.
  if (rng.bernoulli(0.2)) {
    const auto& names = operator_names();
    spec.op_workload = names[rng.next_below(names.size())];
    spec.op_variant = static_cast<unsigned>(rng.next_below(4));
  }
  return spec;
}

Program build_fuzz_program(const FuzzSpec& spec, unsigned tenant) {
  ProgramBuilder pb;
  const unsigned total = spec.launch.total_threads();
  const Addr toff = static_cast<Addr>(tenant) * kFuzzTenantStride;

  pb.movi(kBaseRegA, static_cast<std::int64_t>(kBaseA + toff))
      .movi(kBaseRegB, static_cast<std::int64_t>(kBaseB + toff))
      .movi(kBaseRegI, static_cast<std::int64_t>(kBaseI + toff))
      .movi(kBaseRegOut, static_cast<std::int64_t>(kBaseOut + toff))
      .movi(kBaseRegOut2, static_cast<std::int64_t>(kBaseOut2 + toff))
      .movi(kFaccReg, 0)      // facc = +0.0
      .mov(kIaccReg, 0)       // iacc starts as the thread id
      .movi(kLoopReg, 0)
      .label("body");

  unsigned scratch = 0;
  auto next_scratch = [&]() {
    const unsigned r = kScratchFirst + scratch;
    scratch = (scratch + 1) % kScratchCount;
    return r;
  };
  unsigned store_slot = 0;

  for (const FuzzOp& op : spec.ops) {
    const unsigned r = next_scratch();
    switch (op.kind) {
      case FuzzOp::Kind::kStridedLoad: {
        const auto stride = static_cast<std::int64_t>(1 + (op.a & 63));
        const bool f32 = (op.a & 0x100) != 0;
        // idx = (gtid * stride + loop + offset) & mask; addr = A + idx * w.
        pb.madi(r, 0, stride, kLoopReg)
            .alui(Opcode::kIAdd, r, r, static_cast<std::int64_t>(op.b & kIdxMask))
            .alui(Opcode::kAnd, r, r, static_cast<std::int64_t>(kIdxMask))
            .madi(r, r, f32 ? 4 : 8, kBaseRegA)
            .ld(r, r, 0, f32 ? 4 : 8, f32)
            .alu(Opcode::kFAdd, kFaccReg, kFaccReg, r);
        break;
      }
      case FuzzOp::Kind::kIndirectLoad: {
        // idx = (gtid + loop + offset) & mask; v = I[idx]; r = B[v].
        pb.alu(Opcode::kIAdd, r, 0, kLoopReg)
            .alui(Opcode::kIAdd, r, r, static_cast<std::int64_t>(op.b & kIdxMask))
            .alui(Opcode::kAnd, r, r, static_cast<std::int64_t>(kIdxMask))
            .madi(r, r, 8, kBaseRegI)
            .ld(r, r)
            .madi(r, r, 8, kBaseRegB)
            .ld(r, r)
            .alu(Opcode::kFAdd, kFaccReg, kFaccReg, r);
        break;
      }
      case FuzzOp::Kind::kGuardedLoad: {
        const auto stride = static_cast<std::int64_t>(1 + (op.a & 31));
        // Divergent: only lanes with tid-in-CTA % warp < c load and fold.
        pb.alui(Opcode::kAnd, r, 3, kWarpWidth - 1)
            .isetpi(kLoadPred, CmpOp::kLt, r, static_cast<std::int64_t>(op.c))
            .madi(r, 0, stride, kLoopReg)
            .alui(Opcode::kAnd, r, r, static_cast<std::int64_t>(kIdxMask))
            .madi(r, r, 8, kBaseRegA)
            .pred(kLoadPred)
            .ld(r, r)
            .pred(kLoadPred)
            .alu(Opcode::kFAdd, kFaccReg, kFaccReg, r);
        break;
      }
      case FuzzOp::Kind::kFloatAlu: {
        static constexpr Opcode kOps[] = {Opcode::kFAdd, Opcode::kFSub, Opcode::kFMul,
                                          Opcode::kFMin, Opcode::kFMax};
        pb.movi(r, static_cast<std::int64_t>(1 + (op.b & 31)))
            .unary(Opcode::kI2F, r, r);
        if ((op.a & 7) == 5) {
          pb.fma(kFaccReg, kFaccReg, r, kFaccReg);
        } else {
          pb.alu(kOps[op.a % 5], kFaccReg, kFaccReg, r);
        }
        break;
      }
      case FuzzOp::Kind::kIntAlu: {
        static constexpr Opcode kOps[] = {Opcode::kIAdd, Opcode::kISub, Opcode::kIMul,
                                          Opcode::kAnd,  Opcode::kOr,   Opcode::kXor,
                                          Opcode::kIMin, Opcode::kIMax};
        pb.alui(kOps[op.a % 8], kIaccReg, kIaccReg,
                static_cast<std::int64_t>(op.b & 0xFFFF))
            .alui(Opcode::kAnd, kIaccReg, kIaccReg, 0xFFFFF);
        break;
      }
      case FuzzOp::Kind::kStore: {
        const auto off = static_cast<std::int64_t>(store_slot++ * total * 8);
        pb.madi(r, 0, 8, kBaseRegOut2)
            .st(r, (op.a & 1) ? kIaccReg : kFaccReg, off);
        break;
      }
      case FuzzOp::Kind::kGuardedStore: {
        const auto off = static_cast<std::int64_t>(store_slot++ * total * 8);
        pb.alui(Opcode::kAnd, r, 3, kWarpWidth - 1)
            .isetpi(kStorePred, CmpOp::kGe, r, static_cast<std::int64_t>(op.c))
            .madi(r, 0, 8, kBaseRegOut2)
            .pred(kStorePred)
            .st(r, (op.a & 1) ? kIaccReg : kFaccReg, off);
        break;
      }
    }
  }

  if (spec.loop_trips > 0) {
    pb.alui(Opcode::kIAdd, kLoopReg, kLoopReg, 1)
        .isetpi(kLoopPred, CmpOp::kLt, kLoopReg,
                static_cast<std::int64_t>(spec.loop_trips))
        .pred(kLoopPred)
        .bra("body");
  }

  // Epilogue (never shrunk away): persist both accumulators.
  const unsigned r = next_scratch();
  pb.madi(r, 0, 8, kBaseRegOut)
      .st(r, kFaccReg)
      .st(r, kIaccReg, static_cast<std::int64_t>(spec.launch.total_threads()) * 8)
      .exit();
  return pb.build();
}

void init_fuzz_memory(const FuzzSpec& spec, GlobalMemory& mem) {
  // Tenant 0's salt is zero, so single-tenant images are byte-identical to
  // the pre-tenant layout.  Later tenants get distinct data: if the fabric
  // ever routes one tenant's traffic into another's slice, bytes differ.
  for (unsigned t = 0; t < std::max(1u, spec.tenants); ++t) {
    const Addr toff = static_cast<Addr>(t) * kFuzzTenantStride;
    const std::uint64_t salt = static_cast<std::uint64_t>(t) << 40;
    for (std::uint64_t i = 0; i < kFuzzElems; ++i) {
      mem.write_f64(kBaseA + toff + 8 * i, wl::value(i, spec.seed ^ 0xA ^ salt));
      mem.write_f64(kBaseB + toff + 8 * i, wl::value(i, spec.seed ^ 0xB ^ salt) * 2.0);
      mem.write_u64(kBaseI + toff + 8 * i,
                    wl::index(i, kFuzzElems, spec.seed ^ 0x1 ^ salt));
    }
  }
}

SystemConfig fuzz_config(const FuzzSpec& spec) {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = spec.mode;
  cfg.governor.static_ratio = spec.static_ratio;
  cfg.governor.epoch_cycles = 500;  // several epochs even in short runs
  cfg.num_hmcs = spec.num_hmcs;
  cfg.placement_seed = 0x5EED ^ spec.seed;
  cfg.placement.policy = spec.placement;
  cfg.placement.migration_threshold = spec.migration_threshold;
  if (spec.tenants > 1) {
    cfg.tenancy.arbiter = static_cast<TenantArbiter>(spec.arbiter % 3);
  }
  return cfg;
}

std::unique_ptr<Workload> make_fuzz_operator(const std::string& name, unsigned variant) {
  const unsigned v = variant % 4;
  // Variants chosen to straddle the analyzer's accept/reject boundary
  // (GEMM tile_k=1 and REDUCE unroll<8 score non-positive and run on the
  // GPU; the rest offload) and to vary indirection depth and masking.
  if (name == "GEMM") {
    static constexpr GemmConfig kV[] = {
        {16, 16, 16, 2}, {16, 16, 16, 1}, {8, 16, 32, 8}, {24, 8, 16, 4}};
    return std::make_unique<GemmOperator>(ProblemScale::kTiny, kV[v]);
  }
  if (name == "SPMV") {
    static constexpr SpmvConfig kV[] = {
        {128, 2, 64}, {256, 4, 128}, {64, 8, 32}, {512, 3, 256}};
    return std::make_unique<SpmvOperator>(ProblemScale::kTiny, kV[v]);
  }
  if (name == "REDUCE") {
    static constexpr ReduceConfig kV[] = {
        {128, 8, 2, false}, {64, 16, 4, true}, {256, 4, 4, false}, {64, 8, 8, true}};
    return std::make_unique<ReduceOperator>(ProblemScale::kTiny, kV[v]);
  }
  if (name == "ATTN") {
    static constexpr AttnConfig kV[] = {
        {64, 4, 32, true}, {64, 2, 32, false}, {128, 8, 64, true}, {64, 4, 16, false}};
    return std::make_unique<AttnOperator>(ProblemScale::kTiny, kV[v]);
  }
  throw std::invalid_argument("make_fuzz_operator: unknown operator " + name);
}

namespace {

// Operator-mode differential case: the operator brings its own kernel,
// launch, and host verify(); the spec contributes the config axes.  Runs
// single-tenant regardless of the tenant axis (operators join tenant mixes
// through the diff oracle and test_operators instead).
std::optional<std::string> run_operator_case(const FuzzSpec& spec) {
  std::unique_ptr<Workload> wl;
  GlobalMemory initial;
  try {
    wl = make_fuzz_operator(spec.op_workload, spec.op_variant);
    MemoryAllocator alloc;
    Rng rng(spec.seed ^ 0x0Bul);
    wl->setup(initial, alloc, rng);
  } catch (const std::exception& e) {
    return std::string("operator setup failed: ") + e.what();
  }

  GlobalMemory ref_mem = initial;
  const RefResult ref = ref_run(wl->program(), wl->launch(), ref_mem);
  if (!ref.completed) {
    return "reference failed: " + (ref.error.empty() ? "budget exhausted" : ref.error);
  }

  GlobalMemory sim_mem = initial;
  try {
    SystemConfig cfg = fuzz_config(spec);
    if (cfg.placement.policy == PlacementPolicyKind::kLocality) {
      cfg.placement.locality_profile =
          build_placement_profile(wl->program(), wl->launch(), initial, cfg);
    }
    const KernelImage image = analyze_and_generate(wl->program());
    Simulator sim(cfg);
    const RunResult r = sim.run_image(image, wl->launch(), sim_mem, spec.op_workload);
    if (!r.completed) {
      return std::string("simulator did not complete: ") +
             (r.aborted ? "aborted" : "hit the simulated-time safety valve");
    }
  } catch (const std::exception& e) {
    return std::string("simulator threw: ") + e.what();
  }

  if (!wl->verify(sim_mem)) return "operator host verify failed on the sim image";
  Addr where = 0;
  if (!sim_mem.equal_contents(ref_mem, &where)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "memory mismatch at 0x%llx: ref byte %02x, sim byte %02x",
                  static_cast<unsigned long long>(where),
                  static_cast<unsigned>(ref_mem.read(where, 1)),
                  static_cast<unsigned>(sim_mem.read(where, 1)));
    return std::string(buf);
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string> run_fuzz_case(const FuzzSpec& spec) {
  if (!spec.op_workload.empty()) return run_operator_case(spec);
  const unsigned tenants = std::max(1u, spec.tenants);
  std::vector<Program> progs;
  try {
    for (unsigned t = 0; t < tenants; ++t) progs.push_back(build_fuzz_program(spec, t));
  } catch (const std::exception& e) {
    return std::string("program build failed: ") + e.what();
  }

  GlobalMemory initial;
  init_fuzz_memory(spec, initial);

  // Reference: each tenant's program replayed independently — disjoint
  // slices make sequential replay the ground truth for concurrent runs.
  GlobalMemory ref_mem = initial;
  for (unsigned t = 0; t < tenants; ++t) {
    const RefResult ref = ref_run(progs[t], spec.launch, ref_mem);
    if (!ref.completed) {
      return "tenant " + std::to_string(t) + " reference failed: " +
             (ref.error.empty() ? "budget exhausted" : ref.error);
    }
  }

  GlobalMemory sim_mem = initial;
  try {
    SystemConfig cfg = fuzz_config(spec);
    // run_image() bypasses Simulator::run's auto-profiling; locality cases
    // build their profile here from the same pristine image (single-tenant
    // only — the profile is per-kernel, so tenant mixes run unprofiled).
    if (cfg.placement.policy == PlacementPolicyKind::kLocality && tenants == 1) {
      cfg.placement.locality_profile =
          build_placement_profile(progs[0], spec.launch, initial, cfg);
    }
    std::vector<KernelImage> images;
    images.reserve(tenants);
    for (const Program& p : progs) images.push_back(analyze_and_generate(p));
    Simulator sim(cfg);
    RunResult r;
    if (tenants == 1) {
      r = sim.run_image(images[0], spec.launch, sim_mem, "fuzz");
    } else {
      std::vector<TenantJob> jobs;
      for (unsigned t = 0; t < tenants; ++t) {
        TenantJob job;
        job.image = &images[t];
        job.launch = spec.launch;
        job.name = "fuzz-t" + std::to_string(t);
        // Give the weighted/strict arbiters distinct knobs to act on.
        job.weight = 1.0 + t;
        job.priority = t;
        jobs.push_back(std::move(job));
      }
      r = sim.run_images(jobs, sim_mem, "fuzz");
    }
    if (!r.completed) {
      return std::string("simulator did not complete: ") +
             (r.aborted ? "aborted" : "hit the simulated-time safety valve");
    }
  } catch (const std::exception& e) {
    return std::string("simulator threw: ") + e.what();
  }

  Addr where = 0;
  if (!sim_mem.equal_contents(ref_mem, &where)) {
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "memory mismatch at 0x%llx: ref byte %02x, sim byte %02x",
                  static_cast<unsigned long long>(where),
                  static_cast<unsigned>(ref_mem.read(where, 1)),
                  static_cast<unsigned>(sim_mem.read(where, 1)));
    return std::string(buf);
  }
  return std::nullopt;
}

FuzzSpec shrink_fuzz_case(const FuzzSpec& spec) {
  FuzzSpec cur = spec;
  unsigned budget = 200;  // bound on differential re-runs during shrinking
  auto still_fails = [&](const FuzzSpec& candidate) {
    if (budget == 0) return false;
    --budget;
    return run_fuzz_case(candidate).has_value();
  };

  // Greedy delta debugging over the op list: halves first, then singles.
  bool changed = true;
  while (changed && budget > 0) {
    changed = false;
    for (std::size_t chunk = std::max<std::size_t>(cur.ops.size() / 2, 1); chunk >= 1;
         chunk /= 2) {
      for (std::size_t start = 0; start + chunk <= cur.ops.size();) {
        FuzzSpec candidate = cur;
        candidate.ops.erase(candidate.ops.begin() + static_cast<std::ptrdiff_t>(start),
                            candidate.ops.begin() + static_cast<std::ptrdiff_t>(start + chunk));
        if (still_fails(candidate)) {
          cur = std::move(candidate);
          changed = true;
        } else {
          start += chunk;
        }
      }
      if (chunk == 1) break;
    }
  }

  // Structural simplifications, kept only if the failure persists.
  // Tenants first: a mix that still fails single-tenant is a classic bug
  // and every later shrink gets cheaper; otherwise walk the count down
  // toward the smallest failing mix.
  while (cur.tenants > 1 && budget > 0) {
    FuzzSpec candidate = cur;
    candidate.tenants = 1;
    if (still_fails(candidate)) {
      cur = std::move(candidate);
      break;
    }
    candidate = cur;
    candidate.tenants = cur.tenants - 1;
    if (!still_fails(candidate)) break;
    cur = std::move(candidate);
  }
  // Operator cases: try the default tile config before the kernel-shape
  // shrinks (which are no-ops for them — the operator brings its own
  // kernel, so the op-list pass above already emptied the unused list).
  if (!cur.op_workload.empty() && cur.op_variant != 0) {
    FuzzSpec candidate = cur;
    candidate.op_variant = 0;
    if (still_fails(candidate)) cur = std::move(candidate);
  }
  if (cur.loop_trips > 0) {
    FuzzSpec candidate = cur;
    candidate.loop_trips = 0;
    if (still_fails(candidate)) cur = std::move(candidate);
  }
  if (cur.launch.num_ctas > 1) {
    FuzzSpec candidate = cur;
    candidate.launch.num_ctas = 1;
    if (still_fails(candidate)) cur = std::move(candidate);
  }
  if (cur.launch.cta_threads > kWarpWidth) {
    FuzzSpec candidate = cur;
    candidate.launch.cta_threads = kWarpWidth;
    if (still_fails(candidate)) cur = std::move(candidate);
  }
  return cur;
}

std::string FuzzSpec::to_text() const {
  std::ostringstream os;
  os << "sndp-fuzz-repro-v1\n";
  os << "seed " << seed << "\n";
  os << "launch " << launch.cta_threads << " " << launch.num_ctas << "\n";
  os << "loop " << loop_trips << "\n";
  os << "mode " << static_cast<int>(mode) << " " << static_ratio << "\n";
  os << "hmcs " << num_hmcs << "\n";
  os << "placement " << static_cast<int>(placement) << " " << migration_threshold
     << "\n";
  os << "tenants " << tenants << " " << arbiter << "\n";
  if (!op_workload.empty()) os << "opwl " << op_workload << " " << op_variant << "\n";
  for (const FuzzOp& op : ops) {
    os << "op " << static_cast<int>(op.kind) << " " << op.a << " " << op.b << " " << op.c
       << "\n";
  }
  os << "end\n";
  return os.str();
}

namespace {

// The blank-separated fields of one reproducer line.
std::vector<std::string_view> split_fields(std::string_view line) {
  constexpr std::string_view kBlanks = " \t\r";
  std::vector<std::string_view> fields;
  std::size_t begin = line.find_first_not_of(kBlanks);
  while (begin != std::string_view::npos) {
    const std::size_t end = line.find_first_of(kBlanks, begin);
    fields.push_back(line.substr(begin, end - begin));
    begin = end == std::string_view::npos ? end : line.find_first_not_of(kBlanks, end);
  }
  return fields;
}

// `text` stored into `out` when it is a whole unsigned number in [lo, hi]
// (by default the range of T).  An enum, written as its integer value,
// passes its last member as `hi`.
template <typename T>
bool parse_field(std::string_view text, T& out, std::uint64_t lo = 0,
                 std::uint64_t hi = std::numeric_limits<T>::max()) {
  const auto v = parse_unsigned(text, lo, hi);
  if (v) out = static_cast<T>(*v);
  return v.has_value();
}

bool parse_field(std::string_view text, double& out, double lo, double hi) {
  const auto v = parse_double(text, lo, hi);
  if (v) out = *v;
  return v.has_value();
}

}  // namespace

std::optional<FuzzSpec> FuzzSpec::from_text(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  if (!std::getline(is, line) || line != "sndp-fuzz-repro-v1") return std::nullopt;
  FuzzSpec spec;
  spec.ops.clear();
  while (std::getline(is, line)) {
    const std::vector<std::string_view> f = split_fields(line);
    if (f.empty()) return std::nullopt;
    if (f[0].front() == '#') continue;
    const std::string_view key = f[0];
    const std::size_t n = f.size() - 1;  // values after the directive
    bool ok = false;
    if (key == "end") {
      if (n != 0) return std::nullopt;
      return spec;
    } else if (key == "seed") {
      ok = n == 1 && parse_field(f[1], spec.seed);
    } else if (key == "launch") {
      ok = n == 2 && parse_field(f[1], spec.launch.cta_threads) &&
           parse_field(f[2], spec.launch.num_ctas);
    } else if (key == "loop") {
      ok = n == 1 && parse_field(f[1], spec.loop_trips);
    } else if (key == "mode") {
      ok = n == 2 &&
           parse_field(f[1], spec.mode, 0,
                       static_cast<std::uint64_t>(OffloadMode::kDynamicCache)) &&
           parse_field(f[2], spec.static_ratio, 0.0, 1.0);
    } else if (key == "hmcs") {
      ok = n == 1 && parse_field(f[1], spec.num_hmcs);
    } else if (key == "placement") {
      // Optional (absent in pre-placement reproducers, which default to
      // the random policy those runs actually used).
      ok = n == 2 &&
           parse_field(f[1], spec.placement, 0,
                       static_cast<std::uint64_t>(PlacementPolicyKind::kMigration)) &&
           parse_field(f[2], spec.migration_threshold);
    } else if (key == "partitions") {
      // Legacy line from reproducers written while the parallel-in-time
      // engine existed.  Partitioned runs were bit-identical to serial, so
      // a serial replay reproduces them: parse the count and ignore it.
      unsigned ignored = 0;
      ok = n == 1 && parse_field(f[1], ignored);
    } else if (key == "tenants") {
      // Optional (absent in pre-tenant reproducers, which ran one kernel).
      ok = n == 2 && parse_field(f[1], spec.tenants) &&
           parse_field(f[2], spec.arbiter, 0,
                       static_cast<std::uint64_t>(TenantArbiter::kStrictPriority));
    } else if (key == "opwl") {
      // Optional (absent in pre-operator reproducers, which ran the
      // generated kernel).
      ok = n == 2 && parse_field(f[2], spec.op_variant);
      if (ok) spec.op_workload = f[1];
    } else if (key == "op") {
      FuzzOp op;
      ok = n == 4 &&
           parse_field(f[1], op.kind, 0,
                       static_cast<std::uint64_t>(FuzzOp::Kind::kGuardedStore)) &&
           parse_field(f[2], op.a) && parse_field(f[3], op.b) && parse_field(f[4], op.c);
      if (ok) spec.ops.push_back(op);
    }
    // An unknown directive or a malformed value: refuse to guess.
    if (!ok) return std::nullopt;
  }
  return std::nullopt;  // no `end` marker
}

bool write_fuzz_reproducer(const std::string& path, const FuzzSpec& spec,
                           const std::string& detail) {
  std::ofstream out(path);
  if (!out) return false;
  out << spec.to_text();
  out << "# detail: " << detail << "\n";
  out << "# replay: SNDP_FUZZ_REPRO=<this file> ./sndp_fuzz_tests\n";
  out << "# disassembly:\n";
  std::string disasm;
  if (spec.op_workload.empty()) {
    disasm = build_fuzz_program(spec).disassemble();
  } else {
    try {
      auto wl = make_fuzz_operator(spec.op_workload, spec.op_variant);
      GlobalMemory mem;
      MemoryAllocator alloc;
      Rng rng(spec.seed ^ 0x0Bul);
      wl->setup(mem, alloc, rng);
      disasm = wl->program().disassemble();
    } catch (const std::exception& e) {
      disasm = std::string("(operator setup failed: ") + e.what() + ")";
    }
  }
  std::istringstream dis(disasm);
  std::string line;
  while (std::getline(dis, line)) out << "#   " << line << "\n";
  return static_cast<bool>(out);
}

}  // namespace sndp
