// Property-based NDP-equivalence fuzzing.
//
// Generates random well-formed mini-ISA kernels — mixes of strided loads,
// indirect (data-dependent) loads, divergent predicated operations, stores,
// integer/float ALU chains, and an optional warp-uniform loop — plus random
// system configurations, and cross-checks the timing simulator against the
// reference interpreter byte-for-byte.  Failing cases are shrunk to a
// minimal op list and dumped to a reproducer file that can be replayed.
//
// Generation invariants (so that both executors are comparable):
//  * every address is masked into a power-of-two array, so kernels never
//    touch memory outside their arrays;
//  * branches are warp-uniform (loop counters come from immediates);
//    divergence is expressed with predication, like the evaluated kernels;
//  * integer operands stay small (masked), so no signed overflow (clean
//    under UBSan); float values stay in [0, 2) plus whatever ALU chains
//    produce — NaN/Inf propagation is fine because both sides run the very
//    same execute_alu();
//  * every thread stores only to its own slots, so kernels are data-race-
//    free and results are interleaving-independent.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/rng.h"
#include "isa/program.h"
#include "memfunc/global_memory.h"
#include "sim/context.h"
#include "workloads/workload.h"

namespace sndp {

// One generator step.  Each op appends a few instructions to the kernel
// body; removing any subset still yields a well-formed kernel (that is
// what makes shrinking trivial).
struct FuzzOp {
  enum class Kind : std::uint8_t {
    kStridedLoad,    // r = A[(gtid * stride + offset) & mask]
    kIndirectLoad,   // r = B[I[(gtid + offset) & mask]]  (data-dependent addr)
    kGuardedLoad,    // predicated strided load (divergent lanes)
    kFloatAlu,       // facc = facc <op> r  (FADD/FSUB/FMUL/FMIN/FMAX/FFMA)
    kIntAlu,         // iacc = iacc <op> (r & 0xFFFF)  (IADD/ISUB/XOR/AND/OR/IMIN/IMAX)
    kStore,          // OUT2[op_slot * total + gtid] = facc
    kGuardedStore,   // predicated variant of kStore (divergent lanes)
  };
  Kind kind = Kind::kFloatAlu;
  std::uint32_t a = 0;  // stride / alu-op selector
  std::uint32_t b = 0;  // offset / immediate salt
  std::uint32_t c = 0;  // predicate compare value (divergence shape)
};

struct FuzzSpec {
  std::uint64_t seed = 0;    // generation seed (also salts the input data)
  LaunchParams launch{64, 2};
  unsigned loop_trips = 0;   // 0: straight-line; N: uniform loop over the body
  std::vector<FuzzOp> ops;

  // Config shape, applied over SystemConfig::small_test().
  OffloadMode mode = OffloadMode::kAlways;
  double static_ratio = 1.0;
  unsigned num_hmcs = 4;
  PlacementPolicyKind placement = PlacementPolicyKind::kRandom;
  unsigned migration_threshold = 64;  // only meaningful for kMigration
  unsigned tenants = 1;      // concurrent copies of the kernel (1 = classic)
  unsigned arbiter = 0;      // TenantArbiter as int (tenants > 1 only)

  // Operator axis (src/workloads/ops): when non-empty, the case runs this
  // operator-library workload ("GEMM"/"SPMV"/"REDUCE"/"ATTN") at the tile
  // config `op_variant` selects instead of the generated kernel.  The op
  // list / launch / loop / tenant fields are ignored for such cases — the
  // operator brings its own kernel and launch geometry.
  std::string op_workload;
  unsigned op_variant = 0;

  std::string to_text() const;                           // reproducer format
  static std::optional<FuzzSpec> from_text(const std::string& text);
};

// Fixed data-array geometry of every fuzz kernel (power-of-two element
// counts so index masking is a single AND).
inline constexpr std::uint64_t kFuzzElems = 1024;

// Address-space stride between tenants.  Every tenant's arrays live at
// the classic bases plus tenant * stride; the whole single-tenant layout
// fits well below the stride, so tenant slices never overlap.
inline constexpr Addr kFuzzTenantStride = 0x100000;

// Derives a random spec from `seed` (pure function of the seed).  The
// tenant axis is drawn LAST, so every pre-tenant seed keeps the exact
// kernel/config shape it had before the axis existed.
FuzzSpec generate_spec(std::uint64_t seed);

// Builds the kernel program for a spec.  Deterministic.  `tenant` shifts
// every array base by tenant * kFuzzTenantStride; tenant 0 is the classic
// single-kernel program byte-for-byte.
Program build_fuzz_program(const FuzzSpec& spec, unsigned tenant = 0);

// Populates the input arrays for a spec (pure function of spec.seed).
// Covers every tenant's slice; each tenant's data is salted with its id so
// cross-tenant address confusion changes observable bytes.
void init_fuzz_memory(const FuzzSpec& spec, GlobalMemory& mem);

// The SystemConfig a spec runs under.
SystemConfig fuzz_config(const FuzzSpec& spec);

// Builds the operator-library workload an operator-mode spec selects:
// `variant` (mod 4) picks among hand-chosen tile/size configs per operator,
// covering accept and reject analyzer outcomes.  Throws on unknown names.
std::unique_ptr<Workload> make_fuzz_operator(const std::string& name, unsigned variant);

// Runs one differential case: reference vs timing simulator on identical
// images.  Returns std::nullopt when the images are byte-identical, or a
// human-readable mismatch description.
std::optional<std::string> run_fuzz_case(const FuzzSpec& spec);

// Greedy delta-debugging over spec.ops (then loop removal and launch
// shrinking): returns the smallest spec that still fails.
FuzzSpec shrink_fuzz_case(const FuzzSpec& spec);

// Writes seed + spec + disassembly + failure detail to `path`.  Returns
// false on I/O failure.
bool write_fuzz_reproducer(const std::string& path, const FuzzSpec& spec,
                           const std::string& detail);

}  // namespace sndp
