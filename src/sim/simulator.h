// Top-level facade: builds the whole system (GPU + HMCs + memory network +
// governor) for a workload, runs it to completion, and returns a RunResult
// with timing, traffic, stall, and energy statistics.
//
// Typical use (see examples/quickstart.cpp):
//
//   auto cfg = SystemConfig::paper();
//   cfg.governor.mode = OffloadMode::kDynamicCache;
//   VaddWorkload wl(ProblemScale::kSmall);
//   RunResult r = Simulator(cfg).run(wl);
//   std::cout << r.sm_cycles << " cycles, verified=" << r.verified << "\n";
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/config.h"
#include "common/stats.h"
#include "energy/energy_model.h"
#include "isa/program.h"
#include "obs/epoch_timeline.h"
#include "obs/latency.h"
#include "sim/context.h"

namespace sndp {

class Workload;

// One resident kernel stream in a multi-tenant run: a pre-built kernel image
// plus its launch geometry and arbiter inputs (weight for kWeightedShare,
// priority for kStrictPriority; both ignored by kRoundRobin).
struct TenantJob {
  const KernelImage* image = nullptr;
  LaunchParams launch{};
  std::string name;
  double weight = 1.0;
  unsigned priority = 0;
};

// A tenant described at the workload level (run_tenants builds the image and
// address space itself).  The workload object must outlive the call.
struct TenantDesc {
  Workload* workload = nullptr;
  double weight = 1.0;
  unsigned priority = 0;
};

// Per-tenant slice of a multi-tenant run (RunResult::tenants; empty on
// single-tenant runs so classic results are unchanged).
struct TenantResult {
  std::string name;
  bool verified = false;     // only set by the run_tenants path
  Cycle finish_cycle = 0;    // SM cycle at which the tenant's last CTA retired
  std::uint64_t issued = 0;  // SM instructions issued on this tenant's warps
  std::uint64_t l2_hits = 0;
  std::uint64_t l2_misses = 0;
  std::uint64_t l2_merged = 0;
  std::uint64_t gov_block_instrs = 0;  // this tenant's governor climb signal
};

// Deterministic per-tenant setup parameters, shared by the timing path
// (Simulator::run_tenants) and the reference replay (diff_check):
// tenant 0 uses the exact classic seed (so its address space and contents
// are byte-identical to a solo run); later tenants perturb it by a
// golden-ratio stride.  Address spaces are kept disjoint by rounding the
// shared allocator up to a 16 MiB boundary before each tenant's setup.
inline std::uint64_t tenant_setup_seed(std::uint64_t placement_seed, unsigned tenant) {
  return (placement_seed ^ 0xABCDEFull) + 0x9E3779B97F4A7C15ull * tenant;
}
inline constexpr std::uint64_t kTenantBaseAlign = std::uint64_t{1} << 24;  // 16 MiB

struct RunResult {
  std::string workload;
  bool completed = false;  // false: hit the simulated-time safety valve
  bool aborted = false;    // an external abort poll stopped the run early
  bool verified = false;   // workload oracle check on final memory contents
  Cycle sm_cycles = 0;
  TimePs runtime_ps = 0;
  double ipc = 0.0;

  // Fig. 8 stall cycles (aggregated over SMs; sums of the SM cycle-stack
  // bucket groups that refine them).
  std::uint64_t stall_dependency = 0;
  std::uint64_t stall_exec_busy = 0;
  std::uint64_t stall_warp_idle = 0;

  // Off-chip traffic split (bytes).
  std::uint64_t gpu_link_bytes = 0;
  std::uint64_t cube_link_bytes = 0;
  std::uint64_t inval_bytes = 0;  // §4.2 coherence overhead

  // Energy events: each component adds its own in its report().
  EnergyCounters counters{};
  EnergyBreakdown energy{};
  StatSet stats;

  // One sample per governor epoch (Fig. 8 dynamics): offload ratio, IPCs,
  // hit rates, link utilization, NSU occupancy.  Also serialized as the
  // `timeline` array in the sndp-sweep-v1 JSON.
  std::vector<EpochSample> timeline;

  // Request-lifecycle latency histograms (src/obs/latency.*).
  LatencySummary latency;

  // Machine-wide cycle stacks (src/obs/cycle_stack.*): per-tenant SM / NSU /
  // vault bucket counters, exhaustive over each component's counted cycles.
  CycleStackSummary cycle_stack;

  // Per-tenant results; empty on single-tenant runs.
  std::vector<TenantResult> tenants;

  double speedup_vs(const RunResult& baseline) const {
    return static_cast<double>(baseline.sm_cycles) / static_cast<double>(sm_cycles);
  }
};

class Simulator {
 public:
  explicit Simulator(const SystemConfig& cfg);

  // Runs `workload` to completion on a freshly-built system: a one-tenant
  // run_tenants.
  RunResult run(Workload& workload);

  // For tests: run a pre-built kernel image directly (the workload's setup
  // must already have populated `gmem`).  Delegates to run_images with a
  // single job, so the single-tenant path is the one-job multi-tenant path.
  RunResult run_image(const KernelImage& image, const LaunchParams& launch,
                      class GlobalMemory& gmem, const std::string& name);

  // Multi-tenant core: N kernel streams resident at once, CTAs co-scheduled
  // under cfg.tenancy.arbiter, each tenant with its own offload governor.
  // All tenants share `gmem` (their address spaces must be disjoint for the
  // isolation invariants to hold — run_tenants arranges this).  One job is
  // bit-identical to the classic run_image path.
  RunResult run_images(const std::vector<TenantJob>& jobs, class GlobalMemory& gmem,
                       const std::string& name);

  // Workload-level entry, for one kernel or a mix: sets up each tenant in
  // its own 16 MiB-aligned slice of one shared GlobalMemory (tenant 0 laid
  // out exactly as a solo run would), builds each image, runs them
  // concurrently, and verifies every tenant's output region.  A one-kernel
  // locality run profiles itself (auto_placement_profile).
  RunResult run_tenants(const std::vector<TenantDesc>& tenants, const std::string& name);

  // Optional external abort hook, polled between tick bursts.  Returning
  // true stops the run early with result.aborted set (used by SweepRunner
  // for per-point wall-clock timeouts).  The callback must be cheap.
  using AbortPoll = std::function<bool()>;
  void set_abort_poll(AbortPoll poll) { abort_poll_ = std::move(poll); }

  // Final-memory snapshot hook: when set, run and run_tenants deep-copy the
  // functional memory image into `sink` after the run (post-verify), so
  // callers that go through the workload path — the differential oracle,
  // image-dumping tools — can inspect or compare the final memory without
  // re-running setup themselves.
  void set_final_memory_sink(class GlobalMemory* sink) { final_memory_sink_ = sink; }

 private:
  SystemConfig cfg_;
  AbortPoll abort_poll_;
  class GlobalMemory* final_memory_sink_ = nullptr;
};

}  // namespace sndp
