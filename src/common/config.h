// System configuration.  The default values of every struct reproduce the
// paper's Table 2 ("System configuration") and the NDP parameters given in
// §5 and §7.2.  Benches use these defaults; tests may shrink the system.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "common/types.h"
#include "common/units.h"

namespace sndp {

// ---------------------------------------------------------------------------
// Clocks (Table 2: "SM, Xbar, L2 clock: 700, 1250, 700 MHz"; NSU: 350 MHz;
// DRAM: tCK = 1.50 ns -> 666.67 MHz).  The L2 slices tick with the SMs, and
// the crossbar is not clocked: each SM <-> L2 hop is `xbar_latency_ps`.
// ---------------------------------------------------------------------------
struct ClockConfig {
  std::uint64_t sm_khz = 700'000;    // SMs and L2
  std::uint64_t dram_khz = 666'667;  // tCK = 1.5 ns
  std::uint64_t nsu_khz = 350'000;
};

// ---------------------------------------------------------------------------
// Cache geometry (Table 2).
// ---------------------------------------------------------------------------
struct CacheConfig {
  std::uint64_t size_bytes = 32 * KiB;
  unsigned ways = 4;
  unsigned line_bytes = 128;
  unsigned mshr_entries = 48;
  // Tag/array access latency, in the owning clock domain's cycles.
  unsigned latency_cycles = 1;

  unsigned num_sets() const {
    return static_cast<unsigned>(size_bytes / (static_cast<std::uint64_t>(ways) * line_bytes));
  }
};

// ---------------------------------------------------------------------------
// SM configuration (Table 2).
// ---------------------------------------------------------------------------
struct SmConfig {
  unsigned max_threads = 1536;
  unsigned max_ctas = 8;
  unsigned max_registers = 32768;
  std::uint64_t scratchpad_bytes = 48 * KiB;

  // Execution model: single dual-purpose issue port; ALU ops have a fixed
  // pipeline depth (latency) and an initiation interval per op class.
  unsigned alu_latency = 10;     // cycles until result is ready
  unsigned sfu_latency = 20;     // MUL/DIV/transcendental class
  unsigned alu_ii = 1;           // initiation interval (issue occupancy)
  unsigned sfu_ii = 2;
  unsigned shm_latency = 24;     // scratchpad access
  unsigned max_warps() const { return max_threads / kWarpWidth; }

  CacheConfig l1d{.size_bytes = 32 * KiB, .ways = 4, .line_bytes = 128,
                  .mshr_entries = 48, .latency_cycles = 25};
};

// ---------------------------------------------------------------------------
// DRAM timing (Table 2: DDR3-1333H-like vault timing, in tCK units).
// ---------------------------------------------------------------------------
struct DramTiming {
  unsigned tRP = 9;
  unsigned tCCD = 4;
  unsigned tRCD = 9;
  unsigned tCL = 9;
  unsigned tWR = 12;
  unsigned tRAS = 24;
  // Data burst occupancy of the vault data bus for one 128 B line: with
  // tCCD = 4 a line streams out in 4 tCK (~21.3 GB/s/vault, ~341 GB/s/stack,
  // matching the paper's ~320 GB/s peak per-HMC figure).
  unsigned tBURST = 4;
};

// ---------------------------------------------------------------------------
// HMC stack (Table 2).
// ---------------------------------------------------------------------------
struct HmcConfig {
  unsigned num_vaults = 16;
  unsigned banks_per_vault = 16;
  std::uint64_t memory_bytes = 4 * GiB;
  unsigned vault_queue_size = 64;  // FR-FCFS request queue entries
  DramTiming timing{};
  std::uint64_t row_bytes = 4 * KiB;  // DRAM row (page) size, for energy
};

// ---------------------------------------------------------------------------
// Link / network configuration (Table 2: all off-chip links 20 GB/s per
// direction; GPU has 8 bidirectional links; each HMC has 4 — 1 to the GPU
// and 3 forming the 3-D hypercube memory network).
// ---------------------------------------------------------------------------
struct LinkConfig {
  double gb_per_s = 20.0;        // per direction
  unsigned header_bytes = 8;     // per-packet routing/CRC overhead
  TimePs propagation_ps = 3200;  // ~3.2 ns flight + SerDes
  unsigned router_latency_cycles = 2;  // per-hop router pipeline (DRAM clock)
};

// ---------------------------------------------------------------------------
// NSU (Table 2, "NDP-specific configuration").
// ---------------------------------------------------------------------------
struct NsuConfig {
  unsigned max_warps = 48;
  // Physical SIMD lanes (§4.5): a 32-wide warp instruction issues over
  // kWarpWidth / simd_lanes cycles (temporal SIMT), occupying the single
  // issue port — the NSU is deliberately much weaker than an SM.
  unsigned simd_lanes = 16;
  std::uint64_t icache_bytes = 4 * KiB;
  std::uint64_t const_cache_bytes = 4 * KiB;
  unsigned alu_latency = 10;
  unsigned sfu_latency = 20;
  unsigned alu_ii = 1;
  unsigned sfu_ii = 2;
  // Optional read-only cache (paper §7.1 suggests it to fix BPROP-like
  // workloads); disabled in the paper's main configuration.
  bool read_only_cache = false;
  std::uint64_t read_only_cache_bytes = 2 * KiB;
};

// ---------------------------------------------------------------------------
// NDP buffers (Table 2).
// ---------------------------------------------------------------------------
struct NdpBufferConfig {
  unsigned sm_pending_entries = 300;  // 8 B x 300 per SM
  unsigned sm_ready_entries = 64;     // 8 B x 64 per SM
  unsigned nsu_read_data_entries = 256;   // 128 B x 256 per NSU
  unsigned nsu_write_addr_entries = 256;  // 128 B x 256 per NSU
  unsigned nsu_cmd_entries = 10;          // offload command buffer
};

// ---------------------------------------------------------------------------
// Offload governor (§7.1-7.3).
// ---------------------------------------------------------------------------
enum class OffloadMode {
  kOff,          // baseline: never offload
  kAlways,       // naive NDP: offload every block instance
  kStaticRatio,  // offload each instance with fixed probability
  kDynamic,      // hill-climbing dynamic ratio (Algorithm 1)
  kDynamicCache, // dynamic ratio + cache-locality-aware suppression (§7.3)
};

// "off" / "always" / "static" / "dyn" / "dyn-cache".
const char* offload_mode_name(OffloadMode mode);
// Parses a name offload_mode_name returns.  Returns false on anything else.
bool parse_offload_mode(const std::string& text, OffloadMode* out);

struct GovernorConfig {
  OffloadMode mode = OffloadMode::kOff;
  double static_ratio = 1.0;

  // Algorithm 1 parameters (§7.2).
  Cycle epoch_cycles = 30'000;  // in SM cycles
  double initial_ratio = 0.1;
  double initial_step = 0.15;
  double step_unit = 0.05;   // granularity of step-size change
  double step_min = 0.05;
  double step_max = 0.15;
  unsigned history_window = 4;

  // Cache-aware decision (§7.3): blocks are scored optimistically until this
  // many instances have been observed.
  unsigned warmup_instances = 32;
  // Extension beyond the paper's Benefit equation: also charge the data an
  // offloaded instance would push across the GPU links when its loads HIT
  // in the caches (RDF cache-hit responses, the §7.1 BPROP pathology).
  // Makes borderline cache-friendly blocks suppress decisively.
  bool model_hit_push_cost = true;
};

// ---------------------------------------------------------------------------
// Multi-tenant serving (DESIGN.md "Multi-tenant serving").  N kernel streams
// are resident at once, each with its own program, address-space base, CTA
// queue, and offload governor.  The arbiter picks which tenant's next CTA a
// freed SM slot goes to; the QoS knobs bound how much NSU/NoC capacity one
// tenant can hold.  All defaults are "off": with one tenant every code path
// below reduces to the single-kernel behavior bit-for-bit (a tested
// invariant).
// ---------------------------------------------------------------------------
enum class TenantArbiter : std::uint8_t {
  kRoundRobin,      // rotate across tenants with CTAs remaining
  kWeightedShare,   // argmin of dispatched[t] / weight[t] (tie: lowest id)
  kStrictPriority,  // lowest priority value wins outright
};

struct TenancyConfig {
  TenantArbiter arbiter = TenantArbiter::kRoundRobin;
  // Per-tenant cap on resident NSU warp slots (head-of-line enforced at
  // command spawn).  0 = unlimited (single-tenant semantics).
  unsigned nsu_warp_quota = 0;
  // Fraction of each NSU's read-data/write-address credit pools one tenant
  // may hold (0 < share <= 1).  0 = no partitioning (single-tenant
  // semantics).
  double credit_share = 0.0;
};

// ---------------------------------------------------------------------------
// Data-placement policy (src/mem/placement.*).  kRandom reproduces the
// paper's seeded page hash bit-for-bit and is the default everywhere.
// ---------------------------------------------------------------------------
enum class PlacementPolicyKind : std::uint8_t {
  kRandom,      // seeded hash (§5 "random mapping of pages")
  kFirstTouch,  // round-robin at first lookup of each page
  kLocality,    // reference-interpreter profile: page lives where its NSU is
  kMigration,   // random start + hot-page re-homing on remote traffic
};

struct PlacementProfile;  // mem/placement.h: page -> preferred-stack map

struct PlacementConfig {
  PlacementPolicyKind policy = PlacementPolicyKind::kRandom;
  // kMigration: remote NSU accesses to a page (since its last move) that
  // trigger a re-home onto the majority remote accessor.
  std::uint32_t migration_threshold = 64;
  // kLocality: profile from the reference-interpreter pre-pass
  // (src/ref/placement_profile.*).  A one-kernel run_tenants (and so
  // Simulator::run) builds it when null; run_image callers supply their own
  // (unprofiled pages fall back to the random hash).
  std::shared_ptr<const PlacementProfile> locality_profile;
};

// ---------------------------------------------------------------------------
// Energy model constants (§5).  Units: joules per event / per bit.
// ---------------------------------------------------------------------------
struct EnergyConfig {
  // DRAM (Rambus-derived numbers quoted in the paper).
  double dram_activate_j = 11.8e-9;       // per 4 KB row activation
  double dram_row_read_j_per_bit = 4e-12; // row-buffer read; writes alike
  // All off-chip links (GPU<->HMC and HMC<->HMC): 2 pJ/bit [Poulton'07].
  double offchip_j_per_bit = 2e-12;
  // On-die wire energy for data movement across a 20 mm x 30 mm GPU die,
  // derived from Keckler et al. [27]: ~60 fJ/bit/mm, ~12.5 mm average span.
  double gpu_wire_j_per_bit = 0.75e-12;
  // Intra-HMC NoC (vault xbar + TSV) per bit.
  double hmc_noc_j_per_bit = 0.5e-12;
  // Core dynamic energy per executed warp-instruction (per active lane).
  double sm_op_j = 12e-12;
  double nsu_op_j = 6e-12;  // leaner core: no MMU/TLB/tex/coalescer
  // Cache array energies.
  double l1_access_j = 20e-12;
  double l2_access_j = 60e-12;
  // Static (leakage + constant clocking) power per unit, watts.  Kept low
  // relative to dynamic energy so Fig. 10's behavior (energy tracks traffic
  // and runtime, Baseline_MoreCore energy-neutral) reproduces.
  double sm_static_w = 0.25;
  double nsu_static_w = 0.06;
  double l2_static_w = 0.20;       // whole L2
  double hmc_static_w = 0.40;      // per stack, excluding NSU
  double link_static_w = 0.08;     // per active link endpoint pair
};

// ---------------------------------------------------------------------------
// Whole-system configuration.
// ---------------------------------------------------------------------------
struct SystemConfig {
  unsigned num_sms = 64;
  unsigned num_hmcs = 8;
  ClockConfig clocks{};
  SmConfig sm{};
  CacheConfig l2{.size_bytes = 2 * MiB, .ways = 16, .line_bytes = 128,
                 .mshr_entries = 48, .latency_cycles = 8};
  HmcConfig hmc{};
  LinkConfig link{};
  NsuConfig nsu{};
  NdpBufferConfig ndp_buffers{};
  GovernorConfig governor{};
  TenancyConfig tenancy{};
  EnergyConfig energy{};

  // Data page size for the page->HMC placement (§5: 4 KB pages).
  std::uint64_t page_bytes = 4 * KiB;
  std::uint64_t placement_seed = 0x5EED;
  PlacementConfig placement{};

  // On-die interconnect latency between an SM and an L2 slice / link port.
  TimePs xbar_latency_ps = 8000;  // ~10 cycles at 1.25 GHz

  // Ablation (Fig. 5 made dynamic): choose the target NSU from ALL of a
  // block's memory accesses instead of the first instruction's majority.
  // Requires buffering every packet until OFLD.END — the cost the paper
  // rejects; modeled faithfully through the pending packet buffer.
  bool optimal_target_selection = false;

  // Simulation safety valve: abort if simulated time exceeds this.
  TimePs max_time_ps = 500ull * 1000 * 1000 * 1000;  // 500 ms simulated

  // Idle-aware scheduler fast-forward (`sim.fast_forward`): skip clock
  // edges at which no component has pending work.  Results — every stat,
  // tick index, and ps timestamp — are bit-identical with the flag on or
  // off (a tested invariant); off exists as the naive reference for that
  // test and for CI's `sndpsim --no-ff` diff.
  bool fast_forward = true;

  // Request-lifecycle latency tracing (src/obs/latency.*) stamps every
  // tracked packet at each hop in every run.  `latency_sample`: every Nth
  // tracked request per packet type also records a full per-hop span
  // (Chrome-trace flow events); 0 disables span capture.
  unsigned latency_sample = 64;

  // When non-empty, write a Chrome-trace JSON of packet flights and
  // offload lifecycles here at the end of the run (view in Perfetto).
  std::string trace_path;

  // Named presets.
  static SystemConfig paper();           // Table 2, 64 SMs + 8 HMCs
  static SystemConfig paper_more_core(); // Baseline_MoreCore: 72 SMs
  static SystemConfig paper_2x();        // §7.3: doubled compute units
  static SystemConfig small_test();      // shrunk system for unit tests

  // Validate invariants (power-of-two HMC count for the hypercube, cache
  // geometry divisibility, ...).  Throws std::invalid_argument on error.
  void validate() const;
};

}  // namespace sndp
