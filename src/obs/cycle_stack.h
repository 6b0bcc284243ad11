// Machine-wide cycle-stack profiler (DESIGN.md "Observability").
//
// Exhaustive top-down cycle accounting: every counted cycle of every SM,
// NSU lane engine, and DRAM vault lands in exactly one bucket, keyed per
// tenant.  The SM buckets refine the three coarse Fig. 8 stall counters
// (ExecBusy / WarpIdle / DepStall) down to the blocking source — which
// memory level served the load a dependency stall waited on, whether an
// exec-busy cycle was a real unit conflict or NDP credit starvation, and
// why warp-idle cycles happened (offload acks vs. barriers vs. draining).
// NSU and vault buckets complete the machine view.
//
// Invariants (enforced by StatsAudit at every epoch boundary):
//   - per component: sum over buckets == the component's counted cycles
//     (SM cycles up to its fast-forward watermark; NSU `tick_count_`;
//     vault busy + idle cycles),
//   - per machine: the SM stacks cover num_sms x the SM cycle they were
//     flushed to, the non-no-warp SM buckets sum to the SMs' own
//     `active_cycles`, and `dep_pending` equals the cycles the warps hold
//     parked for re-billing,
//   - per tenant: tenant rows + the shared row partition the totals.
//
// Counters live inside the components; the machine stack is their sum,
// taken at epoch boundaries and at the end of the run.  The Fig. 8 stall
// counters (`Sm::stall_*`) are sums of the SM bucket groups.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace sndp {

class StatSet;

// ---------------------------------------------------------------------------
// SM buckets.  The first twelve partition `active_cycles` (cycles with at
// least one valid warp); the last two cover the no-warp cycles the legacy
// counters never counted.
// ---------------------------------------------------------------------------
enum class SmBucket : std::uint8_t {
  kIssue,          // a warp issued an instruction this cycle
  kExecBusy,       // blocked on a busy ALU/SFU/LSU or a full downstream queue
  kCreditWait,     // blocked on the NDP pending-packet buffer (credit window)
  kDepPipe,        // dep-wait on an in-flight ALU/SFU producer
  kDepL1,          // dep-wait on an L1 / shared-memory / constant hit
  kDepL2,          // dep-wait on a load served by an L2 slice hit
  kDepDramLocal,   // dep-wait on a load served by the line's home-stack DRAM
  kDepDramRemote,  // dep-wait on a load served by a remote stack's DRAM
  kDepPending,     // dep-wait on a load still in flight; moved to one of the
                   // serve-class buckets above when the fill arrives
  kOfldParked,     // runnable work all parked at OFLD.END awaiting NSU acks
  kBarrier,        // runnable work all parked at CTA barriers
  kWarpDrain,      // valid warps exist but none is runnable (CTA draining)
  kDispatchIdle,   // no valid warp; the SM is waiting for CTA dispatch
  kDrained,        // no valid warp and none ever arrives again (run tail)
  kCount,
};
inline constexpr std::size_t kNumSmBuckets =
    static_cast<std::size_t>(SmBucket::kCount);

// Stat-key / column spelling, e.g. "dep_dram_local".
const char* sm_bucket_name(SmBucket b);

// Fig. 8 grouping: which coarse counter a bucket refines.
enum class SmBucketGroup : std::uint8_t {
  kIssue,     // == issued_instrs
  kExecBusy,  // Sm::stall_exec_busy()
  kDep,       // Sm::stall_dependency()
  kWarpIdle,  // Sm::stall_warp_idle()
  kNoWarp,    // outside active_cycles
};
SmBucketGroup sm_bucket_group(SmBucket b);

// ---------------------------------------------------------------------------
// NSU buckets: partition of the lane engine's counted cycles (`tick_count_`,
// which includes slept edges — those are idle by construction).
// ---------------------------------------------------------------------------
enum class NsuBucket : std::uint8_t {
  kExec,           // a warp stepped, or the issue port was held by a prior op
  kIngressStarved, // resident warps exist but all are blocked on RDF data /
                   // WTA addresses / write acks
  kQuotaBlocked,   // a buffered command could not spawn: warp quota reached
  kIdle,           // nothing resident and nothing spawnable
  kCount,
};
inline constexpr std::size_t kNumNsuBuckets =
    static_cast<std::size_t>(NsuBucket::kCount);
const char* nsu_bucket_name(NsuBucket b);

// ---------------------------------------------------------------------------
// Vault buckets: partition of every DRAM-clock edge from cycle 0 to the end
// of the run.
// ---------------------------------------------------------------------------
enum class VaultBucket : std::uint8_t {
  kService,    // issued a column access / activate / precharge for demand work
  kPageCopy,   // same, but driven by a migration page-copy request
  kQueueBound, // requests queued but timing constraints blocked every one
  kIdle,       // empty queue
  kCount,
};
inline constexpr std::size_t kNumVaultBuckets =
    static_cast<std::size_t>(VaultBucket::kCount);
const char* vault_bucket_name(VaultBucket b);

// ---------------------------------------------------------------------------
// Per-component bucket counters keyed by tenant row.  Rows 0..T-1 are
// tenants; row T is the shared row for cycles no tenant is responsible for
// (idle, no-warp, drained).  Single-tenant runs still carry the shared row
// so idle time never gets billed to tenant 0.
// ---------------------------------------------------------------------------
template <std::size_t N>
struct BucketStack {
  std::vector<std::array<std::uint64_t, N>> rows;

  void init(unsigned tenants) { rows.assign(tenants + 1, {}); }
  unsigned tenants() const {
    return rows.empty() ? 0 : static_cast<unsigned>(rows.size() - 1);
  }
  unsigned shared_row() const { return tenants(); }

  void add(unsigned row, std::size_t bucket, std::uint64_t n) {
    rows[row][bucket] += n;
  }
  // Sum-preserving reclassification (kDepPending -> serve class).
  void move(unsigned row, std::size_t from, std::size_t to, std::uint64_t n) {
    rows[row][from] -= n;
    rows[row][to] += n;
  }

  std::uint64_t bucket_total(std::size_t b) const {
    std::uint64_t s = 0;
    for (const auto& r : rows) s += r[b];
    return s;
  }
  std::uint64_t row_total(std::size_t r) const {
    std::uint64_t s = 0;
    for (std::size_t b = 0; b < N; ++b) s += rows[r][b];
    return s;
  }
  std::uint64_t total() const {
    std::uint64_t s = 0;
    for (std::size_t r = 0; r < rows.size(); ++r) s += row_total(r);
    return s;
  }
  void accumulate(const BucketStack<N>& other) {
    if (rows.size() < other.rows.size()) rows.resize(other.rows.size());
    for (std::size_t r = 0; r < other.rows.size(); ++r)
      for (std::size_t b = 0; b < N; ++b) rows[r][b] += other.rows[r][b];
  }
};

using SmCycleStack = BucketStack<kNumSmBuckets>;
using NsuCycleStack = BucketStack<kNumNsuBuckets>;
using VaultCycleStack = BucketStack<kNumVaultBuckets>;

// Cycles in the buckets of group `g`, summed over every row of `s`.
std::uint64_t sm_group_total(const SmCycleStack& s, SmBucketGroup g);

// ---------------------------------------------------------------------------
// Machine summary, assembled by Simulator::run from the per-component
// stacks after finalize.
// ---------------------------------------------------------------------------
struct CycleStackSummary {
  unsigned tenants = 1;
  SmCycleStack sm;
  NsuCycleStack nsu;
  VaultCycleStack vault;
};

// Emit `cyc.sm.<bucket>` / `cyc.nsu.<bucket>` / `cyc.vault.<bucket>` machine
// totals (plus `cyc.<component>.total`), and per-tenant
// `cyc.t<N>.<component>.<bucket>` rows plus the `cyc.shared.*` row when the
// run had more than one tenant.
void export_cycle_stats(const CycleStackSummary& s, StatSet& out);

// Amdahl-style what-if bound: the speedup ceiling if `leaf` cycles of
// `total` went to zero and everything else was unchanged.  Returns +inf
// when leaf == total; 1.0 when leaf == 0 or total == 0.
double whatif_bound(std::uint64_t total, std::uint64_t leaf);

// Render the top-down tree of the SM, NSU and vault stacks: per-bucket
// cycles, share of the component total, and the what-if bound per leaf,
// sorted by weight (SM leaves grouped under their Fig. 8 counter).  Used by
// bench/bottleneck_report.
std::string format_cycle_tree(const CycleStackSummary& s);

}  // namespace sndp
