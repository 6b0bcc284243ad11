// One HMC stack: 16 vault controllers behind the logic-layer switch, plus
// the NSU.  The logic layer demultiplexes arriving packets to vaults or the
// NSU, turns vault completions into response packets (baseline line fills,
// RDF forwards, NSU write acks + GPU cache invalidations), and provides the
// NSU its local-vault fast path.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "mem/vault.h"
#include "ndp/nsu.h"
#include "noc/packet.h"
#include "sim/clock.h"
#include "sim/context.h"
#include "sim/timed_channel.h"

namespace sndp {

struct AuditSnapshot;
struct RunResult;
class EpochTimeline;

class Hmc final : public Tickable {
 public:
  Hmc(HmcId id, const SystemContext& ctx);

  // Ticks in the DRAM clock domain; the NSU is registered separately in the
  // NSU domain by the Simulator.
  void tick(Cycle cycle, TimePs now) override;

  // Earliest pending work: the network RX head, plus a cached minimum over
  // vault backlogs and vault controllers (recomputed after each real tick,
  // lowered eagerly by cross-domain pushes from the NSU).  Dead ticks here
  // are exact no-ops, so no skipped-cycle compensation is needed.
  TimePs next_work_ps(TimePs now) override;

  Nsu& nsu() { return *nsu_; }
  const Nsu& nsu() const { return *nsu_; }

  bool idle() const;

  // Flow audit (src/obs/stats_audit.*): add this stack's NoC ejections,
  // per-type vault completions and DRAM bytes to `s`, then its NSU's
  // counters and, per vault, the DRAM service counters and cycle-stack entry.
  void audit(AuditSnapshot& s) const;

  // Cycle-stack profiler: derive each vault's idle tail (end_cycle minus its
  // counted busy edges).  Called once by the Simulator with the DRAM
  // domain's naive-equivalent edge count before report().
  void finalize(Cycle end_cycle);

  // End of run: the `hmcN.*` stats, the vaults' cycle-stack rows and this
  // stack's DRAM and logic-layer energy events, then its NSU's report.
  void report(RunResult& r) const;

  // Epoch-timeline hookup for the placement-migration counter (dram-domain
  // lazy poll; see the poll in tick()).  Set on stack 0 only — one poller
  // suffices for the shared policy counter.
  void set_timeline(EpochTimeline* timeline) { timeline_ = timeline; }

 private:
  void route_packet(Packet&& p, TimePs now);
  void enqueue_vault(Packet&& p, TimePs now);
  TimePs compute_internal_wake() const;
  void on_vault_complete(const DramRequest& req, TimePs done_ps);
  void send_from_stack(Packet&& p, TimePs now);
  // Page-migration copy flow: begin_page_copy dispatches the move reported
  // by the placement policy (local start, or a cross-stack kick when the
  // page's lines live elsewhere); start_page_copy enqueues the per-line
  // vault reads here and ships the bulk packet once they all complete.
  void begin_page_copy(std::uint64_t page_id, HmcId from, HmcId to, TimePs now);
  void start_page_copy(std::uint64_t page_id, HmcId to, TimePs now);

  HmcId id_;
  const SystemContext& ctx_;
  std::vector<std::unique_ptr<VaultController>> vaults_;
  std::unique_ptr<Nsu> nsu_;

  // Requests waiting for a full vault queue, one overflow FIFO per vault.
  std::vector<TimedChannel<Packet>> vault_backlog_;
  // Vault-indexed activity masks (num_vaults <= 64 by SystemConfig::
  // validate): vaults with a queued or completing request (the only ones
  // whose tick is not a no-op), and vaults with a non-empty backlog.  The
  // vault tick loop, the backlog retry loop and compute_internal_wake walk
  // only their set bits, in vault order.
  SlotMask busy_vaults_ = 0;
  SlotMask backlogged_ = 0;
  // In-flight DRAM requests: vault token -> originating packet.
  std::unordered_map<std::uint64_t, Packet> inflight_;
  std::uint64_t next_token_ = 1;

  // Outstanding page copies this stack is reading for: copy cookie ->
  // remaining line reads + destination.  The bulk packet ships when the
  // last read completes.
  struct PageCopy {
    std::uint64_t page_id = 0;
    HmcId to = 0;
    unsigned lines_left = 0;
  };
  std::unordered_map<std::uint64_t, PageCopy> pending_copies_;
  std::uint64_t next_copy_ = 1;

  // The intra-stack NoC latency between logic layer and a vault / the NSU.
  TimePs noc_latency_ps_ = 0;

  // Fast-forward wake hint over backlogs + vaults (see next_work_ps).
  TimePs wake_internal_ = 0;
  bool fast_forward_ = false;

  EpochTimeline* timeline_ = nullptr;

  // Energy events (report() adds them to RunResult::counters).
  std::uint64_t hmc_noc_bytes_ = 0;  // vault <-> logic-layer movement
  std::uint64_t dram_read_bytes_ = 0;
  std::uint64_t dram_write_bytes_ = 0;

  // NoC ejections, and per-type vault completions (incremented in the same
  // handler as the dram_*_bytes energy counters).
  std::uint64_t packets_routed_ = 0;
  std::uint64_t mem_reads_completed_ = 0;
  std::uint64_t mem_writes_completed_ = 0;
  std::uint64_t rdf_completed_ = 0;
  std::uint64_t nsu_writes_completed_ = 0;
  std::uint64_t page_copy_reads_completed_ = 0;
  std::uint64_t page_copy_writes_completed_ = 0;
};

}  // namespace sndp
