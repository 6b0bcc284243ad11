// NSU — the Near-data-processing SIMD Unit on each HMC's logic layer
// (paper §4.1.2, §4.5).
//
// Deliberately minimal, matching the standardized design: no MMU/TLB, no
// data cache, no coalescer (addresses arrive pre-translated from the GPU in
// WTA packets / pre-fetched data in RDF responses), a small instruction
// cache, and warp slots fed by the offload command buffer.  Runs at half
// the SM clock (350 MHz; §7.6 sweeps it lower).
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/config.h"
#include "common/types.h"
#include "isa/program.h"
#include "ndp/ndp_buffers.h"
#include "noc/packet.h"
#include "obs/cycle_stack.h"
#include "sim/clock.h"
#include "sim/context.h"
#include "sim/timed_channel.h"

namespace sndp {

struct AuditSnapshot;
struct RunResult;

class Nsu final : public Tickable {
 public:
  // `send_network`: forward a packet into the inter-stack network / GPU
  // link.  `send_local_vault`: hand a write to a vault in this same stack
  // (intra-HMC NoC, no off-chip link).  Both are provided by the owning HMC.
  using SendFn = std::function<void(Packet&&, TimePs)>;

  Nsu(HmcId hmc_id, const SystemContext& ctx, SendFn send_network, SendFn send_local_vault);

  void tick(Cycle cycle, TimePs now) override;

  // Live warps and buffered commands need the issue pipeline every cycle;
  // otherwise the NSU only wakes for its ingress channel.  tick_count_ is
  // the one per-cycle stat, compensated for skipped edges (see tick() and
  // finalize()).
  TimePs next_work_ps() override {
    if (live_ != 0 || !cmds_.empty()) return 0;
    if (!in_.empty()) return in_.front_ready_ps();
    return kTimeNever;
  }

  // Flush the skipped-tick compensation up to the end of the run; called by
  // the Simulator with the NSU domain's consumed-edge count before stats
  // are read.  Idempotent.
  void finalize(Cycle end_cycle);

  // Packet ingress (offload commands, RDF responses, WTA, write acks).
  void receive(Packet&& p, TimePs now);

  bool idle() const;
  unsigned active_warps() const;

  // Stats (Fig. 11).
  double avg_occupancy() const;          // mean busy warp slots / max_warps
  double icache_utilization() const;     // touched instruction bytes / icache size

  // Flow audit (src/obs/stats_audit.*): add this NSU's block, instruction,
  // lane-op and occupancy counters to `s`, and append its cycle-stack entry.
  void audit(AuditSnapshot& s) const;

  // End of run: the `hmcN.nsu.*` stats, this NSU's cycle-stack rows and its
  // lane ops (the NSU's energy events).
  void report(RunResult& r) const;

 private:
  struct NsuWarp {
    OffloadPacketId oid{};  // sm / warp / instance / block of this execution
    unsigned tenant = 0;    // owning tenant (program + QoS accounting key)
    unsigned pc = 0;
    std::uint32_t seq = 0;
    Cycle ready_cycle = 0;
    unsigned pending_writes = 0;
    LaneMask active = 0;
    std::array<ThreadCtx, kWarpWidth> lanes{};
    // Latency stamp parked from the kOfldCmd across execution; copied onto
    // the kOfldAck so the cmd->ACK span covers the whole round trip.
    PacketTiming lt{};
  };

  void try_spawn(Cycle cycle, TimePs now);
  // Attempts to execute the instruction at warp.pc.  Returns true if the
  // warp made progress (instruction executed or skipped).
  bool step_warp(unsigned slot, Cycle cycle, TimePs now);
  void finish_warp(unsigned slot, TimePs now);
  // Re-arm the warp among `candidates` that waits for the buffer entry of
  // `oid` (its key: sm, warp, instance and seq).
  void rearm(SlotMask candidates, const OffloadPacketId& oid);
  void unpark(SlotMask b) {
    parked_ &= ~b;
    parked_rdf_ &= ~b;
  }

  HmcId hmc_id_;
  const SystemContext& ctx_;
  SendFn send_network_;
  SendFn send_local_vault_;
  const NsuConfig& cfg_;

  std::vector<NsuWarp> warps_;
  // Live slots of warps_, bit i for warps_[i] (max_warps <= 64 by
  // SystemConfig::validate).  The issue scan, the free-slot search, the
  // write-ack match and the per-tenant counts walk only its set bits.
  SlotMask live_ = 0;
  // Parked warps (DESIGN.md "Warp parking"): live warps whose last step
  // failed, which the issue scan counts as blocked without retrying until
  // the packet that can change the outcome re-arms them.  parked_rdf_
  // (within parked_) waits for read data at an LD; the others wait for a
  // WTA at an ST or for write acks at OFLD.END.
  SlotMask parked_ = 0;
  SlotMask parked_rdf_ = 0;
  bool fast_forward_ = false;
  Cycle next_expected_cycle_ = 0;  // skipped-tick compensation watermark
  unsigned rr_next_ = 0;        // round-robin issue pointer
  Cycle issue_busy_until_ = 0;  // temporal-SIMT occupancy of the issue port
  unsigned issue_busy_tenant_ = 0;  // tenant of the port-holding warp
  bool spawn_quota_blocked_ = false;  // try_spawn hit the warp quota this tick
  unsigned quota_tenant_ = 0;         // tenant of the quota-blocked head command
  ReadDataBuffer read_data_;
  WriteAddrBuffer write_addr_;
  CmdBuffer cmds_;
  TimedChannel<Packet> in_;

  // Stats.
  std::uint64_t lane_ops_ = 0;
  std::uint64_t instrs_ = 0;
  std::uint64_t blocks_completed_ = 0;
  std::uint64_t finished_block_instrs_ = 0;  // body instrs of completed blocks
  std::uint64_t occupancy_accum_ = 0;
  std::uint64_t tick_count_ = 0;
  std::uint64_t write_packets_ = 0;
  std::uint64_t stall_read_wait_ = 0;
  // I-cache footprint: the NSU pcs ever stepped, shared by all tenants.
  std::vector<bool> icache_touched_;

  // Cycle-stack profiler (src/obs/cycle_stack.*): every counted NSU cycle
  // lands in exactly one bucket, so the stack's total equals tick_count_
  // at any instant — compensation for slept edges updates both together.
  NsuCycleStack cyc_;
};

}  // namespace sndp
