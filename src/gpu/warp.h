// Warp state on an SM: per-lane architectural contexts, control state, the
// scoreboard, and the per-warp offload context used during partitioned
// execution.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "gpu/coalescer.h"
#include "gpu/scoreboard.h"
#include "isa/isa.h"
#include "isa/program.h"
#include "noc/packet.h"

namespace sndp {

enum class WarpState : std::uint8_t {
  kInvalid,      // slot unused
  kReady,        // can be considered for issue
  kWaitBarrier,  // parked at BAR until the CTA converges
  kWaitAck,      // parked at OFLD.END until the NSU acknowledges
  kFinished,     // ran EXIT
};

// GPU-side state of one offloaded block instance (§4.1.1).
struct GpuOffloadCtx {
  const OffloadBlockInfo* info = nullptr;
  std::uint64_t instance = 0;
  unsigned target = kInvalidId;  // chosen by the first memory instruction
  bool credits_granted = false;
  std::uint32_t seq = 0;  // per memory instruction, GPU and NSU in lockstep
  // "Pending packet buffer" content: packets generated before the target is
  // known / credits granted (the command packet is always held[0]).
  std::vector<Packet> held;
  // Optimal-target ablation: per-HMC access votes accumulated over the
  // whole block (the buffering cost the paper rejects, §4.1.1/Fig. 5).
  std::vector<unsigned> votes;
};

// Memoized coalescing result: a warp stalled on egress, MSHRs or trackers
// retries the same memory instruction after every line fill and egress pop
// that re-arms it; its addresses cannot change while it is stalled, so the
// (expensive, divergent) coalesce is computed once per issue attempt stream
// and invalidated when the warp actually issues.
struct CoalesceCache {
  unsigned pc = kInvalidId;
  std::uint64_t stamp = ~std::uint64_t{0};
  LaneMask lanes = 0;
  std::array<Addr, kWarpWidth> addrs{};
  std::vector<LineAccess> lines;

  bool valid_for(unsigned pc_now, std::uint64_t stamp_now) const {
    return pc == pc_now && stamp == stamp_now;
  }
};

struct Warp {
  WarpId id = kInvalidId;
  unsigned cta_slot = kInvalidId;
  unsigned cta_id = 0;
  unsigned tenant = 0;  // owning kernel stream (0 on the single-tenant path)
  WarpState state = WarpState::kInvalid;  // written only by Sm::set_state (masks)
  unsigned pc = 0;
  LaneMask active = 0;  // lanes that hold live threads
  std::array<ThreadCtx, kWarpWidth> lanes{};
  Scoreboard scoreboard{};
  unsigned outstanding_loads = 0;
  std::uint64_t issue_stamp = 0;  // incremented per issued instruction
  CoalesceCache coalesce_cache;
  std::uint32_t cur_block = 0xFFFFFFFFu;  // static block id while inside a block
  std::unique_ptr<GpuOffloadCtx> ofld;  // non-null while inside an offloaded block

  unsigned active_count() const { return popcount_mask(active); }

  // Lanes of `instr` that will actually execute: alive AND guard-passing.
  LaneMask exec_mask(const Instr& instr) const {
    if (instr.guard_pred == kNoPred) return active;
    LaneMask m = 0;
    for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
      if (!(active & (LaneMask{1} << lane))) continue;
      if (lanes[lane].preds[static_cast<unsigned>(instr.guard_pred)] == instr.guard_sense) {
        m |= LaneMask{1} << lane;
      }
    }
    return m;
  }
};

}  // namespace sndp
