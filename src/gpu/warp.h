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
  // Per-HMC access votes: the first memory instruction's under the paper
  // policy, the whole block's under the optimal-target ablation (the
  // buffering cost the paper rejects, §4.1.1/Fig. 5).
  std::vector<unsigned> votes;

  // The HMC with the most votes; the lowest id wins a tie (HMC 0 when no
  // vote was cast).
  unsigned majority_hmc() const {
    unsigned best = 0;
    for (unsigned h = 1; h < votes.size(); ++h) {
      if (votes[h] > votes[best]) best = h;
    }
    return best;
  }
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
};

}  // namespace sndp
