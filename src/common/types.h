// Core scalar types and identifiers shared across the simulator.
#pragma once

#include <bit>
#include <cstdint>
#include <cstddef>
#include <limits>

namespace sndp {

// Global simulated time, in picoseconds.  64 bits of picoseconds covers
// ~213 days of simulated time, far beyond any run we do.
using TimePs = std::uint64_t;
inline constexpr TimePs kTimeNever = std::numeric_limits<TimePs>::max();

// Cycle count within one clock domain.
using Cycle = std::uint64_t;

// Physical byte address in the (flat, simulated) memory space.
using Addr = std::uint64_t;

// Component identifiers.  Small integers; -1 (wrapped) means "invalid".
using SmId = std::uint32_t;
using HmcId = std::uint32_t;
using VaultId = std::uint32_t;
using WarpId = std::uint32_t;
inline constexpr std::uint32_t kInvalidId = std::numeric_limits<std::uint32_t>::max();

// A register value.  The ISA is untyped at the storage level: 64 raw bits,
// interpreted by each opcode as signed/unsigned integer or double.
using RegValue = std::uint64_t;

// Lane mask for a warp (up to 32 lanes).
using LaneMask = std::uint32_t;

inline constexpr unsigned kWarpWidth = 32;
inline constexpr LaneMask kFullMask = 0xFFFFFFFFu;

// Activity mask over the slots of one component (warp slots, vaults): bit
// i stands for slot i.  SystemConfig::validate keeps every such slot count
// at or below 64.  Scans walk the set bits lowest first, which is slot
// order:
//   for (SlotMask m = mask; m != 0; m &= m - 1) visit(lowest_slot(m));
using SlotMask = std::uint64_t;
inline constexpr SlotMask slot_bit(unsigned slot) { return SlotMask{1} << slot; }
// The low `n` slots, n <= 64.
inline constexpr SlotMask low_slots(unsigned n) { return n >= 64 ? ~SlotMask{0} : slot_bit(n) - 1; }
// Index of the lowest set bit of a non-zero mask.
inline constexpr unsigned lowest_slot(SlotMask m) {
  return static_cast<unsigned>(std::countr_zero(m));
}

}  // namespace sndp
