#include "common/config.h"

#include <bit>
#include <stdexcept>

namespace sndp {

const char* offload_mode_name(OffloadMode mode) {
  switch (mode) {
    case OffloadMode::kOff: return "off";
    case OffloadMode::kAlways: return "always";
    case OffloadMode::kStaticRatio: return "static";
    case OffloadMode::kDynamic: return "dyn";
    case OffloadMode::kDynamicCache: return "dyn-cache";
  }
  return "?";
}

bool parse_offload_mode(const std::string& text, OffloadMode* out) {
  for (const OffloadMode m : {OffloadMode::kOff, OffloadMode::kAlways, OffloadMode::kStaticRatio,
                              OffloadMode::kDynamic, OffloadMode::kDynamicCache}) {
    if (text == offload_mode_name(m)) {
      *out = m;
      return true;
    }
  }
  return false;
}

SystemConfig SystemConfig::paper() {
  return SystemConfig{};  // defaults reproduce Table 2
}

SystemConfig SystemConfig::paper_more_core() {
  SystemConfig cfg;
  cfg.num_sms = 72;  // Baseline_MoreCore: 64 + 8 additional SMs
  return cfg;
}

SystemConfig SystemConfig::paper_2x() {
  SystemConfig cfg;
  cfg.num_sms = 128;  // §7.3: number of compute units doubled
  return cfg;
}

SystemConfig SystemConfig::small_test() {
  SystemConfig cfg;
  cfg.num_sms = 4;
  cfg.num_hmcs = 4;
  cfg.sm.max_threads = 256;  // 8 warps per SM
  cfg.sm.max_ctas = 4;
  cfg.l2.size_bytes = 256 * KiB;
  cfg.hmc.num_vaults = 4;
  cfg.hmc.banks_per_vault = 4;
  cfg.hmc.memory_bytes = 64 * MiB;
  return cfg;
}

void SystemConfig::validate() const {
  auto require = [](bool ok, const char* what) {
    if (!ok) throw std::invalid_argument(std::string("SystemConfig: ") + what);
  };
  require(num_sms >= 1, "need at least one SM");
  // Non-power-of-two stack counts ride an incomplete hypercube (every
  // single-bit-flip edge whose endpoints both exist); the upper bound keeps
  // node ids inside the packet's 8-bit target-NSU field.
  require(num_hmcs >= 1 && num_hmcs <= 255, "HMC count must be in [1, 255]");
  require(placement.policy != PlacementPolicyKind::kMigration ||
              placement.migration_threshold >= 1,
          "migration threshold must be at least 1");
  require(sm.max_threads % kWarpWidth == 0, "SM thread count must be warp-aligned");
  // Per-slot activity masks (Sm, Nsu, Hmc) are one 64-bit word each.
  require(sm.max_warps() <= 64, "SM warp slots (sm.max_threads / 32) must be <= 64");
  require(nsu.max_warps <= 64, "NSU warp slots (nsu.max_warps) must be <= 64");
  require(nsu.simd_lanes >= 1, "NSU SIMD lanes (nsu.simd_lanes) must be at least 1");
  require(hmc.num_vaults >= 1 && hmc.num_vaults <= 64,
          "vault count (hmc.num_vaults) must be in [1, 64]");
  require(std::has_single_bit(static_cast<std::uint64_t>(sm.l1d.line_bytes)),
          "L1 line size must be a power of two");
  require(sm.l1d.line_bytes == l2.line_bytes, "L1/L2 line sizes must match");
  require(sm.l1d.num_sets() >= 1 && l2.num_sets() >= 1, "cache must have >= 1 set");
  require(std::has_single_bit(page_bytes), "page size must be a power of two");
  require(page_bytes >= l2.line_bytes, "page must hold at least one line");
  require(std::has_single_bit(static_cast<std::uint64_t>(hmc.num_vaults)),
          "vault count must be a power of two");
  require(std::has_single_bit(static_cast<std::uint64_t>(hmc.banks_per_vault)),
          "bank count must be a power of two");
  require(hmc.memory_bytes % page_bytes == 0, "HMC capacity must be page-aligned");
  require(clocks.sm_khz > 0 && clocks.dram_khz > 0 && clocks.nsu_khz > 0 &&
              clocks.l2_khz > 0 && clocks.xbar_khz > 0,
          "all clock frequencies must be positive");
  require(governor.epoch_cycles > 0, "epoch length must be positive");
  require(governor.step_min <= governor.step_max, "step_min must be <= step_max");
  require(ndp_buffers.nsu_cmd_entries >= 1, "need at least one offload command entry");
}

}  // namespace sndp
