#include "ctrl/governor.h"

namespace sndp {

OffloadGovernor::OffloadGovernor(const GovernorConfig& cfg, unsigned num_blocks,
                                 unsigned line_bytes, std::uint64_t seed)
    : cfg_(cfg),
      rng_(seed),
      hill_(cfg),
      cache_table_(num_blocks, cfg, line_bytes) {}

double OffloadGovernor::current_ratio() const {
  switch (cfg_.mode) {
    case OffloadMode::kOff: return 0.0;
    case OffloadMode::kAlways: return 1.0;
    case OffloadMode::kStaticRatio: return cfg_.static_ratio;
    case OffloadMode::kDynamic:
    case OffloadMode::kDynamicCache: return hill_.ratio();
  }
  return 0.0;
}

bool OffloadGovernor::decide(const OffloadBlockInfo& info, unsigned active_threads) {
  ++decisions_;
  cache_table_.record_instance(info.block_id, active_threads);

  bool offload = false;
  switch (cfg_.mode) {
    case OffloadMode::kOff:
      break;
    case OffloadMode::kAlways:
      offload = true;
      break;
    case OffloadMode::kStaticRatio:
      offload = rng_.bernoulli(cfg_.static_ratio);
      break;
    case OffloadMode::kDynamic:
      offload = rng_.bernoulli(hill_.ratio());
      break;
    case OffloadMode::kDynamicCache:
      if (!cache_table_.should_offload(info.block_id, info)) {
        ++suppressed_by_cache_;
        offload = false;
      } else {
        offload = rng_.bernoulli(hill_.ratio());
      }
      break;
  }
  if (offload) ++offloads_;
  return offload;
}

EpochRollInfo OffloadGovernor::roll_epoch() {
  const double ipc =
      static_cast<double>(epoch_instrs_) / static_cast<double>(cfg_.epoch_cycles);
  const bool dynamic = cfg_.mode == OffloadMode::kDynamic ||
                       cfg_.mode == OffloadMode::kDynamicCache;
  if (dynamic) {
    // An epoch with zero offload-block instructions carries no throughput
    // signal — the climber holds instead of reading it as a collapse.
    hill_.end_epoch(ipc, /*has_signal=*/epoch_instrs_ != 0);
    ratio_history_.record(hill_.ratio());
  }
  EpochRollInfo info;
  info.epoch = epochs_;
  info.ipc = ipc;
  info.block_instrs = epoch_instrs_;
  info.ratio = current_ratio();
  info.step = hill_.step();
  info.direction = hill_.direction();
  ++epochs_;
  epoch_instrs_ = 0;
  return info;
}

void OffloadGovernor::export_stats(StatSet& out) const {
  out.set("governor.decisions", static_cast<double>(decisions_));
  out.set("governor.offloads", static_cast<double>(offloads_));
  out.set("governor.suppressed_by_cache", static_cast<double>(suppressed_by_cache_));
  out.set("governor.epochs", static_cast<double>(epochs_));
  out.set("governor.block_instrs", static_cast<double>(total_block_instrs_));
  out.set("governor.final_ratio", current_ratio());
  ratio_history_.export_to(out, "governor.ratio");
}

}  // namespace sndp
