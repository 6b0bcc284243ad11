#include "ctrl/hill_climb.h"

#include <algorithm>

namespace sndp {

HillClimbController::HillClimbController(const GovernorConfig& cfg)
    : cfg_(cfg), ratio_(cfg.initial_ratio), step_(cfg.initial_step) {}

void HillClimbController::end_epoch(double avg_ipc, bool has_signal) {
  // An idle/empty epoch (no offload-block instruction retired) says nothing
  // about the current ratio: don't record it as a baseline, don't compare
  // against it, don't move.  The next informative epoch climbs against the
  // last informative baseline.
  if (!has_signal) return;
  if (!have_prev_) {
    // "At the end of each epoch except for the first": only record the
    // baseline throughput.
    prev_ipc_ = avg_ipc;
    have_prev_ = true;
    return;
  }

  if (avg_ipc < prev_ipc_) {
    dir_ = -dir_;  // reverse direction if getting worse
    dir_change_history_.push_back(true);
  } else {
    dir_change_history_.push_back(false);
  }
  if (dir_change_history_.size() > cfg_.history_window) dir_change_history_.pop_front();

  unsigned n_changes = 0;
  for (bool changed : dir_change_history_) n_changes += changed ? 1 : 0;

  if (n_changes > cfg_.history_window / 2 && cfg_.step_min < step_) {
    step_ -= cfg_.step_unit;  // oscillating near the optimum: refine
  } else if (step_ < cfg_.step_max) {
    step_ += cfg_.step_unit;  // steady progress: move faster
  }
  step_ = std::clamp(step_, cfg_.step_min, cfg_.step_max);

  ratio_ += static_cast<double>(dir_) * step_;
  // Bounce at the walls: with the ratio pinned at 0 or 1 the throughput
  // signal goes flat, so the climber must turn around to keep probing (the
  // paper notes the algorithm "continually tries non-zero offload ratios").
  if (ratio_ <= 0.0) {
    ratio_ = 0.0;
    dir_ = +1;
  } else if (ratio_ >= 1.0) {
    ratio_ = 1.0;
    dir_ = -1;
  }

  prev_ipc_ = avg_ipc;
}

}  // namespace sndp
