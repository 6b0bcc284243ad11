// Algorithm 1 (§7.2): epoch-based hill climbing on the offload ratio with
// an adaptive step size.
//
// At the end of each epoch the controller is fed the epoch's instruction
// throughput over offload-block instructions.  If throughput dropped, the
// direction of ratio movement reverses.  A sliding window of
// direction-change events adapts the step: frequent reversals (we are
// circling the optimum) shrink the step; steady progress grows it.  The
// ratio is only moved while it stays inside [step_unit, 1 - step_unit].
#pragma once

#include <deque>

#include "common/config.h"
#include "common/types.h"

namespace sndp {

class HillClimbController {
 public:
  explicit HillClimbController(const GovernorConfig& cfg);

  double ratio() const { return ratio_; }
  double step() const { return step_; }
  int direction() const { return dir_; }

  // Call at the end of each epoch with the measured average IPC of
  // offload-block instructions during that epoch.  An epoch in which no
  // offload-block instruction retired carries no throughput information:
  // pass has_signal = false and the controller holds its entire state
  // (ratio, direction, step, baseline IPC) instead of treating the zero
  // IPC as a collapse and spuriously reversing direction.
  void end_epoch(double avg_ipc, bool has_signal = true);

 private:
  GovernorConfig cfg_;
  double ratio_;
  double step_;
  int dir_ = +1;
  double prev_ipc_ = 0.0;
  bool have_prev_ = false;
  std::deque<bool> dir_change_history_;
};

}  // namespace sndp
