// DRAM bank timing state (per-bank row state + command legality times).
//
// Commands are modeled at request granularity: the vault controller selects
// a request with FR-FCFS and advances it through PRE -> ACT -> CAS according
// to these per-bank timestamps, one command per vault-cycle.  All times are
// in DRAM-domain cycles (tCK = 1.5 ns per Table 2).
#pragma once

#include <cstdint>
#include <limits>

#include "common/config.h"
#include "common/types.h"

namespace sndp {

class DramBank {
 public:
  static constexpr std::uint64_t kNoRow = std::numeric_limits<std::uint64_t>::max();

  bool row_open(std::uint64_t row) const { return open_row_ == row; }
  bool closed() const { return open_row_ == kNoRow; }

  bool can_activate(Cycle now) const { return closed() && now >= act_allowed_; }
  bool can_precharge(Cycle now) const { return !closed() && now >= pre_allowed_; }
  bool can_cas(Cycle now) const { return !closed() && now >= cas_allowed_; }

  void activate(Cycle now, std::uint64_t row, const DramTiming& t) {
    open_row_ = row;
    cas_allowed_ = now + t.tRCD;
    pre_allowed_ = now + t.tRAS;
  }

  void precharge(Cycle now, const DramTiming& t) {
    open_row_ = kNoRow;
    act_allowed_ = now + t.tRP;
  }

  // CAS for a read or write.  Write recovery (tWR) delays the next
  // precharge; both delay the next CAS by tCCD at the vault level (tracked
  // by the controller's shared data bus).
  void cas(Cycle now, bool is_write, const DramTiming& t) {
    if (is_write) {
      pre_allowed_ = std::max(pre_allowed_, now + t.tBURST + t.tWR);
    } else {
      pre_allowed_ = std::max(pre_allowed_, now + t.tBURST);
    }
    cas_allowed_ = std::max(cas_allowed_, now + t.tCCD);
  }

 private:
  std::uint64_t open_row_ = kNoRow;
  Cycle act_allowed_ = 0;
  Cycle cas_allowed_ = 0;
  Cycle pre_allowed_ = 0;
};

}  // namespace sndp
