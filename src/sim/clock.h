// Deterministic multi-clock-domain scheduler with idle-aware fast-forward.
//
// Every timed component implements Tickable and registers with one
// ClockDomain.  The Scheduler advances global time to the earliest pending
// domain edge and ticks every member of that domain in registration order —
// fully deterministic, no heap churn per component.  Tick indices map to
// picosecond timestamps exactly (no cumulative rounding drift) via
// tick_time_ps(), so e.g. a 700 MHz domain and a 666.667 MHz DRAM domain
// stay phase-correct over arbitrarily long runs.
//
// Fast-forward (see DESIGN.md "Scheduler and fast-forward"): members may
// override next_work_ps() to report the earliest time they could do work.
// With fast-forward on the Scheduler skips — consumes without
// ticking — every edge at which no member of the domain has work.  Skipped
// edges still advance the domain's tick index, so the cycle <-> ps mapping
// and all tick arguments are bit-identical to naive stepping; the contract
// is that a member whose hint lies in the future would have treated those
// ticks as no-ops anyway (components that count per-cycle stats compensate
// for the skipped cycles themselves; see Sm/Nsu/OffloadGovernor).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "common/units.h"

namespace sndp {

class Tickable {
 public:
  virtual ~Tickable() = default;
  // `cycle` is this domain's tick index; `now` is the global time in ps.
  virtual void tick(Cycle cycle, TimePs now) = 0;
  // Earliest global time (ps) at which this member has pending work, or
  // kTimeNever for "none until externally poked".  The default — "always
  // busy" — keeps unmodified components exactly as before.  A hint must be
  // conservative: claiming a future/never wake while work is pending at an
  // earlier edge breaks the bit-identity contract.
  //
  // Contract for the `now` argument: it is advisory context — the caller's
  // current global time — and a hint must be a pure function of the
  // member's own pending-work state, NEVER of `now`, so the Scheduler may
  // poll at any instant without changing which edges get skipped.  The
  // returned time may lie in the past relative to `now` (e.g. a vault
  // completion that became ready between two DRAM edges); callers compare
  // it against their own edge times, so "at or before the pending edge"
  // simply means busy.  Every override in the tree (Hmc, VaultController,
  // Sm, Gpu::{Epoch,Core,L2}Tick, Nsu) ignores `now` accordingly; only the
  // "always busy" default echoes it back.
  virtual TimePs next_work_ps(TimePs now) { return now; }
};

class ClockDomain {
 public:
  ClockDomain(std::string name, std::uint64_t freq_khz)
      : name_(std::move(name)), freq_khz_(freq_khz) {}

  const std::string& name() const { return name_; }
  std::uint64_t freq_khz() const { return freq_khz_; }
  Cycle now_cycle() const { return next_cycle_ == 0 ? 0 : next_cycle_ - 1; }
  Cycle next_cycle() const { return next_cycle_; }
  TimePs next_time() const { return tick_time_ps(next_cycle_, freq_khz_); }

  void add(Tickable* t) { members_.push_back(t); }

  // Tick all members once at the current edge.
  void run_tick() {
    const TimePs t = next_time();
    for (Tickable* m : members_) m->tick(next_cycle_, t);
    ++next_cycle_;
  }

  // --- fast-forward support -------------------------------------------

  // Smallest tick index whose edge lands at or after `t`.
  Cycle first_cycle_at_or_after(TimePs t) const {
    // tick_time_ps(n) = floor(n * 1e9 / khz); for integral t,
    // tick_time_ps(n) >= t  <=>  n >= ceil(t * khz / 1e9).
    const auto num = static_cast<unsigned __int128>(t) * freq_khz_;
    return static_cast<Cycle>((num + 999'999'999u) / 1'000'000'000u);
  }

  // Time of the first edge at which some member has work: next_time() if a
  // member is busy now, the first edge at/after the earliest member wake
  // otherwise, kTimeNever if every member is quiescent.
  TimePs next_work_time(TimePs now) {
    const TimePs edge = next_time();
    TimePs wake = kTimeNever;
    for (Tickable* m : members_) {
      const TimePs w = m->next_work_ps(now);
      if (w <= edge) return edge;  // busy at (or before) the pending edge
      if (w < wake) wake = w;
    }
    if (wake == kTimeNever) return kTimeNever;
    return tick_time_ps(first_cycle_at_or_after(wake), freq_khz_);
  }

  // Consume — without ticking — every edge strictly before `t`.  The tick
  // index advances exactly as if those edges had been (no-op) ticked.
  void skip_until(TimePs t) {
    const Cycle c = first_cycle_at_or_after(t);
    if (c > next_cycle_) next_cycle_ = c;
  }

  // Consume the current edge without ticking it.
  void skip_tick() { ++next_cycle_; }

 private:
  std::string name_;
  std::uint64_t freq_khz_;
  Cycle next_cycle_ = 0;
  std::vector<Tickable*> members_;
};

// Advances a set of clock domains in global-time order.  Domains whose edges
// coincide are ticked in registration order.
class Scheduler {
 public:
  explicit Scheduler(bool fast_forward = false) : fast_forward_(fast_forward) {}

  void add(ClockDomain* domain) {
    domains_.push_back(domain);
    work_edge_.push_back(kTimeNever);
  }

  TimePs now() const { return now_; }

  // Upper bound on useful simulated time (the safety valve).  Fast-forward
  // never jumps past the first edge at/after this limit, mirroring where a
  // naive step loop with a `now() >= limit` guard would stop.
  void set_time_limit(TimePs limit_ps) { limit_ps_ = limit_ps; }

  // True after a step() found no pending work in any domain.  Cleared by
  // any step that ticks real work.  With fast-forward off the flag is still
  // maintained-on-quiescence only when step() is the fast-forward variant;
  // naive callers should use their own idle predicate.
  bool quiescent() const { return quiescent_; }

  // Advance to the next edge and tick it.  Returns the new global time.
  // In fast-forward mode, edges with no pending member work are consumed
  // without ticking; if no domain reports any pending work the call sets
  // quiescent() and returns without advancing (the caller decides whether
  // the system is done or deadlocked — see advance_to_limit()).
  TimePs step();

  // Dead-march to the time limit: consume every remaining edge strictly
  // before the first edge at/after the limit, then consume the edge(s) at
  // that instant, without ticking.  Only meaningful in fast-forward mode
  // when quiescent() is set but the system is not idle (a deadlock); naive
  // stepping reaches the same state by ticking dead edges one by one.
  TimePs advance_to_limit();

  // Run until `deadline_ps` (inclusive) or until `idle()` returns true when
  // checked between steps.  Returns false if the deadline was hit first.
  template <typename IdlePred>
  bool run_until_idle(IdlePred&& idle, TimePs deadline_ps) {
    while (!idle()) {
      if (now_ >= deadline_ps) return false;
      if (fast_forward_ && quiescent_) return false;  // stuck: no pending work
      step();
    }
    return true;
  }

 private:
  TimePs naive_step();

  std::vector<ClockDomain*> domains_;
  std::vector<TimePs> work_edge_;  // per-domain scratch, valid within step()
  TimePs now_ = 0;
  TimePs limit_ps_ = kTimeNever;
  bool fast_forward_ = false;
  bool quiescent_ = false;
};

}  // namespace sndp
