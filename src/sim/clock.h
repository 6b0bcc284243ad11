// Deterministic multi-clock-domain scheduler with idle-aware fast-forward.
//
// Every clock-domain member (the Gpu, each Hmc, each Nsu) implements
// Tickable and registers with one ClockDomain; the parts a member owns (its
// SMs, its vault controllers) are ticked by that member.  The Scheduler
// advances global time to the earliest pending domain edge and ticks every
// member of that domain in registration order — fully deterministic, no
// heap churn per component.  Tick indices map to
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
// for the skipped cycles themselves; see Sm/Nsu).
//
// The cut (Scheduler::set_cut) runs before any domain ticks the first
// stepped instant at/after a requested one, in both stepping modes; the
// simulator ends each governor epoch there.
#pragma once

#include <cstdint>
#include <functional>
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
  // kTimeNever for "none until externally poked"; the default 0 means
  // always busy.  A hint must be conservative: claiming a future/never wake
  // while work is pending at an earlier edge breaks the bit-identity
  // contract.  It may lie before the pending edge (a vault completion that
  // became ready between two DRAM edges), which simply means busy.
  virtual TimePs next_work_ps() { return 0; }
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
  TimePs next_work_time() {
    const TimePs edge = next_time();
    TimePs wake = kTimeNever;
    for (Tickable* m : members_) {
      const TimePs w = m->next_work_ps();
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

  void add(ClockDomain* domain) { domains_.push_back(domain); }

  TimePs now() const { return now_; }

  // Upper bound on useful simulated time (the safety valve).  Fast-forward
  // never jumps past the first edge at/after this limit, mirroring where a
  // naive step loop with a `now() >= limit` guard would stop.
  void set_time_limit(TimePs limit_ps) { limit_ps_ = limit_ps; }

  // The cut: `fn(now)` runs once, before any domain ticks, at the first
  // stepped instant `now` at or after `at`, and returns the next cut instant
  // (kTimeNever: none).  A fast-forward jump over several cut instants calls
  // it once, at the instant it lands on.
  void set_cut(TimePs at, std::function<TimePs(TimePs now)> fn) {
    cut_at_ = at;
    cut_ = std::move(fn);
  }

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

 private:
  TimePs naive_step();
  // Run the cut if the instant about to be ticked has reached it.
  void cut(TimePs t) {
    if (t >= cut_at_) cut_at_ = cut_(t);
  }

  std::vector<ClockDomain*> domains_;
  TimePs now_ = 0;
  TimePs limit_ps_ = kTimeNever;
  bool fast_forward_ = false;
  bool quiescent_ = false;
  TimePs cut_at_ = kTimeNever;
  std::function<TimePs(TimePs)> cut_;
};

}  // namespace sndp
