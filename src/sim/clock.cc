#include "sim/clock.h"

#include <stdexcept>

namespace sndp {

TimePs Scheduler::naive_step() {
  // Find the earliest edge.
  TimePs earliest = kTimeNever;
  for (const ClockDomain* d : domains_) {
    const TimePs t = d->next_time();
    if (t < earliest) earliest = t;
  }
  now_ = earliest;
  cut(earliest);
  // Tick every domain whose edge lands exactly at this instant, in
  // registration order (deterministic tie-break).
  for (ClockDomain* d : domains_) {
    if (d->next_time() == earliest) d->run_tick();
  }
  return now_;
}

TimePs Scheduler::step() {
  if (domains_.empty()) throw std::logic_error("Scheduler: no clock domains");
  if (!fast_forward_) return naive_step();

  // Earliest edge with pending work across all domains.  Hints are
  // re-polled every step: a tick in one domain may have pushed work into
  // another (cross-domain channels), so cached values would go stale.
  TimePs target = kTimeNever;
  for (ClockDomain* d : domains_) {
    const TimePs t = d->next_work_time();
    if (t < target) target = t;
  }
  quiescent_ = (target == kTimeNever);
  if (quiescent_) return now_;  // nothing to do; caller decides what's next

  if (target >= limit_ps_) {
    // Work exists only at/after the valve.  Naive stepping would tick dead
    // edges up to the first edge at/after the limit and stop there; land on
    // that same edge.  If the work edge *is* that edge, it still ticks.
    TimePs valve_edge = kTimeNever;
    for (const ClockDomain* d : domains_) {
      const TimePs t =
          tick_time_ps(d->first_cycle_at_or_after(limit_ps_), d->freq_khz());
      if (t < valve_edge) valve_edge = t;
    }
    if (valve_edge < target) target = valve_edge;
  }

  now_ = target;
  cut(target);
  for (ClockDomain* d : domains_) {
    d->skip_until(target);  // consume workless edges below the target
    if (d->next_time() != target) continue;
    // Re-poll this domain's work at the edge: an earlier domain ticking at
    // this same instant may have pushed work that is consumable right now
    // (e.g. a zero-latency channel push), which the pre-step hint missed.
    if (d->next_work_time() == target) {
      d->run_tick();
    } else {
      d->skip_tick();  // edge coincides, but this domain's work is later
    }
  }
  return now_;
}

TimePs Scheduler::advance_to_limit() {
  if (domains_.empty()) throw std::logic_error("Scheduler: no clock domains");
  if (!fast_forward_) {
    while (now_ < limit_ps_) naive_step();
    return now_;
  }
  TimePs valve_edge = kTimeNever;
  for (const ClockDomain* d : domains_) {
    const TimePs t =
        tick_time_ps(d->first_cycle_at_or_after(limit_ps_), d->freq_khz());
    if (t < valve_edge) valve_edge = t;
  }
  for (ClockDomain* d : domains_) {
    d->skip_until(valve_edge);
    if (d->next_time() == valve_edge) d->skip_tick();
  }
  now_ = valve_edge;
  return now_;
}

}  // namespace sndp
