// Tests for the clock-domain scheduler and timed channels.
#include <gtest/gtest.h>

#include <tuple>
#include <utility>
#include <vector>

#include "sim/clock.h"
#include "sim/timed_channel.h"

namespace sndp {
namespace {

class Recorder final : public Tickable {
 public:
  void tick(Cycle cycle, TimePs now) override { events.emplace_back(cycle, now); }
  std::vector<std::pair<Cycle, TimePs>> events;
};

TEST(ClockDomain, TicksMapToExactTimes) {
  ClockDomain dom("test", 1'000'000);  // 1 GHz -> 1000 ps period
  Recorder r;
  dom.add(&r);
  for (int i = 0; i < 5; ++i) dom.run_tick();
  ASSERT_EQ(r.events.size(), 5u);
  for (unsigned i = 0; i < 5; ++i) {
    EXPECT_EQ(r.events[i].first, i);
    EXPECT_EQ(r.events[i].second, i * 1000u);
  }
}

TEST(Scheduler, InterleavesDomainsByTime) {
  ClockDomain fast("fast", 1'000'000);  // 1000 ps
  ClockDomain slow("slow", 400'000);    // 2500 ps
  Recorder rf, rs;
  fast.add(&rf);
  slow.add(&rs);
  Scheduler sched;
  sched.add(&fast);
  sched.add(&slow);
  // Advance until the fast domain has ticked 10 times.
  while (rf.events.size() < 10) sched.step();
  // Slow domain must have ticked at 0, 2500, 5000, 7500 within 9000 ps.
  ASSERT_GE(rs.events.size(), 4u);
  EXPECT_EQ(rs.events[1].second, 2500u);
  EXPECT_EQ(rs.events[3].second, 7500u);
  // Monotonic global time.
  EXPECT_GE(sched.now(), 9000u);
}

TEST(Scheduler, CoincidentEdgesTickBothDomains) {
  ClockDomain a("a", 1'000'000), b("b", 500'000);
  Recorder ra, rb;
  a.add(&ra);
  b.add(&rb);
  Scheduler sched;
  sched.add(&a);
  sched.add(&b);
  sched.step();  // t=0: both fire
  EXPECT_EQ(ra.events.size(), 1u);
  EXPECT_EQ(rb.events.size(), 1u);
  sched.step();  // t=1000: only a
  EXPECT_EQ(ra.events.size(), 2u);
  EXPECT_EQ(rb.events.size(), 1u);
  sched.step();  // t=2000: both again
  EXPECT_EQ(ra.events.size(), 3u);
  EXPECT_EQ(rb.events.size(), 2u);
}

TEST(Scheduler, FractionalPeriodNoDrift) {
  // 666'667 kHz (tCK = 1.5 ns nominal): after 1e6 ticks, time must match
  // the exact rational n*1e9/khz, not an accumulated rounded period.
  ClockDomain dram("dram", 666'667);
  for (int i = 0; i < 1000; ++i) dram.run_tick();
  EXPECT_EQ(dram.next_time(), tick_time_ps(1000, 666'667));
  EXPECT_NEAR(static_cast<double>(dram.next_time()), 1000 * 1499.99925, 1.0);
}

TEST(TimedChannel, FifoDelivery) {
  TimedChannel<int> ch;
  ch.push(1, 100);
  ch.push(2, 200);
  EXPECT_FALSE(ch.ready(50));
  EXPECT_TRUE(ch.ready(100));
  EXPECT_EQ(*ch.pop_ready(150), 1);
  EXPECT_FALSE(ch.ready(150));
  EXPECT_EQ(*ch.pop_ready(200), 2);
  EXPECT_TRUE(ch.empty());
}

TEST(TimedChannel, MonotonicClampPreservesFifo) {
  TimedChannel<int> ch;
  ch.push(1, 500);
  ch.push(2, 100);  // would overtake: clamped to 500
  EXPECT_FALSE(ch.ready(499));
  EXPECT_TRUE(ch.ready(500));
  EXPECT_EQ(*ch.pop_ready(500), 1);
  EXPECT_TRUE(ch.ready(500));
  EXPECT_EQ(*ch.pop_ready(500), 2);
}

TEST(TimedChannel, PopNotReadyReturnsNullopt) {
  TimedChannel<int> ch;
  EXPECT_EQ(ch.pop_ready(1000), std::nullopt);
  ch.push(5, 2000);
  EXPECT_EQ(ch.pop_ready(1999), std::nullopt);
  EXPECT_EQ(ch.size(), 1u);
}

// --- fast-forward ----------------------------------------------------------

// A worker with an explicit work schedule (domain tick indices).  The hint
// reports the exact edge of the next scheduled cycle; tick() records every
// invocation and consumes the schedule entry when one lands.
class ScheduledWorker final : public Tickable {
 public:
  ScheduledWorker(std::vector<Cycle> schedule, std::uint64_t khz)
      : schedule_(std::move(schedule)), khz_(khz) {}

  void tick(Cycle cycle, TimePs now) override {
    ticks.emplace_back(cycle, now);
    if (idx_ < schedule_.size() && schedule_[idx_] == cycle) {
      work.emplace_back(cycle, now);
      ++idx_;
    }
  }
  TimePs next_work_ps() override {
    return idx_ < schedule_.size() ? tick_time_ps(schedule_[idx_], khz_) : kTimeNever;
  }
  bool drained() const { return idx_ >= schedule_.size(); }

  std::vector<std::pair<Cycle, TimePs>> ticks;
  std::vector<std::pair<Cycle, TimePs>> work;

 private:
  std::vector<Cycle> schedule_;
  std::size_t idx_ = 0;
  std::uint64_t khz_;
};

TEST(SchedulerFastForward, MatchesNaiveWorkSequenceAcrossDomains) {
  // Two phase-incommensurate domains (the DRAM frequency has a fractional
  // period) with sparse work.  Fast-forward must deliver the exact same
  // (tick index, ps timestamp) pairs to the workers as naive stepping, and
  // finish on the same edge.
  const std::vector<Cycle> sched_a = {0, 1, 7, 40, 41, 200};
  const std::vector<Cycle> sched_b = {3, 5, 90, 91, 150};

  auto run = [&](bool ff) {
    ClockDomain da("a", 1'000'000);
    ClockDomain db("b", 666'667);
    ScheduledWorker wa(sched_a, 1'000'000);
    ScheduledWorker wb(sched_b, 666'667);
    da.add(&wa);
    db.add(&wb);
    Scheduler sched(ff);
    sched.add(&da);
    sched.add(&db);
    while (!wa.drained() || !wb.drained()) sched.step();
    return std::tuple(wa.work, wb.work, sched.now(), da.next_cycle(), db.next_cycle());
  };

  const auto naive = run(false);
  const auto fast = run(true);
  EXPECT_EQ(std::get<0>(fast), std::get<0>(naive));
  EXPECT_EQ(std::get<1>(fast), std::get<1>(naive));
  EXPECT_EQ(std::get<2>(fast), std::get<2>(naive));  // final global time
  // Skipped edges still advance the tick indices: cycle counts match too.
  EXPECT_EQ(std::get<3>(fast), std::get<3>(naive));
  EXPECT_EQ(std::get<4>(fast), std::get<4>(naive));
}

TEST(SchedulerFastForward, SkipsQuiescentEdgesButKeepsTickIndices) {
  ClockDomain dom("d", 1'000'000);
  ScheduledWorker w({0, 100}, 1'000'000);
  dom.add(&w);
  Scheduler sched(/*fast_forward=*/true);
  sched.add(&dom);
  sched.step();
  EXPECT_EQ(sched.now(), 0u);
  sched.step();
  EXPECT_EQ(sched.now(), 100'000u);
  // Only the two work edges were actually ticked...
  ASSERT_EQ(w.ticks.size(), 2u);
  EXPECT_EQ(w.ticks[1], (std::pair<Cycle, TimePs>{100, 100'000}));
  // ...but the 99 skipped edges were consumed, not lost.
  EXPECT_EQ(dom.next_cycle(), 101u);
}

TEST(SchedulerFastForward, QuiescentStepDoesNotAdvance) {
  ClockDomain dom("d", 1'000'000);
  ScheduledWorker w({3}, 1'000'000);
  dom.add(&w);
  Scheduler sched(/*fast_forward=*/true);
  sched.add(&dom);
  sched.step();
  EXPECT_EQ(sched.now(), 3000u);
  EXPECT_FALSE(sched.quiescent());
  sched.step();  // no work anywhere: flag set, time frozen
  EXPECT_TRUE(sched.quiescent());
  EXPECT_EQ(sched.now(), 3000u);
  EXPECT_EQ(w.ticks.size(), 1u);
}

TEST(SchedulerFastForward, AdvanceToLimitLandsOnNaiveValveEdge) {
  // A naive loop guarded by `now() >= limit` ticks dead edges up to the
  // first edge at/after the limit and stops there; the fast-forward
  // dead-march must land on the same edge with the same consumed-edge count.
  auto run = [&](bool ff) {
    ClockDomain dom("d", 1'000'000);
    ScheduledWorker w({}, 1'000'000);  // never any work
    dom.add(&w);
    Scheduler sched(ff);
    sched.set_time_limit(10'500);
    sched.add(&dom);
    if (ff) {
      sched.advance_to_limit();
    } else {
      while (sched.now() < 10'500) sched.step();
    }
    return std::pair(sched.now(), dom.next_cycle());
  };
  EXPECT_EQ(run(true), run(false));
}

TEST(Scheduler, CutRunsBeforeFirstEdgeAtOrAfterInstant) {
  // Domain a (1000 ps) and b (2500 ps) meet at 5000 and 10000.  The cut
  // instants: 2500 lands on a b edge, 5000 on both, 7000 and 8000 fall in a
  // gap fast-forward jumps over, and 12000 is the last.
  const std::vector<TimePs> instants = {2500, 5000, 7000, 8000, 12000};
  for (const bool ff : {false, true}) {
    SCOPED_TRACE(ff ? "fast-forward" : "naive");
    ClockDomain da("a", 1'000'000);
    ClockDomain db("b", 400'000);
    ScheduledWorker wa({0, 1, 5, 9, 14}, 1'000'000);
    ScheduledWorker wb({1, 2, 6}, 400'000);
    da.add(&wa);
    db.add(&wb);
    Scheduler sched(ff);
    sched.add(&da);
    sched.add(&db);
    std::size_t next = 0;
    std::vector<TimePs> calls;
    std::vector<std::size_t> ticks_seen;  // ticks of both workers at each call
    sched.set_cut(instants[0], [&](TimePs now) {
      calls.push_back(now);
      ticks_seen.push_back(wa.ticks.size() + wb.ticks.size());
      while (next < instants.size() && instants[next] <= now) ++next;
      return next < instants.size() ? instants[next] : kTimeNever;
    });
    while (!wa.drained() || !wb.drained()) sched.step();

    // Fast-forward lands on the work edge at 9000 once for 7000 and 8000,
    // and the cut stops after its last instant.
    const std::vector<TimePs> want = ff ? std::vector<TimePs>{2500, 5000, 9000, 14000}
                                        : std::vector<TimePs>{2500, 5000, 7000, 8000, 12000};
    EXPECT_EQ(calls, want);
    // Each call saw every tick before its instant and none at or after it.
    for (std::size_t i = 0; i < calls.size(); ++i) {
      std::size_t before = 0;
      for (const auto& t : wa.ticks) before += t.second < calls[i];
      for (const auto& t : wb.ticks) before += t.second < calls[i];
      EXPECT_EQ(ticks_seen[i], before) << "call at " << calls[i];
    }
  }
}

// Domain A's member pushes same-instant-consumable work into domain B's
// member when it ticks.  The pre-step hints cannot see that work, so the
// scheduler must re-poll at the target edge or B would be skip-ticked where
// naive stepping ticks it.
class InstantSink final : public Tickable {
 public:
  void tick(Cycle cycle, TimePs now) override {
    if (wake <= now) work.emplace_back(cycle, now);
    wake = kTimeNever;
  }
  TimePs next_work_ps() override { return wake; }
  TimePs wake = kTimeNever;
  std::vector<std::pair<Cycle, TimePs>> work;
};

class InstantPusher final : public Tickable {
 public:
  InstantPusher(InstantSink* sink, Cycle push_cycle, std::uint64_t khz)
      : sink_(sink), push_cycle_(push_cycle), khz_(khz) {}
  void tick(Cycle cycle, TimePs now) override {
    if (cycle == push_cycle_) {
      sink_->wake = now;
      done_ = true;
    }
  }
  TimePs next_work_ps() override {
    return done_ ? kTimeNever : tick_time_ps(push_cycle_, khz_);
  }

 private:
  InstantSink* sink_;
  Cycle push_cycle_;
  std::uint64_t khz_;
  bool done_ = false;
};

TEST(SchedulerFastForward, SameInstantCrossDomainPushIsNotSkipped) {
  ClockDomain da("a", 1'000'000);
  ClockDomain db("b", 1'000'000);  // coincident edges with a
  InstantSink sink;
  InstantPusher pusher(&sink, /*push_cycle=*/2, 1'000'000);
  da.add(&pusher);
  db.add(&sink);
  Scheduler sched(/*fast_forward=*/true);
  sched.add(&da);  // a ticks before b at coincident edges
  sched.add(&db);
  sched.step();  // jumps to cycle 2; pusher wakes the sink mid-edge
  ASSERT_EQ(sink.work.size(), 1u);
  EXPECT_EQ(sink.work[0], (std::pair<Cycle, TimePs>{2, 2000}));
}

}  // namespace
}  // namespace sndp
