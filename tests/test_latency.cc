// Tests for the request-lifecycle latency tracer (src/obs/latency.*): the
// log2 histogram core (bucket edges, overflow, merge associativity,
// percentile interpolation), the tracer's span bookkeeping (sampling,
// bounded span table, cancel/finish lifecycle), and the system-level
// determinism pins — latency histograms must be bit-identical with idle
// fast-forward on/off and across serial/threaded sweeps, and a run with
// tracing disabled must simulate the exact same machine.
#include <gtest/gtest.h>

#include <cstdint>

#include "sndp.h"

namespace sndp {
namespace {

// ---------------------------------------------------------------------------
// Log2Histogram core
// ---------------------------------------------------------------------------

TEST(Log2Histogram, BucketEdges) {
  // Bucket 0 is exactly the value 0; bucket b >= 1 covers [2^(b-1), 2^b - 1].
  EXPECT_EQ(Log2Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_of(1), 1u);
  for (unsigned k = 1; k < 46; ++k) {
    const std::uint64_t pow = std::uint64_t{1} << k;
    EXPECT_EQ(Log2Histogram::bucket_of(pow - 1), k) << "2^" << k << "-1";
    EXPECT_EQ(Log2Histogram::bucket_of(pow), k + 1) << "2^" << k;
    EXPECT_EQ(Log2Histogram::bucket_of(pow + 1), k + 1) << "2^" << k << "+1";
  }
  // lo/hi are a partition: every bucket's endpoints map back to it.
  for (unsigned b = 0; b < Log2Histogram::kNumBuckets - 1; ++b) {
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::bucket_lo(b)), b);
    EXPECT_EQ(Log2Histogram::bucket_of(Log2Histogram::bucket_hi(b)), b);
    EXPECT_EQ(Log2Histogram::bucket_lo(b + 1),
              b == 0 ? 1u : Log2Histogram::bucket_hi(b) + 1);
  }
}

TEST(Log2Histogram, OverflowBucketCatchesEverythingLarge) {
  const unsigned last = Log2Histogram::kNumBuckets - 1;
  EXPECT_EQ(Log2Histogram::bucket_of(std::uint64_t{1} << 46), last);
  EXPECT_EQ(Log2Histogram::bucket_of(UINT64_MAX), last);
  EXPECT_EQ(Log2Histogram::bucket_hi(last), UINT64_MAX);

  Log2Histogram h;
  h.record(std::uint64_t{1} << 50);
  h.record(UINT64_MAX / 2);
  EXPECT_EQ(h.bucket_count(last), 2u);
  // Count/sum/min/max stay exact even for overflow-bucket values.
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.sum(), (std::uint64_t{1} << 50) + UINT64_MAX / 2);
  EXPECT_EQ(h.min(), std::uint64_t{1} << 50);
  EXPECT_EQ(h.max(), UINT64_MAX / 2);
}

TEST(Log2Histogram, EmptyHistogramIsInert) {
  Log2Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0u);
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.max(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  EXPECT_EQ(h.percentile(0.5), 0.0);
}

TEST(Log2Histogram, PercentileInterpolation) {
  // {1, 3}: the p50 rank (0.5) lands in the [2,3] bucket holding the single
  // value 3, so the midpoint 2.5 is reported.
  Log2Histogram two;
  two.record(1);
  two.record(3);
  EXPECT_DOUBLE_EQ(two.percentile(0.5), 2.5);
  // q<=0 / q>=1 are the exact envelope.
  EXPECT_DOUBLE_EQ(two.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(two.percentile(1.0), 3.0);

  // A single repeated value reports exactly that value at every quantile
  // (interpolation is clamped to [min, max]).
  Log2Histogram rep;
  for (int i = 0; i < 17; ++i) rep.record(1000);
  for (double q : {0.01, 0.5, 0.95, 0.99}) {
    EXPECT_DOUBLE_EQ(rep.percentile(q), 1000.0) << q;
  }

  // Uniform fill of one bucket: interpolation is monotone in q and stays
  // inside the bucket's range.
  Log2Histogram uni;
  for (std::uint64_t v = 64; v < 128; ++v) uni.record(v);
  double prev = 0.0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
    const double p = uni.percentile(q);
    EXPECT_GE(p, 64.0);
    EXPECT_LE(p, 127.0);
    EXPECT_GE(p, prev);
    prev = p;
  }
  EXPECT_DOUBLE_EQ(uni.percentile(0.5), 64.0 + 0.5 * (127.0 - 64.0));
}

// ---------------------------------------------------------------------------
// LatencyTracer span bookkeeping
// ---------------------------------------------------------------------------

TEST(LatencyTracer, SegmentAccountingAndOtherRemainder) {
  LatencyTracer t(0);  // histograms only, no spans
  Packet p;
  p.type = PacketType::kMemRead;
  t.start(p, 1000, 0);
  t.queue_hop(p, 1400, "q", 0);       // 400 queue
  t.add_link(p, 100, 250);            // +100 queue, 250 link
  t.add_cache(p, 50);                 // 50 cache
  t.add_vault(p, /*enqueue=*/2000, /*done=*/2600, /*service=*/200, 0);
  // vault: 200 dram + 400 queue; finish 500 ps after the last stamp.
  t.finish(p, PathClass::kGpuReadDram, 3100, 0);

  const LatencySummary& s = t.summary();
  EXPECT_EQ(s.started, 1u);
  EXPECT_EQ(s.finished, 1u);
  EXPECT_EQ(s.cancelled, 0u);
  const auto ci = static_cast<std::size_t>(PathClass::kGpuReadDram);
  EXPECT_EQ(s.per_class[ci].count(), 1u);
  EXPECT_EQ(s.per_class[ci].sum(), 2100u);  // 3100 - 1000
  EXPECT_EQ(s.seg_sum_ps[ci][static_cast<std::size_t>(LatSegment::kQueue)], 900u);
  EXPECT_EQ(s.seg_sum_ps[ci][static_cast<std::size_t>(LatSegment::kLink)], 250u);
  EXPECT_EQ(s.seg_sum_ps[ci][static_cast<std::size_t>(LatSegment::kDram)], 200u);
  EXPECT_EQ(s.seg_sum_ps[ci][static_cast<std::size_t>(LatSegment::kCache)], 50u);
  // kOther = total - explicit = 2100 - 1400.
  EXPECT_EQ(s.seg_sum_ps[ci][static_cast<std::size_t>(LatSegment::kOther)], 700u);
  // The stamp is deactivated: further calls are no-ops.
  t.finish(p, PathClass::kGpuReadDram, 9999, 0);
  EXPECT_EQ(t.summary().finished, 1u);
}

TEST(LatencyTracer, CancelBalancesLifecycle) {
  LatencyTracer t(0);
  Packet a, b;
  a.type = b.type = PacketType::kMemRead;
  t.start(a, 10, 0);
  t.start(b, 20, 0);
  t.cancel(a);
  t.finish(b, PathClass::kGpuReadL2, 120, 0);
  EXPECT_EQ(t.summary().started, 2u);
  EXPECT_EQ(t.summary().finished, 1u);
  EXPECT_EQ(t.summary().cancelled, 1u);
  // An inactive (never-started) packet is ignored entirely.
  Packet idle;
  t.queue_hop(idle, 50, "q", 0);
  t.finish(idle, PathClass::kGpuWrite, 60, 0);
  EXPECT_EQ(t.summary().started, 2u);
  EXPECT_EQ(t.summary().finished, 1u);
}

TEST(LatencyTracer, StratifiedSamplingIsDeterministicPerType) {
  // sample=2: ordinals 0, 2, 4 of each packet type get spans.
  LatencyTracer t(2);
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.type = PacketType::kMemRead;
    t.start(p, i, 0);
    EXPECT_EQ(p.lt.span_id != 0, i % 2 == 0) << i;
  }
  // A different type has its own ordinal stream.
  Packet q;
  q.type = PacketType::kRdf;
  t.start(q, 99, 0);
  EXPECT_NE(q.lt.span_id, 0u);
  EXPECT_EQ(t.summary().spans_sampled, 4u);
  EXPECT_EQ(t.summary().spans_dropped, 0u);
}

TEST(LatencyTracer, SpanTableOverflowIsCountedNeverSilent) {
  LatencyTracer t(/*sample=*/1, /*max_spans=*/2);
  for (int i = 0; i < 5; ++i) {
    Packet p;
    p.type = PacketType::kMemRead;
    t.start(p, i, 0);
    t.finish(p, PathClass::kGpuReadL2, i + 10, 0);
  }
  EXPECT_EQ(t.summary().spans_sampled, 5u);
  EXPECT_EQ(t.summary().spans_dropped, 3u);
  StatSet stats;
  t.export_stats(stats);
  EXPECT_EQ(stats.get("sim.latency_spans"), 2.0);
  EXPECT_EQ(stats.get("sim.latency_spans_dropped"), 3.0);
}

// ---------------------------------------------------------------------------
// System-level determinism pins
// ---------------------------------------------------------------------------

RunResult run_one(const std::string& workload, bool fast_forward, bool latency_on) {
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = OffloadMode::kDynamicCache;
  cfg.fast_forward = fast_forward;
  cfg.latency_trace = latency_on;
  auto wl = make_workload(workload, ProblemScale::kTiny);
  return Simulator(cfg).run(*wl);
}

TEST(LatencySystem, HistogramsBitIdenticalWithFastForwardOnOff) {
  for (const char* w : {"VADD", "BFS"}) {
    const RunResult ff = run_one(w, /*fast_forward=*/true, /*latency_on=*/true);
    const RunResult naive = run_one(w, /*fast_forward=*/false, /*latency_on=*/true);
    ASSERT_TRUE(ff.completed) << w;
    ASSERT_TRUE(ff.latency_enabled);
    EXPECT_EQ(ff.latency, naive.latency) << w;
    EXPECT_EQ(ff.stats.values(), naive.stats.values()) << w;
  }
}

TEST(LatencySystem, DisabledTracerDoesNotPerturbTheMachine) {
  const RunResult on = run_one("VADD", true, /*latency_on=*/true);
  const RunResult off = run_one("VADD", true, /*latency_on=*/false);
  EXPECT_TRUE(on.latency_enabled);
  EXPECT_FALSE(off.latency_enabled);
  EXPECT_EQ(off.latency, LatencySummary{});
  // Identical simulation: same cycles, same runtime.
  EXPECT_EQ(on.sm_cycles, off.sm_cycles);
  EXPECT_EQ(on.runtime_ps, off.runtime_ps);
  // No lat.* keys exported when disabled.
  for (const auto& [name, value] : off.stats.values()) {
    EXPECT_TRUE(name.rfind("lat.", 0) != 0 &&
                name.rfind("sim.latency", 0) != 0)
        << name;
  }
  // Enabled run reconciles: finished == sum of per-class counts, and the
  // lifecycle balances (also enforced at runtime by the stats audit).
  std::uint64_t class_total = 0;
  for (const auto& h : on.latency.per_class) class_total += h.count();
  EXPECT_EQ(class_total, on.latency.finished);
  EXPECT_EQ(on.latency.started, on.latency.finished + on.latency.cancelled);
  EXPECT_EQ(on.stats.get("audit.violations"), 0.0);
}

TEST(LatencySystem, SerialAndParallelSweepsAgree) {
  auto build = [](unsigned jobs) {
    SweepRunner runner({.jobs = jobs, .point_timeout_s = 0.0, .progress = false});
    for (const char* w : {"VADD", "KMN", "STN", "FWT"}) {
      SweepPoint p;
      p.id = std::string(w) + "/lat";
      p.workload = w;
      p.scale = ProblemScale::kTiny;
      p.cfg = SystemConfig::small_test();
      p.cfg.governor.mode = OffloadMode::kDynamicCache;
      runner.add(std::move(p));
    }
    return runner;
  };
  SweepRunner serial = build(1);
  SweepRunner parallel = build(4);
  serial.run();
  parallel.run();
  for (std::size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(serial.outcome(i).ran);
    ASSERT_TRUE(parallel.outcome(i).ran);
    EXPECT_EQ(serial.result(i).latency, parallel.result(i).latency) << i;
    EXPECT_EQ(serial.result(i).stats.values(), parallel.result(i).stats.values()) << i;
  }
}

}  // namespace
}  // namespace sndp
