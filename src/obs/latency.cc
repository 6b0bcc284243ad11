#include "obs/latency.h"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "sim/trace.h"

namespace sndp {

const char* path_class_name(PathClass c) {
  switch (c) {
    case PathClass::kGpuReadL2: return "gpu_read_l2";
    case PathClass::kGpuReadDram: return "gpu_read_dram";
    case PathClass::kGpuWrite: return "gpu_write";
    case PathClass::kRdfCacheHit: return "rdf_cache_hit";
    case PathClass::kRdfLocal: return "rdf_local";
    case PathClass::kRdfRemote: return "rdf_remote";
    case PathClass::kNsuWriteLocal: return "nsu_write_local";
    case PathClass::kNsuWriteRemote: return "nsu_write_remote";
    case PathClass::kOfldCmd: return "ofld_cmd";
    case PathClass::kCredit: return "credit";
    case PathClass::kCount: break;
  }
  return "?";
}

const char* lat_segment_name(LatSegment s) {
  switch (s) {
    case LatSegment::kQueue: return "queue";
    case LatSegment::kLink: return "link";
    case LatSegment::kDram: return "dram";
    case LatSegment::kCache: return "cache";
    case LatSegment::kOther: return "other";
    case LatSegment::kCount: break;
  }
  return "?";
}

// --- Log2Histogram ---------------------------------------------------------

unsigned Log2Histogram::bucket_of(std::uint64_t v) {
  if (v == 0) return 0;
  return std::min<unsigned>(kNumBuckets - 1, static_cast<unsigned>(std::bit_width(v)));
}

std::uint64_t Log2Histogram::bucket_lo(unsigned b) {
  if (b == 0) return 0;
  return std::uint64_t{1} << (b - 1);
}

std::uint64_t Log2Histogram::bucket_hi(unsigned b) {
  if (b == 0) return 0;
  if (b >= kNumBuckets - 1) return UINT64_MAX;
  return (std::uint64_t{1} << b) - 1;
}

void Log2Histogram::record(std::uint64_t v) {
  ++buckets_[bucket_of(v)];
  ++count_;
  sum_ += v;
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

double Log2Histogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  if (q <= 0.0) return static_cast<double>(min());
  if (q >= 1.0) return static_cast<double>(max_);
  // 0-based fractional rank; linear interpolation inside the bucket that
  // holds it, clamped to the exact [min, max] envelope.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t cum = 0;
  for (unsigned b = 0; b < kNumBuckets; ++b) {
    if (buckets_[b] == 0) continue;
    const double lo_rank = static_cast<double>(cum);
    cum += buckets_[b];
    const double hi_rank = static_cast<double>(cum - 1);
    if (rank > hi_rank) continue;
    const double lo = static_cast<double>(bucket_lo(b));
    const double hi = static_cast<double>(bucket_hi(b));
    double frac = 0.5;
    if (buckets_[b] > 1) frac = (rank - lo_rank) / (hi_rank - lo_rank);
    double v = lo + frac * (hi - lo);
    v = std::max(v, static_cast<double>(min()));
    v = std::min(v, static_cast<double>(max_));
    return v;
  }
  return static_cast<double>(max_);  // unreachable: rank < count
}

// --- LatencyTracer ---------------------------------------------------------

LatencyTracer::LatencyTracer(unsigned sample, std::size_t max_spans)
    : sample_(sample), max_spans_(max_spans) {}

LatencyTracer::Span* LatencyTracer::span_of(const Packet& p) {
  if (p.lt.span_id == 0) return nullptr;
  return &spans_[p.lt.span_id - 1];
}

void LatencyTracer::record_hop(const Packet& p, const char* label, unsigned node, TimePs ps) {
  if (Span* s = span_of(p)) {
    s->hops.push_back(SpanHop{label, static_cast<std::uint16_t>(node), ps});
  }
}

void LatencyTracer::start(Packet& p, TimePs now, unsigned node) {
  p.lt = PacketTiming{};
  p.lt.origin_ps = now;
  p.lt.last_ps = now;
  p.lt.active = true;
  ++summary_.started;
  // Stratified deterministic sampling: the 1st, (N+1)th, ... tracked request
  // of each packet type gets a full-fidelity span.
  const auto ti = static_cast<std::size_t>(p.type);
  const std::uint64_t ordinal = started_by_type_[ti]++;
  if (sample_ == 0 || ordinal % sample_ != 0) return;
  ++summary_.spans_sampled;
  if (spans_.size() >= max_spans_) {
    ++summary_.spans_dropped;
    return;
  }
  Span s;
  s.origin_ps = now;
  s.origin_node = static_cast<std::uint16_t>(node);
  spans_.push_back(std::move(s));
  p.lt.span_id = static_cast<std::uint32_t>(spans_.size());
}

void LatencyTracer::queue_hop(Packet& p, TimePs now, const char* label, unsigned node) {
  if (!p.lt.active) return;
  if (now > p.lt.last_ps) {
    p.lt.queue_ps += now - p.lt.last_ps;
    p.lt.last_ps = now;
  }
  record_hop(p, label, node, now);
}

void LatencyTracer::exec_hop(Packet& p, TimePs now, const char* label, unsigned node) {
  if (!p.lt.active) return;
  if (now > p.lt.last_ps) p.lt.last_ps = now;
  record_hop(p, label, node, now);
}

void LatencyTracer::add_link(Packet& p, TimePs wait_ps, TimePs fly_ps) {
  if (!p.lt.active) return;
  p.lt.queue_ps += wait_ps;
  p.lt.link_ps += fly_ps;
  p.lt.last_ps += wait_ps + fly_ps;
}

void LatencyTracer::add_cache(Packet& p, TimePs d) {
  if (!p.lt.active) return;
  p.lt.cache_ps += d;
  p.lt.last_ps += d;
}

void LatencyTracer::add_vault(Packet& p, TimePs enqueue_ps, TimePs done_ps, TimePs service_ps,
                              unsigned node) {
  if (!p.lt.active) return;
  const TimePs resident = done_ps > enqueue_ps ? done_ps - enqueue_ps : 0;
  const TimePs service = std::min(service_ps, resident);
  p.lt.dram_ps += service;
  p.lt.queue_ps += resident - service;
  p.lt.last_ps = done_ps;
  record_hop(p, "dram", node, done_ps);
}

void LatencyTracer::set_path(Packet& p, PathClass c) {
  if (!p.lt.active) return;
  p.lt.path = static_cast<std::uint8_t>(c);
  p.lt.has_path = true;
}

void LatencyTracer::transfer(const Packet& from, Packet& to) { to.lt = from.lt; }

void LatencyTracer::adopt(Packet& p, const PacketTiming& parked) { p.lt = parked; }

void LatencyTracer::finish(Packet& p, PathClass cls, TimePs end_ps, unsigned node) {
  if (!p.lt.active) return;
  const auto ci = static_cast<std::size_t>(cls);
  const std::uint64_t total = end_ps > p.lt.origin_ps ? end_ps - p.lt.origin_ps : 0;
  summary_.per_class[ci].record(total);
  if (p.tenant < summary_.per_tenant.size()) {
    summary_.per_tenant[p.tenant][ci].record(total);
  }
  ++summary_.finished;
  auto& segs = summary_.seg_sum_ps[ci];
  const std::uint64_t explicit_ps = p.lt.queue_ps + p.lt.link_ps + p.lt.dram_ps + p.lt.cache_ps;
  segs[static_cast<std::size_t>(LatSegment::kQueue)] += p.lt.queue_ps;
  segs[static_cast<std::size_t>(LatSegment::kLink)] += p.lt.link_ps;
  segs[static_cast<std::size_t>(LatSegment::kDram)] += p.lt.dram_ps;
  segs[static_cast<std::size_t>(LatSegment::kCache)] += p.lt.cache_ps;
  segs[static_cast<std::size_t>(LatSegment::kOther)] +=
      total > explicit_ps ? total - explicit_ps : 0;
  if (Span* s = span_of(p)) {
    s->path = cls;
    s->end_ps = end_ps;
    s->end_node = static_cast<std::uint16_t>(node);
    s->finished = true;
  }
  p.lt.active = false;
  p.lt.span_id = 0;
}

void LatencyTracer::finish_stamped(Packet& p, TimePs end_ps, unsigned node) {
  if (!p.lt.active) return;
  const PathClass cls =
      p.lt.has_path ? static_cast<PathClass>(p.lt.path) : PathClass::kCount;
  if (cls == PathClass::kCount) {  // defensive: unstamped finish counts as cancel
    cancel(p);
    return;
  }
  finish(p, cls, end_ps, node);
}

void LatencyTracer::cancel(Packet& p) {
  if (!p.lt.active) return;
  ++summary_.cancelled;
  p.lt.active = false;
  p.lt.span_id = 0;
}

void LatencyTracer::export_stats(StatSet& out) const {
  for (std::size_t c = 0; c < kNumPathClasses; ++c) {
    const Log2Histogram& h = summary_.per_class[c];
    const std::string base = std::string("lat.") + path_class_name(static_cast<PathClass>(c));
    out.set(base + ".count", static_cast<double>(h.count()));
    out.set(base + ".mean_ps", h.mean());
    out.set(base + ".p50_ps", h.percentile(0.50));
    out.set(base + ".p95_ps", h.percentile(0.95));
    out.set(base + ".p99_ps", h.percentile(0.99));
    out.set(base + ".max_ps", static_cast<double>(h.max()));
  }
  for (std::size_t t = 0; t < summary_.per_tenant.size(); ++t) {
    for (std::size_t c = 0; c < kNumPathClasses; ++c) {
      const Log2Histogram& h = summary_.per_tenant[t][c];
      if (h.count() == 0) continue;
      const std::string base = std::string("lat.t") + std::to_string(t) + "." +
                               path_class_name(static_cast<PathClass>(c));
      out.set(base + ".count", static_cast<double>(h.count()));
      out.set(base + ".p50_ps", h.percentile(0.50));
      out.set(base + ".p95_ps", h.percentile(0.95));
      out.set(base + ".p99_ps", h.percentile(0.99));
    }
  }
  for (std::size_t s = 0; s < kNumLatSegments; ++s) {
    std::uint64_t sum = 0;
    for (std::size_t c = 0; c < kNumPathClasses; ++c) sum += summary_.seg_sum_ps[c][s];
    out.set(std::string("lat.seg.") + lat_segment_name(static_cast<LatSegment>(s)) + ".sum_ps",
            static_cast<double>(sum));
  }
  out.set("sim.latency_spans", static_cast<double>(summary_.spans_sampled - summary_.spans_dropped));
  out.set("sim.latency_spans_dropped", static_cast<double>(summary_.spans_dropped));
}

void LatencyTracer::emit_trace(TraceWriter& trace) const {
  std::uint64_t id = 0;
  for (const Span& s : spans_) {
    ++id;  // ids are stable per span regardless of finished state
    if (!s.finished) continue;
    const std::string name = path_class_name(s.path);
    // One duration slice per hop-to-hop leg so the flow arrows have
    // enclosing slices to bind to.
    std::uint16_t prev_node = s.origin_node;
    TimePs prev_ps = s.origin_ps;
    for (const SpanHop& h : s.hops) {
      if (h.ps > prev_ps) {
        trace.complete(name + ":" + h.label, "latency_span", h.node, prev_ps, h.ps - prev_ps);
      }
      prev_node = h.node;
      prev_ps = h.ps;
    }
    if (s.end_ps > prev_ps) {
      trace.complete(name + ":finish", "latency_span", s.end_node, prev_ps, s.end_ps - prev_ps);
    }
    (void)prev_node;
    trace.flow('s', name, "latency", s.origin_node, s.origin_ps, id);
    for (const SpanHop& h : s.hops) trace.flow('t', name, "latency", h.node, h.ps, id);
    trace.flow('f', name, "latency", s.end_node, s.end_ps, id);
  }
}

void print_latency_table(const LatencySummary& s, const char* indent) {
  std::printf("%s%-16s %10s %12s %12s %12s %12s\n", indent, "path class", "count", "p50 (ns)",
              "p95 (ns)", "p99 (ns)", "mean (ns)");
  for (std::size_t c = 0; c < kNumPathClasses; ++c) {
    const Log2Histogram& h = s.per_class[c];
    if (h.count() == 0) continue;
    std::printf("%s%-16s %10llu %12.1f %12.1f %12.1f %12.1f\n", indent,
                path_class_name(static_cast<PathClass>(c)),
                static_cast<unsigned long long>(h.count()), h.percentile(0.50) * 1e-3,
                h.percentile(0.95) * 1e-3, h.percentile(0.99) * 1e-3, h.mean() * 1e-3);
  }
}

}  // namespace sndp
