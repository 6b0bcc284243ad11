// Request-lifecycle latency tracing (ISSUE 5).
//
// Answers "where does a remote-stack RDF round-trip actually spend its
// cycles?" at request granularity: every tracked packet carries a
// `PacketTiming` stamp (src/noc/packet.h) that accumulates per-segment time
// (queueing, link traversal, DRAM service, cache lookup) as it moves through
// the machine, and on completion the total plus the segment split are folded
// into deterministic log2-bucketed histograms keyed by *path class* — the
// request shapes the paper's §4/§6 arguments are about (GPU read served at
// L2 vs from a vault, RDF to the local vs a remote stack, NSU writeback
// local/remote, offload-cmd→ACK, credit round-trip).
//
// Determinism contract: every timestamp used here is an event time the
// simulator already computes (packet creation, TimedChannel ready times,
// link reservation arithmetic, vault completion) — none depend on the
// stepping mode, so all histograms are bit-identical with fast-forward
// on/off and across serial/threaded sweeps (pinned by tests/test_latency.cc).
// Span *sampling* is stratified-deterministic too: the Nth tracked request
// of each packet type (N = SystemConfig::latency_sample) gets a
// full-fidelity per-hop span, bounded by kMaxSpans; overflow is counted in
// spans_dropped() and exported as `sim.latency_spans_dropped` — never a
// silent truncation.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "noc/packet.h"

namespace sndp {

class TraceWriter;

// Path classes: one per request shape whose end-to-end latency the paper's
// placement argument depends on.  "Local" vs "remote" is relative to the
// *target NSU's stack* (every HMC is one hop from the GPU in this topology;
// the placement penalty the paper studies is the NSU-to-vault distance).
enum class PathClass : std::uint8_t {
  kGpuReadL2 = 0,    // SM load, served by an L2 slice hit
  kGpuReadDram,      // SM load, full vault round-trip
  kGpuWrite,         // SM store, retired at the vault (write-through)
  kRdfCacheHit,      // RDF served from GPU L1/L2 instead of DRAM
  kRdfLocal,         // RDF whose vault is in the target NSU's own stack
  kRdfRemote,        // RDF crossing stacks over the memory network
  kNsuWriteLocal,    // NSU store to a vault in its own stack
  kNsuWriteRemote,   // NSU store crossing stacks
  kOfldCmd,          // offload command -> ACK round trip (incl. execution)
  kCredit,           // NSU credit spawn -> GPU buffer-manager return
  kCount,
};
inline constexpr std::size_t kNumPathClasses = static_cast<std::size_t>(PathClass::kCount);
const char* path_class_name(PathClass c);

// Where the time went.  kOther is the remainder (total minus the explicit
// segments, clamped at zero): SM/NSU pipeline residency, buffer waits that
// are not modelled as timed queues, etc.
enum class LatSegment : std::uint8_t {
  kQueue = 0,  // waiting in a timed queue / for a busy link tier
  kLink,       // serialization + propagation on a link, NoC/router/xbar hops
  kDram,       // vault FR-FCFS service (tCL + tBURST worth of the round trip)
  kCache,      // L2 lookup latency on the hit path
  kOther,
  kCount,
};
inline constexpr std::size_t kNumLatSegments = static_cast<std::size_t>(LatSegment::kCount);
const char* lat_segment_name(LatSegment s);

// Log2-bucketed latency histogram over picosecond values.  Bucket 0 holds
// the exact value 0; bucket b (1 <= b < kNumBuckets-1) holds
// [2^(b-1), 2^b - 1]; the last bucket is the overflow bucket for everything
// from 2^(kNumBuckets-2) ps (~70 ms) up.  Count/sum/min/max are exact;
// percentiles interpolate linearly inside a bucket and are clamped to
// [min, max], so a single-valued histogram reports that value exactly.
class Log2Histogram {
 public:
  static constexpr unsigned kNumBuckets = 48;

  static unsigned bucket_of(std::uint64_t v);
  static std::uint64_t bucket_lo(unsigned b);
  static std::uint64_t bucket_hi(unsigned b);  // inclusive; last bucket = UINT64_MAX

  void record(std::uint64_t v);

  std::uint64_t count() const { return count_; }
  std::uint64_t sum() const { return sum_; }
  std::uint64_t min() const { return count_ ? min_ : 0; }
  std::uint64_t max() const { return max_; }
  std::uint64_t bucket_count(unsigned b) const { return buckets_[b]; }
  double mean() const { return count_ ? static_cast<double>(sum_) / static_cast<double>(count_) : 0.0; }

  // q in [0, 1].  Returns 0 on an empty histogram.
  double percentile(double q) const;

  bool operator==(const Log2Histogram&) const = default;

 private:
  std::array<std::uint64_t, kNumBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = UINT64_MAX;
  std::uint64_t max_ = 0;
};

// Aggregated result of a run: per-class total-latency histograms plus
// per-class per-segment time sums (exact), and global span bookkeeping.
struct LatencySummary {
  std::array<Log2Histogram, kNumPathClasses> per_class{};
  // Per-tenant per-class total-latency histograms.  Empty on single-tenant
  // runs (set_num_tenants() sizes it only when more than one tenant is
  // resident), so the classic summary and its equality checks are untouched.
  std::vector<std::array<Log2Histogram, kNumPathClasses>> per_tenant;
  // seg_sum_ps[class][segment]: exact picosecond totals.
  std::array<std::array<std::uint64_t, kNumLatSegments>, kNumPathClasses> seg_sum_ps{};
  std::uint64_t started = 0;    // spans opened (tracked packets created)
  std::uint64_t finished = 0;   // spans closed into a histogram
  std::uint64_t cancelled = 0;  // tracked packets merged/absorbed en route
  std::uint64_t spans_sampled = 0;
  std::uint64_t spans_dropped = 0;  // sampled but span table was full

  bool operator==(const LatencySummary&) const = default;
};

// The tracer.  Every run has one (SystemContext::latency).  All mutating
// calls are no-ops on packets whose stamp is not active (never start()ed),
// so instrumentation sites call it unconditionally.
class LatencyTracer {
 public:
  // `sample`: every Nth tracked request per packet type gets a full
  // per-hop span (0 disables span capture entirely).  `max_spans` bounds
  // the span table; overflow increments spans_dropped().
  explicit LatencyTracer(unsigned sample, std::size_t max_spans = kDefaultMaxSpans);

  static constexpr std::size_t kDefaultMaxSpans = 4096;

  // Size the per-tenant histogram table (no-op when n <= 1, keeping the
  // single-tenant summary bit-identical to a tracer that never heard of
  // tenants).  Call before the run starts.
  void set_num_tenants(unsigned n) {
    if (n > 1) summary_.per_tenant.resize(n);
  }

  // Open a span: stamps origin/last = now and (deterministically) decides
  // whether this request is sampled.  `node` is the originating network
  // node (HMC id, or the GPU node index) for trace emission.
  void start(Packet& p, TimePs now, unsigned node);

  // The packet was consumed from a timed queue at `now`: time since the
  // last stamp is queueing.  Also records a per-hop span point when sampled.
  void queue_hop(Packet& p, TimePs now, const char* label, unsigned node);

  // Advance the stamp to `now` WITHOUT charging a segment — the gap lands
  // in kOther at finish (SM/NSU execution residency).  Records a span hop.
  void exec_hop(Packet& p, TimePs now, const char* label, unsigned node);

  // A link / NoC / xbar traversal: `wait_ps` queueing for the tier to free
  // up, `fly_ps` serialization + propagation.  Advances the last stamp.
  void add_link(Packet& p, TimePs wait_ps, TimePs fly_ps);

  // L2 lookup latency on the hit path.  Advances the last stamp.
  void add_cache(Packet& p, TimePs d);

  // Vault residency from FR-FCFS enqueue to completion, split into DRAM
  // service (`service_ps`, from the timing constants) and queueing (the
  // rest).  Advances the last stamp to `done_ps` and records a span hop.
  void add_vault(Packet& p, TimePs enqueue_ps, TimePs done_ps, TimePs service_ps, unsigned node);

  // Pre-assign the path class (for request types whose class is known at
  // creation, e.g. RDF local vs remote); finish_stamped() consumes it.
  void set_path(Packet& p, PathClass c);

  // Move the accumulated stamp from a consumed request onto its response.
  void transfer(const Packet& from, Packet& to);

  // Copy a previously parked stamp (e.g. held across NSU warp execution)
  // onto an outgoing packet.
  void adopt(Packet& p, const PacketTiming& parked);

  // Close the span into the `cls` histogram with end time `end_ps`.
  void finish(Packet& p, PathClass cls, TimePs end_ps, unsigned node);
  // Close using the class recorded by set_path().
  void finish_stamped(Packet& p, TimePs end_ps, unsigned node);

  // The tracked packet was absorbed without completing on its own (e.g.
  // L2 MSHR merge): account it so started == finished + cancelled holds.
  void cancel(Packet& p);

  const LatencySummary& summary() const { return summary_; }
  std::uint64_t spans_dropped() const { return summary_.spans_dropped; }

  // Flat stats export: lat.<class>.{count,mean_ps,p50_ps,p95_ps,p99_ps,
  // max_ps}, lat.seg.<segment>.sum_ps, sim.latency_spans{,_dropped}.
  void export_stats(StatSet& out) const;

  // Emit sampled spans as Chrome-trace flow ("s"/"t"/"f") events plus one
  // duration slice per hop-to-hop leg, so Perfetto binds the flow arrows.
  void emit_trace(TraceWriter& trace) const;

 private:
  struct SpanHop {
    const char* label;
    std::uint16_t node;
    TimePs ps;
  };
  struct Span {
    PathClass path = PathClass::kCount;
    TimePs origin_ps = 0;
    TimePs end_ps = 0;
    std::uint16_t origin_node = 0;
    std::uint16_t end_node = 0;
    bool finished = false;
    std::vector<SpanHop> hops;
  };

  void record_hop(const Packet& p, const char* label, unsigned node, TimePs ps);
  Span* span_of(const Packet& p);

  unsigned sample_ = 0;
  std::size_t max_spans_ = kDefaultMaxSpans;
  std::array<std::uint64_t, kNumPacketTypes> started_by_type_{};
  std::vector<Span> spans_;
  LatencySummary summary_;
};

// Append the per-class percentile table to a human-readable report line set
// (used by bench/latency_breakdown and sndpsim).
void print_latency_table(const LatencySummary& s, const char* indent);

}  // namespace sndp
