#include "obs/epoch_timeline.h"

#include <algorithm>

#include "common/units.h"
#include "ctrl/governor.h"
#include "sim/trace.h"

namespace sndp {

namespace {

// Hit fraction of `hits + misses` accesses; 0 (not NaN) with no accesses.
double hit_rate(std::uint64_t hits, std::uint64_t misses) {
  return (hits + misses) == 0
             ? 0.0
             : static_cast<double>(hits) / static_cast<double>(hits + misses);
}

}  // namespace

EpochTimeline::EpochTimeline(const SystemConfig& cfg)
    : epoch_cycles_(cfg.governor.epoch_cycles),
      sm_khz_(cfg.clocks.sm_khz),
      nsu_khz_(cfg.clocks.nsu_khz),
      num_sms_(cfg.num_sms),
      nsu_max_warps_(cfg.nsu.max_warps),
      num_nsus_(cfg.num_hmcs),
      num_gpu_links_(cfg.num_hmcs),
      link_bytes_per_ps_(cfg.link.gb_per_s / 1000.0),
      max_time_ps_(cfg.max_time_ps) {
  // Count the unidirectional cube links that actually exist: both endpoints
  // of a dimension edge must be < num_hmcs (incomplete hypercube for
  // non-power-of-two counts; reduces to num_hmcs * log2(num_hmcs) for
  // complete cubes).
  unsigned dims = 0;
  while ((1u << dims) < cfg.num_hmcs) ++dims;
  for (unsigned i = 0; i < cfg.num_hmcs; ++i) {
    for (unsigned d = 0; d < dims; ++d) {
      if ((i ^ (1u << d)) < cfg.num_hmcs) ++num_cube_links_;
    }
  }
}

TimePs EpochTimeline::boundary_ps(std::size_t k) const {
  return tick_time_ps(static_cast<Cycle>(k + 1) * epoch_cycles_, sm_khz_);
}

std::uint64_t EpochTimeline::nsu_edges_before(TimePs t) const {
  // Same mapping as ClockDomain::first_cycle_at_or_after: the count of edges
  // n with tick_time_ps(n, nsu_khz_) < t is ceil(t * khz / 1e9).
  const unsigned __int128 num =
      static_cast<unsigned __int128>(t) * nsu_khz_ + 999'999'999ull;
  return static_cast<std::uint64_t>(num / 1'000'000'000ull);
}

void EpochTimeline::record(const EpochRollInfo& info, const AuditSnapshot& at) {
  if (samples_.size() >= kMaxSamples) {
    ++dropped_;
    return;
  }
  EpochSample s;
  s.epoch = info.epoch;
  s.end_cycle = static_cast<Cycle>(info.epoch + 1) * epoch_cycles_;
  s.end_ps = boundary_ps(info.epoch);
  s.ratio = info.ratio;
  s.step = info.step;
  s.direction = info.direction;
  s.epoch_ipc = info.ipc;
  s.block_instrs = info.block_instrs;
  const double denom =
      static_cast<double>(epoch_cycles_) * static_cast<double>(num_sms_);
  s.sm_ipc = static_cast<double>(at.sm_issued - prev_.sm_issued) / denom;
  s.l1_hit_rate = hit_rate(at.l1_hits - prev_.l1_hits, at.l1_miss_new - prev_.l1_miss_new);
  s.l2_hit_rate = hit_rate(at.l2_hits - prev_.l2_hits, at.l2_miss_new - prev_.l2_miss_new);
  const TimePs prev_ps = info.epoch == 0 ? 0 : boundary_ps(info.epoch - 1);
  const double dur_ps = static_cast<double>(s.end_ps - prev_ps);
  if (dur_ps > 0.0) {
    const double per_link = dur_ps * link_bytes_per_ps_;
    s.gpu_up_util = static_cast<double>(at.gpu_up_bytes - prev_.gpu_up_bytes) /
                    (per_link * num_gpu_links_);
    s.gpu_down_util = static_cast<double>(at.gpu_down_bytes - prev_.gpu_down_bytes) /
                      (per_link * num_gpu_links_);
    s.cube_util = num_cube_links_ == 0
                      ? 0.0
                      : static_cast<double>(at.cube_bytes - prev_.cube_bytes) /
                            (per_link * num_cube_links_);
  }
  const std::uint64_t d_edges = nsu_edges_before(s.end_ps) - nsu_edges_before(prev_ps);
  if (d_edges > 0 && num_nsus_ > 0 && nsu_max_warps_ > 0) {
    s.nsu_occupancy = static_cast<double>(at.nsu_occupancy - prev_.nsu_occupancy) /
                      (static_cast<double>(d_edges) * nsu_max_warps_ * num_nsus_);
  }
  s.valve_pressure = max_time_ps_ == 0
                         ? 0.0
                         : static_cast<double>(s.end_ps) /
                               static_cast<double>(max_time_ps_);
  s.pages_migrated = at.pages_migrated - prev_.pages_migrated;
  for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
    s.sm_stack[b] = static_cast<std::int64_t>(at.cyc_sm_buckets[b]) -
                    static_cast<std::int64_t>(prev_.cyc_sm_buckets[b]);
  }
  samples_.push_back(s);
  prev_ = at;
}

void EpochTimeline::emit_trace(TraceWriter& trace, int tid) const {
  for (const EpochSample& s : samples_) {
    trace.counter("offload_ratio", tid, s.end_ps, s.ratio);
    trace.counter("epoch_ipc", tid, s.end_ps, s.epoch_ipc);
    trace.counter("sm_ipc", tid, s.end_ps, s.sm_ipc);
    trace.counter("l1_hit_rate", tid, s.end_ps, s.l1_hit_rate);
    trace.counter("l2_hit_rate", tid, s.end_ps, s.l2_hit_rate);
    trace.counter("gpu_up_util", tid, s.end_ps, s.gpu_up_util);
    trace.counter("gpu_down_util", tid, s.end_ps, s.gpu_down_util);
    trace.counter("cube_util", tid, s.end_ps, s.cube_util);
    trace.counter("nsu_occupancy", tid, s.end_ps, s.nsu_occupancy);
    trace.counter("pages_migrated", tid, s.end_ps,
                  static_cast<double>(s.pages_migrated));
  }
  // Cycle-stack counter tracks: one series per SM bucket, as cumulative
  // cycle totals (Perfetto renders absolute counter values best).
  std::array<std::int64_t, kNumSmBuckets> cum{};
  for (const EpochSample& s : samples_) {
    for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
      cum[b] += s.sm_stack[b];
      trace.counter(std::string("cyc_") +
                        sm_bucket_name(static_cast<SmBucket>(b)),
                    tid, s.end_ps, static_cast<double>(cum[b]));
    }
  }
}

void EpochTimeline::export_stats(StatSet& out) const {
  out.set("timeline.epochs", static_cast<double>(samples_.size()));
  out.set("timeline.dropped", static_cast<double>(dropped_));
  if (!samples_.empty()) {
    out.set("timeline.final_ratio", samples_.back().ratio);
    double peak_up = 0.0, peak_occ = 0.0;
    for (const EpochSample& s : samples_) {
      peak_up = std::max(peak_up, s.gpu_up_util);
      peak_occ = std::max(peak_occ, s.nsu_occupancy);
    }
    out.set("timeline.peak_gpu_up_util", peak_up);
    out.set("timeline.peak_nsu_occupancy", peak_occ);
  }
}

void write_epoch_csv(std::FILE* out, const std::vector<EpochSample>& samples) {
  std::fprintf(out,
               "epoch,end_cycle,end_ps,ratio,step,direction,epoch_ipc,block_instrs,"
               "sm_ipc,l1_hit_rate,l2_hit_rate,gpu_up_util,gpu_down_util,cube_util,"
               "nsu_occupancy,valve_pressure,pages_migrated");
  for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
    std::fprintf(out, ",cyc_%s", sm_bucket_name(static_cast<SmBucket>(b)));
  }
  std::fprintf(out, "\n");
  for (const EpochSample& s : samples) {
    std::fprintf(out,
                 "%llu,%llu,%llu,%.6f,%.6f,%d,%.6f,%llu,%.6f,%.6f,%.6f,%.6f,%.6f,"
                 "%.6f,%.6f,%.6f,%llu",
                 static_cast<unsigned long long>(s.epoch),
                 static_cast<unsigned long long>(s.end_cycle),
                 static_cast<unsigned long long>(s.end_ps), s.ratio, s.step, s.direction,
                 s.epoch_ipc, static_cast<unsigned long long>(s.block_instrs), s.sm_ipc,
                 s.l1_hit_rate, s.l2_hit_rate, s.gpu_up_util, s.gpu_down_util, s.cube_util,
                 s.nsu_occupancy, s.valve_pressure,
                 static_cast<unsigned long long>(s.pages_migrated));
    for (const std::int64_t v : s.sm_stack) {
      std::fprintf(out, ",%lld", static_cast<long long>(v));
    }
    std::fprintf(out, "\n");
  }
}

bool write_epoch_csv(const std::string& path, const std::vector<EpochSample>& samples) {
  if (path.empty() || path == "-") {
    write_epoch_csv(stdout, samples);
    return true;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  write_epoch_csv(f, samples);
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace sndp
