#include "obs/epoch_timeline.h"

#include <algorithm>

#include "common/units.h"
#include "sim/trace.h"

namespace sndp {

EpochTimeline::EpochTimeline(const SystemConfig& cfg, unsigned num_nsus)
    : epoch_cycles_(cfg.governor.epoch_cycles),
      sm_khz_(cfg.clocks.sm_khz),
      nsu_khz_(cfg.clocks.nsu_khz),
      num_sms_(cfg.num_sms),
      nsu_max_warps_(cfg.nsu.max_warps),
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
  nsu_.resize(num_nsus);
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

void EpochTimeline::on_epoch(std::uint64_t epoch, double epoch_ipc,
                             std::uint64_t block_instrs, double ratio,
                             double step, int direction, std::uint64_t issued,
                             std::uint64_t l1_hits, std::uint64_t l1_misses,
                             const std::array<std::uint64_t, kNumSmBuckets>& sm_stack) {
  if (samples_.size() >= kMaxSamples) {
    ++dropped_;
    return;
  }
  EpochSample s;
  s.epoch = epoch;
  s.end_cycle = static_cast<Cycle>(epoch + 1) * epoch_cycles_;
  s.end_ps = boundary_ps(epoch);
  s.ratio = ratio;
  s.step = step;
  s.direction = direction;
  s.epoch_ipc = epoch_ipc;
  s.block_instrs = block_instrs;
  const double denom =
      static_cast<double>(epoch_cycles_) * static_cast<double>(num_sms_);
  s.sm_ipc = static_cast<double>(issued - prev_issued_) / denom;
  const std::uint64_t dh = l1_hits - prev_l1_hits_;
  const std::uint64_t dm = l1_misses - prev_l1_misses_;
  s.l1_hit_rate =
      (dh + dm) == 0 ? 0.0 : static_cast<double>(dh) / static_cast<double>(dh + dm);
  s.valve_pressure = max_time_ps_ == 0
                         ? 0.0
                         : static_cast<double>(s.end_ps) /
                               static_cast<double>(max_time_ps_);
  for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
    s.sm_stack[b] = static_cast<std::int64_t>(sm_stack[b]) -
                    static_cast<std::int64_t>(prev_sm_stack_[b]);
  }
  prev_sm_stack_ = sm_stack;
  samples_.push_back(s);
  prev_issued_ = issued;
  prev_l1_hits_ = l1_hits;
  prev_l1_misses_ = l1_misses;
}

void EpochTimeline::poll_l2(TimePs now, std::uint64_t hits,
                            std::uint64_t misses) {
  while (due(l2_filled_, now)) {
    l2_hits_at_.push_back(hits);
    l2_misses_at_.push_back(misses);
    ++l2_filled_;
  }
}

void EpochTimeline::poll_links(TimePs now, std::uint64_t gpu_up_bytes,
                               std::uint64_t gpu_down_bytes,
                               std::uint64_t cube_bytes) {
  while (due(links_filled_, now)) {
    up_at_.push_back(gpu_up_bytes);
    down_at_.push_back(gpu_down_bytes);
    cube_at_.push_back(cube_bytes);
    ++links_filled_;
  }
}

void EpochTimeline::poll_nsu(unsigned nsu, TimePs now,
                             std::uint64_t occupancy_accum) {
  NsuSeries& s = nsu_[nsu];
  while (due(s.filled, now)) {
    s.occ.push_back(occupancy_accum);
    ++s.filled;
  }
}

void EpochTimeline::poll_migrations(TimePs now, std::uint64_t pages_migrated) {
  while (due(migrations_filled_, now)) {
    migrated_at_.push_back(pages_migrated);
    ++migrations_filled_;
  }
}

void EpochTimeline::finalize(std::uint64_t l2_hits, std::uint64_t l2_misses,
                             std::uint64_t gpu_up_bytes,
                             std::uint64_t gpu_down_bytes,
                             std::uint64_t cube_bytes,
                             const std::vector<std::uint64_t>& nsu_occ,
                             std::uint64_t pages_migrated) {
  const std::size_t n = samples_.size();
  // Flush lazy series out to the number of rolled epochs.  Any boundary a
  // source never reached with a consumed edge had frozen counters from
  // before the boundary to end-of-run, so the final value IS the boundary
  // value (see header contract).
  while (l2_filled_ < n) {
    l2_hits_at_.push_back(l2_hits);
    l2_misses_at_.push_back(l2_misses);
    ++l2_filled_;
  }
  while (links_filled_ < n) {
    up_at_.push_back(gpu_up_bytes);
    down_at_.push_back(gpu_down_bytes);
    cube_at_.push_back(cube_bytes);
    ++links_filled_;
  }
  while (migrations_filled_ < n) {
    migrated_at_.push_back(pages_migrated);
    ++migrations_filled_;
  }
  for (std::size_t i = 0; i < nsu_.size(); ++i) {
    NsuSeries& s = nsu_[i];
    const std::uint64_t final_occ = i < nsu_occ.size() ? nsu_occ[i] : 0;
    while (s.filled < n) {
      s.occ.push_back(final_occ);
      ++s.filled;
    }
  }

  std::uint64_t prev_l2h = 0, prev_l2m = 0;
  std::uint64_t prev_up = 0, prev_down = 0, prev_cube = 0;
  std::uint64_t prev_migrated = 0;
  std::vector<std::uint64_t> prev_occ(nsu_.size(), 0);
  TimePs prev_ps = 0;
  std::uint64_t prev_nsu_edges = 0;
  for (std::size_t k = 0; k < n; ++k) {
    EpochSample& s = samples_[k];
    const std::uint64_t dh = l2_hits_at_[k] - prev_l2h;
    const std::uint64_t dm = l2_misses_at_[k] - prev_l2m;
    s.l2_hit_rate = (dh + dm) == 0
                        ? 0.0
                        : static_cast<double>(dh) / static_cast<double>(dh + dm);
    const double dur_ps = static_cast<double>(s.end_ps - prev_ps);
    if (dur_ps > 0.0) {
      const double per_link = dur_ps * link_bytes_per_ps_;
      s.gpu_up_util = static_cast<double>(up_at_[k] - prev_up) /
                      (per_link * num_gpu_links_);
      s.gpu_down_util = static_cast<double>(down_at_[k] - prev_down) /
                        (per_link * num_gpu_links_);
      s.cube_util = num_cube_links_ == 0
                        ? 0.0
                        : static_cast<double>(cube_at_[k] - prev_cube) /
                              (per_link * num_cube_links_);
    }
    const std::uint64_t nsu_edges = nsu_edges_before(s.end_ps);
    const std::uint64_t d_edges = nsu_edges - prev_nsu_edges;
    if (d_edges > 0 && !nsu_.empty() && nsu_max_warps_ > 0) {
      std::uint64_t occ_sum = 0;
      for (std::size_t i = 0; i < nsu_.size(); ++i) {
        occ_sum += nsu_[i].occ[k] - prev_occ[i];
        prev_occ[i] = nsu_[i].occ[k];
      }
      s.nsu_occupancy =
          static_cast<double>(occ_sum) /
          (static_cast<double>(d_edges) * nsu_max_warps_ * nsu_.size());
    }
    s.pages_migrated = migrated_at_[k] - prev_migrated;
    prev_migrated = migrated_at_[k];
    prev_l2h = l2_hits_at_[k];
    prev_l2m = l2_misses_at_[k];
    prev_up = up_at_[k];
    prev_down = down_at_[k];
    prev_cube = cube_at_[k];
    prev_ps = s.end_ps;
    prev_nsu_edges = nsu_edges;
  }
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
