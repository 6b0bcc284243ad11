#include "sim/sweep.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "common/json.h"
#include "mem/placement.h"
#include "workloads/registry.h"

namespace sndp {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

void outcome_to_json(JsonWriter& w, const SweepOutcome& o) {
  const RunResult& r = o.result;
  w.begin_object();
  w.key("id").value(o.point.id);
  w.key("workload").value(o.point.workload());
  w.key("seed").value(static_cast<std::uint64_t>(o.point.cfg.placement_seed));
  w.key("placement").value(placement_policy_name(o.point.cfg.placement.policy));
  w.key("num_hmcs").value(static_cast<std::uint64_t>(o.point.cfg.num_hmcs));
  w.key("ran").value(o.ran);
  w.key("error").value(o.error);
  w.key("completed").value(r.completed);
  w.key("aborted").value(r.aborted);
  w.key("verified").value(r.verified);
  w.key("sm_cycles").value(static_cast<std::uint64_t>(r.sm_cycles));
  w.key("runtime_ps").value(static_cast<std::uint64_t>(r.runtime_ps));
  w.key("ipc").value(r.ipc);
  w.key("stall").begin_object();
  w.key("dependency").value(r.stall_dependency);
  w.key("exec_busy").value(r.stall_exec_busy);
  w.key("warp_idle").value(r.stall_warp_idle);
  w.end_object();
  w.key("traffic").begin_object();
  w.key("gpu_link_bytes").value(r.gpu_link_bytes);
  w.key("cube_link_bytes").value(r.cube_link_bytes);
  w.key("inval_bytes").value(r.inval_bytes);
  w.end_object();
  w.key("energy_j").begin_object();
  w.key("gpu").value(r.energy.gpu_j);
  w.key("nsu").value(r.energy.nsu_j);
  w.key("hmc_noc").value(r.energy.hmc_noc_j);
  w.key("offchip").value(r.energy.offchip_j);
  w.key("dram").value(r.energy.dram_j);
  w.key("total").value(r.energy.total());
  w.end_object();
  w.key("counters").begin_object();
  w.key("sm_lane_ops").value(r.counters.sm_lane_ops);
  w.key("nsu_lane_ops").value(r.counters.nsu_lane_ops);
  w.key("l1_accesses").value(r.counters.l1_accesses);
  w.key("l2_accesses").value(r.counters.l2_accesses);
  w.key("gpu_wire_bytes").value(r.counters.gpu_wire_bytes);
  w.key("hmc_noc_bytes").value(r.counters.hmc_noc_bytes);
  w.key("dram_activates").value(r.counters.dram_activates);
  w.key("dram_read_bytes").value(r.counters.dram_read_bytes);
  w.key("dram_write_bytes").value(r.counters.dram_write_bytes);
  w.key("offchip_bytes").value(r.counters.offchip_bytes);
  w.key("sm_active_seconds").value(r.counters.sm_active_seconds);
  w.end_object();
  // Per-epoch governor/metrics timeline (Fig. 8 dynamics).  Deterministic
  // sim content — must stay ahead of the "timing" object below.
  w.key("timeline").begin_array();
  for (const EpochSample& s : r.timeline) {
    w.begin_object();
    w.key("epoch").value(s.epoch);
    w.key("end_cycle").value(static_cast<std::uint64_t>(s.end_cycle));
    w.key("end_ps").value(static_cast<std::uint64_t>(s.end_ps));
    w.key("ratio").value(s.ratio);
    w.key("step").value(s.step);
    w.key("direction").value(static_cast<std::int64_t>(s.direction));
    w.key("epoch_ipc").value(s.epoch_ipc);
    w.key("block_instrs").value(s.block_instrs);
    w.key("sm_ipc").value(s.sm_ipc);
    w.key("l1_hit_rate").value(s.l1_hit_rate);
    w.key("l2_hit_rate").value(s.l2_hit_rate);
    w.key("gpu_up_util").value(s.gpu_up_util);
    w.key("gpu_down_util").value(s.gpu_down_util);
    w.key("cube_util").value(s.cube_util);
    w.key("nsu_occupancy").value(s.nsu_occupancy);
    w.key("valve_pressure").value(s.valve_pressure);
    w.key("pages_migrated").value(s.pages_migrated);
    w.end_object();
  }
  w.end_array();
  // Request-lifecycle latency histograms (src/obs/latency.*).  Like the
  // timeline, this is deterministic sim content and must precede "timing".
  const LatencySummary& lat = r.latency;
  w.key("latency").begin_object();
  w.key("started").value(lat.started);
  w.key("finished").value(lat.finished);
  w.key("cancelled").value(lat.cancelled);
  w.key("spans_sampled").value(lat.spans_sampled);
  w.key("spans_dropped").value(lat.spans_dropped);
  w.key("classes").begin_object();
  for (std::size_t c = 0; c < kNumPathClasses; ++c) {
    const Log2Histogram& h = lat.per_class[c];
    w.key(path_class_name(static_cast<PathClass>(c))).begin_object();
    w.key("count").value(h.count());
    w.key("sum_ps").value(h.sum());
    w.key("min_ps").value(h.min());
    w.key("max_ps").value(h.max());
    w.key("p50_ps").value(h.percentile(0.50));
    w.key("p95_ps").value(h.percentile(0.95));
    w.key("p99_ps").value(h.percentile(0.99));
    w.key("segments_ps").begin_object();
    for (std::size_t seg = 0; seg < kNumLatSegments; ++seg) {
      w.key(lat_segment_name(static_cast<LatSegment>(seg))).value(lat.seg_sum_ps[c][seg]);
    }
    w.end_object();
    w.end_object();
  }
  w.end_object();
  w.end_object();
  // Machine-wide cycle stacks (src/obs/cycle_stack.*).  Deterministic sim
  // content — must precede "timing".  Machine totals per component; the
  // per-tenant rows (plus the shared row) appear only on multi-tenant runs,
  // mirroring the `cyc.*` stat export.
  const CycleStackSummary& cs = r.cycle_stack;
  auto emit_row = [&w](const auto& stack, unsigned row, auto name_of,
                       std::size_t nbuckets) {
    w.begin_object();
    for (std::size_t b = 0; b < nbuckets; ++b) {
      w.key(name_of(b)).value(stack.rows[row][b]);
    }
    w.key("total").value(stack.row_total(row));
    w.end_object();
  };
  auto emit_totals = [&w](const auto& stack, auto name_of, std::size_t nbuckets) {
    w.begin_object();
    for (std::size_t b = 0; b < nbuckets; ++b) {
      w.key(name_of(b)).value(stack.bucket_total(b));
    }
    w.key("total").value(stack.total());
    w.end_object();
  };
  const auto sm_name = [](std::size_t b) {
    return sm_bucket_name(static_cast<SmBucket>(b));
  };
  const auto nsu_name = [](std::size_t b) {
    return nsu_bucket_name(static_cast<NsuBucket>(b));
  };
  const auto vault_name = [](std::size_t b) {
    return vault_bucket_name(static_cast<VaultBucket>(b));
  };
  w.key("cycle_stack").begin_object();
  w.key("tenants").value(static_cast<std::uint64_t>(cs.tenants));
  w.key("sm");
  emit_totals(cs.sm, sm_name, kNumSmBuckets);
  w.key("nsu");
  emit_totals(cs.nsu, nsu_name, kNumNsuBuckets);
  w.key("vault");
  emit_totals(cs.vault, vault_name, kNumVaultBuckets);
  if (cs.tenants > 1) {
    w.key("rows").begin_array();
    for (unsigned row = 0; row <= cs.tenants; ++row) {
      w.begin_object();
      std::string row_name = "t";
      row_name += std::to_string(row);
      w.key("row").value(row == cs.tenants ? "shared" : row_name);
      w.key("sm");
      emit_row(cs.sm, row, sm_name, kNumSmBuckets);
      w.key("nsu");
      emit_row(cs.nsu, row, nsu_name, kNumNsuBuckets);
      w.key("vault");
      emit_row(cs.vault, row, vault_name, kNumVaultBuckets);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  w.key("stats").begin_object();
  for (const auto& [name, value] : r.stats.values()) {
    w.key(name).value(value);
  }
  w.end_object();
  // Per-tenant results (multi-tenant runs only; deterministic sim content).
  if (!r.tenants.empty()) {
    w.key("tenants").begin_array();
    for (const TenantResult& t : r.tenants) {
      w.begin_object();
      w.key("name").value(t.name);
      w.key("verified").value(t.verified);
      w.key("finish_cycle").value(static_cast<std::uint64_t>(t.finish_cycle));
      w.key("issued_instrs").value(t.issued);
      w.key("l2_hits").value(t.l2_hits);
      w.key("l2_misses").value(t.l2_misses);
      w.key("l2_merged").value(t.l2_merged);
      w.key("gov_block_instrs").value(t.gov_block_instrs);
      w.end_object();
    }
    w.end_array();
  }
  // Wall-clock metadata: the ONLY per-point content allowed to differ
  // between serial and parallel runs of the same sweep.
  w.key("timing").begin_object();
  w.key("wall_seconds").value(o.wall_seconds);
  w.key("timed_out").value(o.timed_out);
  w.end_object();
  w.end_object();
}

}  // namespace

std::string SweepPoint::workload() const {
  std::string name;
  for (const TenantSpec& t : tenants) name += (name.empty() ? "" : "+") + t.name;
  return name;
}

std::size_t SweepRunner::add(SweepPoint point) {
  if (ran_) throw std::logic_error("SweepRunner: add() after run()");
  points_.push_back(std::move(point));
  return points_.size() - 1;
}

std::uint64_t SweepRunner::derived_seed(std::uint64_t base_seed, const std::string& point_id) {
  return splitmix64(base_seed ^ fnv1a(point_id));
}

void SweepRunner::run_point(std::size_t index) {
  SweepOutcome& out = outcomes_[index];
  out.point = points_[index];
  const auto start = Clock::now();
  try {
    Simulator sim(out.point.cfg);
    sim.set_analyzer_options(out.point.analyzer);
    if (opts_.point_timeout_s > 0.0) {
      // Decimate the steady_clock reads: the poll runs once per 64-edge
      // burst, which is far hotter than a syscall-backed clock wants.
      auto counter = std::make_shared<unsigned>(0);
      const double budget = opts_.point_timeout_s;
      auto timed_out = &out.timed_out;
      sim.set_abort_poll([start, budget, counter, timed_out] {
        if ((++*counter & 0x3F) != 0) return false;
        if (seconds_since(start) < budget) return false;
        *timed_out = true;
        return true;
      });
    }
    std::vector<std::unique_ptr<Workload>> wls;
    std::vector<TenantDesc> descs;
    for (const TenantSpec& t : out.point.tenants) {
      wls.push_back(make_workload(t.name, out.point.scale));
      descs.push_back(TenantDesc{wls.back().get(), t.weight, t.priority});
    }
    out.result = sim.run_tenants(descs, out.point.workload());
    out.ran = true;
  } catch (const std::exception& e) {
    out.error = e.what();
  }
  out.wall_seconds = seconds_since(start);
}

const std::vector<SweepOutcome>& SweepRunner::run() {
  if (ran_) return outcomes_;
  ran_ = true;
  outcomes_.resize(points_.size());

  unsigned jobs = opts_.jobs;
  if (jobs == 0) jobs = std::max(1u, std::thread::hardware_concurrency());
  jobs = std::min<unsigned>(jobs, std::max<std::size_t>(points_.size(), 1));

  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::mutex progress_mu;
  const auto sweep_start = Clock::now();

  auto worker = [&] {
    while (true) {
      const std::size_t i = next.fetch_add(1);
      if (i >= points_.size()) return;
      run_point(i);
      const std::size_t finished = done.fetch_add(1) + 1;
      if (opts_.progress) {
        std::lock_guard<std::mutex> lock(progress_mu);
        std::fprintf(stderr, "\r[%zu/%zu] %-48s %6.1fs ", finished, points_.size(),
                     points_[i].id.c_str(), seconds_since(sweep_start));
        if (finished == points_.size()) std::fputc('\n', stderr);
        std::fflush(stderr);
      }
    }
  };

  if (jobs <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(jobs);
    for (unsigned j = 0; j < jobs; ++j) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }
  return outcomes_;
}

const RunResult& SweepRunner::result(std::size_t index) const {
  const SweepOutcome& o = outcome(index);
  if (!o.ran) {
    throw std::runtime_error("sweep point '" + o.point.id + "' failed: " +
                             (o.error.empty() ? "not run" : o.error));
  }
  return o.result;
}

std::string sweep_to_json(const std::vector<SweepOutcome>& outcomes, unsigned jobs) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value("sndp-sweep-v1");
  w.key("points").begin_array();
  for (const SweepOutcome& o : outcomes) outcome_to_json(w, o);
  w.end_array();
  double wall = 0.0;
  for (const SweepOutcome& o : outcomes) wall += o.wall_seconds;
  w.key("meta").begin_object();
  w.key("jobs").value(jobs);
  w.key("num_points").value(static_cast<std::uint64_t>(outcomes.size()));
  w.key("total_point_wall_seconds").value(wall);
  w.end_object();
  w.end_object();
  return w.str();
}

bool write_sweep_json(const std::string& path, const std::vector<SweepOutcome>& outcomes,
                      unsigned jobs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = sweep_to_json(outcomes, jobs);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

}  // namespace sndp
