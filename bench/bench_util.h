// Shared helpers for the per-figure/table benchmark harnesses.
//
// Scaling note (see EXPERIMENTS.md): inputs are scaled down from the paper
// so each simulation finishes in seconds, and the dynamic-offload epoch is
// scaled with them (1,000 SM cycles instead of 30,000) so runs span a
// comparable number of epochs.  The GPU/HMC configuration itself is the
// paper's Table 2.
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sndp.h"

namespace sndp::bench {

inline constexpr Cycle kScaledEpoch = 1000;

inline SystemConfig paper_config(OffloadMode mode, double static_ratio = 1.0) {
  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.mode = mode;
  cfg.governor.static_ratio = static_ratio;
  cfg.governor.epoch_cycles = kScaledEpoch;
  return cfg;
}

// Flags every bench binary accepts (see EXPERIMENTS.md):
//   --jobs N          run the experiment's simulation points on N threads
//                     (0 = all hardware threads; results are identical to
//                     --jobs 1 — determinism is a tested invariant)
//   --stats-json PATH write every point's full RunResult + StatSet as
//                     sndp-sweep-v1 JSON
//   --progress        live progress line on stderr
struct BenchOptions {
  unsigned jobs = 1;
  std::string stats_json;
  bool progress = false;
};

inline BenchOptions parse_bench_options(int argc, char** argv) {
  BenchOptions o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], argv[i]);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--jobs" || a == "-j") {
      o.jobs = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a == "--stats-json") {
      o.stats_json = need_value(i);
    } else if (a == "--progress") {
      o.progress = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--jobs N] [--stats-json PATH] [--progress]\n", argv[0]);
      std::exit(2);
    }
  }
  return o;
}

// Sweep wrapper used by every simulation-driven bench: queue all of the
// experiment's (config, workload) points up front, execute them on the
// shared SweepRunner (parallel under --jobs), then print the tables from
// the collected results.  Output is identical to the old serial loops for
// any job count; the per-run WARNING lines are emitted in submission order
// right after the sweep finishes.
class BenchSweep {
 public:
  BenchSweep(const BenchOptions& opts, std::string bench_name)
      : opts_(opts),
        bench_name_(std::move(bench_name)),
        runner_({.jobs = opts.jobs, .point_timeout_s = 0.0, .progress = opts.progress}) {}

  std::size_t add(const std::string& id, const SystemConfig& cfg, const std::string& workload,
                  ProblemScale scale = ProblemScale::kSmall) {
    return add(id, cfg, std::vector<TenantSpec>{{workload}}, scale);
  }

  // A concurrent tenant mix as one point (a one-entry list is a solo run).
  std::size_t add(const std::string& id, const SystemConfig& cfg,
                  std::vector<TenantSpec> tenants, ProblemScale scale = ProblemScale::kSmall) {
    SweepPoint p;
    p.id = bench_name_ + "/" + id;
    p.tenants = std::move(tenants);
    p.scale = scale;
    p.cfg = cfg;
    return runner_.add(std::move(p));
  }

  // Runs every queued point, replays the classic WARNING lines, and writes
  // the stats JSON when requested.  False when some point did not run (its
  // result() would throw).  A JSON write failure is reported here and turns
  // exit_status() to 1.
  bool run() {
    runner_.run();
    bool all_ran = true;
    for (const SweepOutcome& o : runner_.outcomes()) {
      if (!o.ran) {
        std::fprintf(stderr, "WARNING: %s failed: %s\n", o.point.id.c_str(),
                     o.error.c_str());
        all_ran = false;
        continue;
      }
      if (!o.result.verified) {
        std::fprintf(stderr, "WARNING: %s failed functional verification!\n",
                     o.point.workload().c_str());
      }
      if (!o.result.completed) {
        std::fprintf(stderr, "WARNING: %s hit the simulated-time limit!\n",
                     o.point.workload().c_str());
      }
    }
    if (!opts_.stats_json.empty() &&
        !write_sweep_json(opts_.stats_json, runner_.outcomes(), opts_.jobs)) {
      std::fprintf(stderr, "failed to write stats JSON to '%s'\n", opts_.stats_json.c_str());
      stats_json_ok_ = false;
    }
    return all_ran;
  }

  const RunResult& result(std::size_t index) const { return runner_.result(index); }

  // The bench's exit status given its own result `rc`: 1 when the stats JSON
  // could not be written.
  int exit_status(int rc = 0) const { return stats_json_ok_ ? rc : 1; }

 private:
  BenchOptions opts_;
  std::string bench_name_;
  SweepRunner runner_;
  bool stats_json_ok_ = true;
};

// Writes a hand-built JSON document for the benches that do not run the
// simulator (configuration/overhead tables, Monte Carlo sweeps).  False,
// with a diagnostic, when the requested file could not be written.
inline bool write_bench_json(const BenchOptions& opts, const JsonWriter& w) {
  if (opts.stats_json.empty() || w.write_file(opts.stats_json)) return true;
  std::fprintf(stderr, "failed to write stats JSON to '%s'\n", opts.stats_json.c_str());
  return false;
}

inline RunResult run_workload(const std::string& name, const SystemConfig& cfg,
                              ProblemScale scale = ProblemScale::kSmall) {
  auto wl = make_workload(name, scale);
  RunResult r = Simulator(cfg).run(*wl);
  if (!r.verified) {
    std::fprintf(stderr, "WARNING: %s failed functional verification!\n", name.c_str());
  }
  if (!r.completed) {
    std::fprintf(stderr, "WARNING: %s hit the simulated-time limit!\n", name.c_str());
  }
  return r;
}

// Geometric mean of a list of per-workload ratios.
inline double geomean(const std::vector<double>& xs) {
  double log_sum = 0.0;
  for (double x : xs) log_sum += std::log(x);
  return xs.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(xs.size()));
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("(reproduces %s; shapes, not absolute numbers — see EXPERIMENTS.md)\n",
              paper_ref);
  std::printf("================================================================\n");
}

}  // namespace sndp::bench
