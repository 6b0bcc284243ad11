// Simulator self-timing harness: how fast does the simulator itself run?
//
// Runs each Table 1 workload baseline (mode=off) and NDP (mode=dyn-cache),
// once with idle fast-forward enabled (the default) and once with naive
// edge-by-edge stepping (`sim.fast_forward = false`), and reports wall time,
// simulated-cycles-per-second, and the fast-forward speedup per row plus the
// geometric-mean speedup across all rows.  The two stepping modes are
// required to be bit-identical (same sm_cycles and runtime_ps); the harness
// checks this on every row and fails loudly on a mismatch.
//
//   perf_throughput [--quick] [--stats-json FILE]
//
//   --quick            tiny-scale three-workload subset (CI smoke)
//   --stats-json FILE  machine-readable results (sndp-bench-v1 JSON),
//                      e.g. BENCH_sim_throughput.json
//
// Wall-clock numbers are machine- and load-dependent, so the JSON records
// the CPU model and hardware thread count.  The speedup column is a ratio on
// the same machine; it also rises whenever naive stepping gets slower, so it
// is not a measure of simulator speed.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "sndp.h"

using namespace sndp;
using namespace sndp::bench;

namespace {

struct Options {
  bool quick = false;
  std::string stats_json;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      o.quick = true;
    } else if (a == "--stats-json" && i + 1 < argc) {
      o.stats_json = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--stats-json FILE]\n", argv[0]);
      std::exit(2);
    }
  }
  return o;
}

struct Row {
  std::string workload;
  std::string mode;
  std::uint64_t sim_cycles = 0;
  TimePs runtime_ps = 0;
  double wall_ff_s = 0.0;
  double wall_naive_s = 0.0;
  bool identical = false;
};

// The first "model name" entry of /proc/cpuinfo, or "unknown".
std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t start = line.find_first_not_of(" \t:", line.find(':'));
    if (start != std::string::npos) return line.substr(start);
  }
  return "unknown";
}

double timed_run(const std::string& workload, ProblemScale scale, const SystemConfig& cfg,
                 RunResult* out) {
  auto wl = make_workload(workload, scale);
  const auto t0 = std::chrono::steady_clock::now();
  *out = Simulator(cfg).run(*wl);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);

  const std::vector<std::string> workloads =
      opt.quick ? std::vector<std::string>{"VADD", "GEMM", "KMN"} : all_workload_names();
  const ProblemScale scale = opt.quick ? ProblemScale::kTiny : ProblemScale::kSmall;
  const std::vector<OffloadMode> modes = {OffloadMode::kOff, OffloadMode::kDynamicCache};

  print_header("Simulator throughput: idle fast-forward vs naive stepping",
               "the simulator itself (no paper figure)");
  std::printf("%-8s %-9s %12s %10s %10s %12s %12s %8s\n", "workload", "mode", "sim_cycles",
              "ff_wall_s", "naive_s", "Mcyc/s(ff)", "Mcyc/s(nv)", "speedup");

  std::vector<Row> rows;
  bool all_identical = true;
  for (const std::string& w : workloads) {
    for (OffloadMode mode : modes) {
      SystemConfig cfg = paper_config(mode);
      cfg.fast_forward = true;
      RunResult ff;
      const double wall_ff = timed_run(w, scale, cfg, &ff);
      cfg.fast_forward = false;
      RunResult naive;
      const double wall_naive = timed_run(w, scale, cfg, &naive);

      Row r;
      r.workload = w;
      r.mode = offload_mode_name(mode);
      r.sim_cycles = ff.sm_cycles;
      r.runtime_ps = ff.runtime_ps;
      r.wall_ff_s = wall_ff;
      r.wall_naive_s = wall_naive;
      r.identical = ff.sm_cycles == naive.sm_cycles && ff.runtime_ps == naive.runtime_ps &&
                    ff.stats.values() == naive.stats.values();
      if (!r.identical) {
        all_identical = false;
        std::fprintf(stderr, "ERROR: %s/%s diverges between stepping modes!\n", w.c_str(),
                     r.mode.c_str());
      }
      const double mcyc_ff = static_cast<double>(r.sim_cycles) / wall_ff / 1e6;
      const double mcyc_nv = static_cast<double>(naive.sm_cycles) / wall_naive / 1e6;
      std::printf("%-8s %-9s %12llu %10.3f %10.3f %12.2f %12.2f %7.2fx\n", w.c_str(),
                  r.mode.c_str(), static_cast<unsigned long long>(r.sim_cycles), wall_ff,
                  wall_naive, mcyc_ff, mcyc_nv, wall_naive / wall_ff);
      rows.push_back(std::move(r));
    }
  }

  std::vector<double> speedups;
  for (const Row& r : rows) speedups.push_back(r.wall_naive_s / r.wall_ff_s);
  const double gm = geomean(speedups);
  std::printf("\ngeomean fast-forward speedup over %zu rows: %.2fx\n", rows.size(), gm);
  if (!all_identical) std::printf("STEPPING MODES DIVERGED — see errors above\n");

  if (!opt.stats_json.empty()) {
    JsonWriter j;
    j.begin_object();
    j.key("schema").value("sndp-bench-v1");
    j.key("bench").value("perf_throughput");
    j.key("quick").value(opt.quick);
    j.key("scale").value(opt.quick ? "tiny" : "small");
    j.key("cpu_model").value(cpu_model());
    j.key("hw_threads").value(std::thread::hardware_concurrency());
    j.key("geomean_speedup").value(gm);
    j.key("all_identical").value(all_identical);
    j.key("rows").begin_array();
    for (const Row& r : rows) {
      j.begin_object();
      j.key("workload").value(r.workload);
      j.key("mode").value(r.mode);
      j.key("sim_cycles").value(static_cast<std::uint64_t>(r.sim_cycles));
      j.key("runtime_ps").value(static_cast<std::uint64_t>(r.runtime_ps));
      j.key("wall_ff_s").value(r.wall_ff_s);
      j.key("wall_naive_s").value(r.wall_naive_s);
      j.key("speedup").value(r.wall_naive_s / r.wall_ff_s);
      j.key("identical").value(r.identical);
      j.end_object();
    }
    j.end_array();
    j.end_object();
    if (!j.write_file(opt.stats_json)) {
      std::fprintf(stderr, "failed to write '%s'\n", opt.stats_json.c_str());
      return 1;
    }
  }
  return all_identical ? 0 : 1;
}
