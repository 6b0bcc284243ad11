// Figure 7: performance of the naive NDP mechanism (offload every block
// instance) against the baseline and Baseline_MoreCore (+8 SMs).  The paper
// finds naive NDP degrades every workload (up to -86% for STN, -52% mean)
// while the extra SMs barely help (<3% except KMN's +25.7%).
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Figure 7: naive NDP vs baselines (speedup over Baseline)", "Fig. 7");
  std::printf("%-8s %12s %16s %12s %12s %12s\n", "workload", "Baseline", "Base_MoreCore",
              "NaiveNDP", "more-core x", "naive x");

  BenchSweep sweep(opts, "fig07");
  struct Row {
    std::size_t base, more, naive;
  };
  std::vector<Row> rows;
  for (const std::string& name : workload_names()) {
    SystemConfig mc_cfg = SystemConfig::paper_more_core();
    mc_cfg.governor.mode = OffloadMode::kOff;
    mc_cfg.governor.epoch_cycles = kScaledEpoch;
    rows.push_back(Row{
        sweep.add(name + "/baseline", paper_config(OffloadMode::kOff), name),
        sweep.add(name + "/more-core", mc_cfg, name),
        sweep.add(name + "/naive", paper_config(OffloadMode::kAlways), name),
    });
  }
  sweep.run();

  std::vector<double> more_core_x, naive_x;
  std::size_t row = 0;
  for (const std::string& name : workload_names()) {
    const RunResult& base = sweep.result(rows[row].base);
    const RunResult& more = sweep.result(rows[row].more);
    const RunResult& naive = sweep.result(rows[row].naive);
    ++row;

    more_core_x.push_back(more.speedup_vs(base));
    naive_x.push_back(naive.speedup_vs(base));
    std::printf("%-8s %12llu %16llu %12llu %11.3fx %11.3fx\n", name.c_str(),
                static_cast<unsigned long long>(base.sm_cycles),
                static_cast<unsigned long long>(more.sm_cycles),
                static_cast<unsigned long long>(naive.sm_cycles), more_core_x.back(),
                naive_x.back());
  }
  std::printf("%-8s %12s %16s %12s %11.3fx %11.3fx\n", "GMEAN", "", "", "",
              geomean(more_core_x), geomean(naive_x));
  std::printf("\npaper: naive NDP degrades all workloads (avg -52%%); MoreCore <3%% except KMN\n");
  return sweep.exit_status();
}
