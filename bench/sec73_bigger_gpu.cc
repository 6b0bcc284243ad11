// §7.3 (last paragraph): sensitivity to a more powerful GPU — with the
// number of compute units doubled in all configurations, the proposed
// offloading still speeds the system up (+11.6% mean in the paper): the
// off-chip links remain the bottleneck.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Section 7.3: doubled GPU compute units", "§7.3");
  std::printf("%-8s %14s %14s %10s\n", "workload", "2x-SM base", "2x-SM NDP$", "speedup");

  BenchSweep sweep(opts, "sec73");
  struct Row {
    std::size_t base, ndp;
  };
  std::vector<Row> rows;
  for (const std::string& name : workload_names()) {
    SystemConfig base_cfg = SystemConfig::paper_2x();
    base_cfg.governor.mode = OffloadMode::kOff;
    base_cfg.governor.epoch_cycles = kScaledEpoch;

    SystemConfig ndp_cfg = SystemConfig::paper_2x();
    ndp_cfg.governor.mode = OffloadMode::kDynamicCache;
    ndp_cfg.governor.epoch_cycles = kScaledEpoch;

    rows.push_back(Row{sweep.add(name + "/2x-off", base_cfg, name),
                       sweep.add(name + "/2x-dyn-cache", ndp_cfg, name)});
  }
  sweep.run();

  std::vector<double> xs;
  std::size_t row_idx = 0;
  for (const std::string& name : workload_names()) {
    const RunResult& base = sweep.result(rows[row_idx].base);
    const RunResult& ndp = sweep.result(rows[row_idx].ndp);
    ++row_idx;

    xs.push_back(ndp.speedup_vs(base));
    std::printf("%-8s %14llu %14llu %9.3fx\n", name.c_str(),
                static_cast<unsigned long long>(base.sm_cycles),
                static_cast<unsigned long long>(ndp.sm_cycles), xs.back());
  }
  std::printf("%-8s %14s %14s %9.3fx\n", "GMEAN", "", "", geomean(xs));
  std::printf("\npaper: +11.6%% mean speedup with doubled compute units\n");
  return sweep.exit_status();
}
