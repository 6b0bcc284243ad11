// §7.6: performance sensitivity to the NSU clock frequency.  Halving the
// NSU to 175 MHz keeps most of the benefit (paper: +14.1% mean vs +17.9% at
// 350 MHz), supporting cheap, low-power NSU implementations.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Section 7.6: NSU frequency sensitivity (NDP(Dyn)_Cache)", "§7.6");
  std::printf("%-8s %12s %12s %12s %10s %10s\n", "workload", "baseline", "350MHz",
              "175MHz", "350 x", "175 x");

  BenchSweep sweep(opts, "sec76");
  struct Row {
    std::size_t base, mhz350, mhz175;
  };
  std::vector<Row> rows;
  for (const std::string& name : workload_names()) {
    SystemConfig cfg175 = paper_config(OffloadMode::kDynamicCache);
    cfg175.clocks.nsu_khz = 175'000;
    rows.push_back(Row{
        sweep.add(name + "/off", paper_config(OffloadMode::kOff), name),
        sweep.add(name + "/nsu350", paper_config(OffloadMode::kDynamicCache), name),
        sweep.add(name + "/nsu175", cfg175, name),
    });
  }
  sweep.run();

  std::vector<double> full, half;
  std::size_t row_idx = 0;
  for (const std::string& name : workload_names()) {
    const RunResult& base = sweep.result(rows[row_idx].base);
    const RunResult& ndp350 = sweep.result(rows[row_idx].mhz350);
    const RunResult& ndp175 = sweep.result(rows[row_idx].mhz175);
    ++row_idx;

    full.push_back(ndp350.speedup_vs(base));
    half.push_back(ndp175.speedup_vs(base));
    std::printf("%-8s %12llu %12llu %12llu %9.3fx %9.3fx\n", name.c_str(),
                static_cast<unsigned long long>(base.sm_cycles),
                static_cast<unsigned long long>(ndp350.sm_cycles),
                static_cast<unsigned long long>(ndp175.sm_cycles), full.back(), half.back());
  }
  std::printf("%-8s %12s %12s %12s %9.3fx %9.3fx\n", "GMEAN", "", "", "", geomean(full),
              geomean(half));
  std::printf("\npaper: 350 MHz +17.9%% mean; 175 MHz keeps +14.1%% mean\n");
  return sweep.exit_status();
}
