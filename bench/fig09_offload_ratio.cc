// Figure 9: performance as the offload ratio is statically varied
// (0.2..1.0), plus the dynamic offload-ratio controller (Algorithm 1) and
// the cache-locality-aware variant (§7.3).  Speedups over the baseline.
//
// Paper's shape: different workloads peak at different static ratios (no
// single static ratio wins), cache-friendly workloads (BPROP/STN/STCL) are
// hurt by offloading, NDP(Dyn) tracks near the per-workload optimum, and
// NDP(Dyn)_Cache rescues the cache-friendly workloads, lifting the mean
// from +14.9% to +17.9%.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Figure 9: static offload ratios vs dynamic offloading (speedup)",
               "Fig. 9");
  std::printf("%-8s %8s %8s %8s %8s %8s %8s %10s\n", "workload", "NDP(0.2)", "NDP(0.4)",
              "NDP(0.6)", "NDP(0.8)", "NDP(1.0)", "NDP(Dyn)", "NDP(Dyn)$");

  const double ratios[] = {0.2, 0.4, 0.6, 0.8, 1.0};
  BenchSweep sweep(opts, "fig09");
  struct Row {
    std::size_t base;
    std::size_t statics[5];
    std::size_t dyn, dyn_cache;
  };
  std::vector<Row> rows;
  for (const std::string& name : workload_names()) {
    Row row;
    row.base = sweep.add(name + "/off", paper_config(OffloadMode::kOff), name);
    unsigned i = 0;
    for (double r : ratios) {
      row.statics[i++] = sweep.add(name + "/static" + std::to_string(r).substr(0, 3),
                                   paper_config(OffloadMode::kStaticRatio, r), name);
    }
    row.dyn = sweep.add(name + "/dyn", paper_config(OffloadMode::kDynamic), name);
    row.dyn_cache =
        sweep.add(name + "/dyn-cache", paper_config(OffloadMode::kDynamicCache), name);
    rows.push_back(row);
  }
  sweep.run();

  std::vector<std::vector<double>> columns(7);
  std::size_t row_idx = 0;
  for (const std::string& name : workload_names()) {
    const Row& row = rows[row_idx++];
    const RunResult& base = sweep.result(row.base);
    std::printf("%-8s", name.c_str());
    unsigned col = 0;
    for (std::size_t idx : row.statics) {
      const double x = sweep.result(idx).speedup_vs(base);
      columns[col++].push_back(x);
      std::printf(" %7.3fx", x);
    }
    const RunResult& dyn = sweep.result(row.dyn);
    const RunResult& dyn_cache = sweep.result(row.dyn_cache);
    columns[col++].push_back(dyn.speedup_vs(base));
    columns[col++].push_back(dyn_cache.speedup_vs(base));
    std::printf(" %7.3fx %9.3fx\n", dyn.speedup_vs(base), dyn_cache.speedup_vs(base));
  }
  std::printf("%-8s", "GMEAN");
  for (const auto& colv : columns) std::printf(" %7.3fx", geomean(colv));
  std::printf("\n\npaper: NDP(Dyn) +14.9%% mean (up to +66.8%% KMN); NDP(Dyn)_Cache +17.9%% mean\n");
  return sweep.exit_status();
}
