// Figure 10: normalized energy for the baselines and NDP mechanisms, broken
// into GPU / NSU / intra-HMC NoC / off-chip interconnect / DRAM.  The paper
// reports NDP(Dyn) saves 7.5% mean energy (up to 37.6% for KMN) and
// NDP(Dyn)_Cache 8.6%, while Baseline_MoreCore is energy-neutral.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Figure 10: normalized energy breakdown", "Fig. 10");
  std::printf("%-8s %-14s %8s %8s %8s %8s %8s %8s\n", "workload", "config", "GPU", "NSU",
              "HMC-NoC", "OffChip", "DRAM", "Total");

  BenchSweep sweep(opts, "fig10");
  struct Row {
    std::size_t base, more, dyn, dyn_cache;
  };
  std::vector<Row> rows;
  for (const std::string& name : workload_names()) {
    SystemConfig mc_cfg = SystemConfig::paper_more_core();
    mc_cfg.governor.mode = OffloadMode::kOff;
    mc_cfg.governor.epoch_cycles = kScaledEpoch;
    rows.push_back(Row{
        sweep.add(name + "/baseline", paper_config(OffloadMode::kOff), name),
        sweep.add(name + "/more-core", mc_cfg, name),
        sweep.add(name + "/dyn", paper_config(OffloadMode::kDynamic), name),
        sweep.add(name + "/dyn-cache", paper_config(OffloadMode::kDynamicCache), name),
    });
  }
  sweep.run();

  std::vector<double> dyn_ratio, cache_ratio, more_ratio;
  std::size_t row_idx = 0;
  for (const std::string& name : workload_names()) {
    const RunResult& base = sweep.result(rows[row_idx].base);
    const RunResult& more = sweep.result(rows[row_idx].more);
    const RunResult& dyn = sweep.result(rows[row_idx].dyn);
    const RunResult& dyn_cache = sweep.result(rows[row_idx].dyn_cache);
    ++row_idx;

    const double norm = base.energy.total();
    auto row = [&](const char* cfg, const RunResult& r) {
      std::printf("%-8s %-14s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f\n", name.c_str(), cfg,
                  r.energy.gpu_j / norm, r.energy.nsu_j / norm, r.energy.hmc_noc_j / norm,
                  r.energy.offchip_j / norm, r.energy.dram_j / norm,
                  r.energy.total() / norm);
    };
    row("Baseline", base);
    row("Base_MoreCore", more);
    row("NDP(Dyn)", dyn);
    row("NDP(Dyn)$", dyn_cache);
    more_ratio.push_back(more.energy.total() / norm);
    dyn_ratio.push_back(dyn.energy.total() / norm);
    cache_ratio.push_back(dyn_cache.energy.total() / norm);
  }
  std::printf("\nGMEAN normalized energy: MoreCore %.3f, NDP(Dyn) %.3f, NDP(Dyn)$ %.3f\n",
              geomean(more_ratio), geomean(dyn_ratio), geomean(cache_ratio));
  std::printf("paper: NDP(Dyn) 0.925 mean (KMN 0.624); NDP(Dyn)_Cache 0.914\n");
  return sweep.exit_status();
}
