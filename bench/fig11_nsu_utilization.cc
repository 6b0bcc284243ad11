// Figure 11: NSU instruction-cache utilization and average warp occupancy
// under NDP(Dyn)_Cache.  The paper reports ~23.7% mean I-cache utilization
// (of 4 KB) and at most 39.3% / 22.1% mean warp occupancy — evidence the
// NSU can be built small and cheap.
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Figure 11: NSU I-cache utilization and warp occupancy", "Fig. 11");
  std::printf("%-8s %18s %18s\n", "workload", "icache util", "warp occupancy");

  BenchSweep sweep(opts, "fig11");
  std::vector<std::size_t> points;
  for (const std::string& name : workload_names()) {
    points.push_back(sweep.add(name + "/dyn-cache",
                               paper_config(OffloadMode::kDynamicCache), name));
  }
  sweep.run();

  std::vector<double> icache, occ;
  std::size_t point_idx = 0;
  for (const std::string& name : workload_names()) {
    const RunResult& r = sweep.result(points[point_idx++]);
    // Aggregate over the 8 NSUs.
    double iu = 0.0, oc = 0.0;
    unsigned n = 0;
    for (unsigned h = 0;; ++h) {
      const std::string prefix = "hmc" + std::to_string(h) + ".nsu";
      if (!r.stats.contains(prefix + ".avg_occupancy")) break;
      iu += r.stats.get(prefix + ".icache_utilization");
      oc += r.stats.get(prefix + ".avg_occupancy");
      ++n;
    }
    iu /= n;
    oc /= n;
    icache.push_back(iu);
    occ.push_back(oc);
    std::printf("%-8s %17.1f%% %17.1f%%\n", name.c_str(), 100.0 * iu, 100.0 * oc);
  }
  double iu_avg = 0.0, oc_avg = 0.0;
  for (double v : icache) iu_avg += v;
  for (double v : occ) oc_avg += v;
  std::printf("%-8s %17.1f%% %17.1f%%\n", "AVG", 100.0 * iu_avg / icache.size(),
              100.0 * oc_avg / occ.size());
  std::printf("\npaper: 23.7%% mean I-cache utilization; warp occupancy <= 39.3%%,"
              " 22.1%% mean\n");
  return sweep.exit_status();
}
