// §4.2: cache-coherence overhead of the NDP write path — every NSU DRAM
// write sends an invalidation to the GPU caches.  The paper measures the
// additional off-chip traffic at up to 1.42% (0.38% mean).
#include <cstdio>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Section 4.2: cache-invalidation traffic overhead", "§4.2");
  std::printf("%-8s %14s %14s %10s\n", "workload", "inval bytes", "offchip bytes",
              "overhead");
  BenchSweep sweep(opts, "sec42");
  std::vector<std::size_t> points;
  for (const std::string& name : workload_names()) {
    points.push_back(sweep.add(name + "/dyn-cache",
                               paper_config(OffloadMode::kDynamicCache), name));
  }
  sweep.run();

  std::vector<double> overheads;
  std::size_t point_idx = 0;
  for (const std::string& name : workload_names()) {
    const RunResult& r = sweep.result(points[point_idx++]);
    const double total = static_cast<double>(r.counters.offchip_bytes);
    const double inval = static_cast<double>(r.inval_bytes);
    const double pct = total > 0 ? 100.0 * inval / total : 0.0;
    overheads.push_back(pct);
    std::printf("%-8s %14.0f %14.0f %9.2f%%\n", name.c_str(), inval, total, pct);
  }
  double avg = 0.0, mx = 0.0;
  for (double v : overheads) {
    avg += v;
    mx = std::max(mx, v);
  }
  std::printf("\ninvalidation traffic: max %.2f%%, mean %.2f%% of off-chip bytes\n", mx,
              avg / overheads.size());
  std::printf("paper: up to 1.42%%, 0.38%% mean\n");
  return sweep.exit_status();
}
