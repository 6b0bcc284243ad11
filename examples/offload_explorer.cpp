// Offload-ratio explorer: sweeps the static offload ratio for one workload
// (paper §7.1, Fig. 9) and compares against the dynamic and cache-aware
// governors — a direct view of why no single static ratio wins everywhere.
//
//   ./offload_explorer [workload] [scale] [epoch_cycles]
#include <algorithm>
#include <cstdio>
#include <string>

#include "sndp.h"

using namespace sndp;

namespace {

RunResult run_mode(const std::string& name, ProblemScale scale, OffloadMode mode,
                   double ratio, Cycle epoch) {
  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.mode = mode;
  cfg.governor.static_ratio = ratio;
  cfg.governor.epoch_cycles = epoch;
  auto wl = make_workload(name, scale);
  return Simulator(cfg).run(*wl);
}

}  // namespace

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "VADD";
  if (!is_workload_name(name)) flag_value_error(argv[0], "WORKLOAD", name, "unknown workload");
  const std::string scale_str = argc > 2 ? argv[2] : "small";
  ProblemScale scale = ProblemScale::kSmall;
  if (!parse_problem_scale(scale_str, &scale)) {
    flag_value_error(argv[0], "SCALE", scale_str, "unknown scale");
  }
  const Cycle epoch = argc > 3 ? parse_flag(argv[0], "EPOCH", argv[3], Cycle{1}) : 2000;

  const RunResult base = run_mode(name, scale, OffloadMode::kOff, 0.0, epoch);
  std::printf("%s baseline: %llu cycles (verified=%s)\n", name.c_str(),
              static_cast<unsigned long long>(base.sm_cycles), base.verified ? "yes" : "NO");
  std::printf("%-12s %10s %8s %9s %s\n", "config", "cycles", "speedup", "offload%", "verified");

  for (double r = 0.2; r <= 1.001; r += 0.2) {
    const RunResult res = run_mode(name, scale, OffloadMode::kStaticRatio, r, epoch);
    std::printf("static %.1f   %10llu %7.3fx %8.1f%% %s\n", r,
                static_cast<unsigned long long>(res.sm_cycles), res.speedup_vs(base),
                100.0 * res.stats.get("governor.offloads") /
                    std::max(1.0, res.stats.get("governor.decisions")),
                res.verified ? "yes" : "NO");
  }
  for (auto [mode, label] : {std::pair{OffloadMode::kDynamic, "NDP(Dyn)"},
                             std::pair{OffloadMode::kDynamicCache, "NDP(Dyn)$"}}) {
    const RunResult res = run_mode(name, scale, mode, 0.0, epoch);
    std::printf("%-11s %10llu %7.3fx %8.1f%% %s (final ratio %.2f)\n", label,
                static_cast<unsigned long long>(res.sm_cycles), res.speedup_vs(base),
                100.0 * res.stats.get("governor.offloads") /
                    std::max(1.0, res.stats.get("governor.decisions")),
                res.verified ? "yes" : "NO", res.stats.get("governor.final_ratio"));
  }
  return 0;
}
