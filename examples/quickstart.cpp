// Quickstart: run one workload under the baseline and under NDP with the
// dynamic + cache-aware governor, verify functional correctness, and print
// the speedup — the paper's headline mechanism in ~40 lines.
//
//   ./quickstart [workload] [scale]
//   workload: VADD (default) or any Table 1 name; scale: tiny|small|large
#include <cstdio>
#include <string>

#include "sndp.h"

using namespace sndp;

int main(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "VADD";
  if (!is_workload_name(name)) flag_value_error(argv[0], "WORKLOAD", name, "unknown workload");
  const std::string scale_str = argc > 2 ? argv[2] : "small";
  ProblemScale scale = ProblemScale::kSmall;
  if (!parse_problem_scale(scale_str, &scale)) {
    flag_value_error(argv[0], "SCALE", scale_str, "unknown scale");
  }

  // Baseline: the paper's Table 2 GPU, NDP off.
  SystemConfig base_cfg = SystemConfig::paper();
  base_cfg.governor.mode = OffloadMode::kOff;

  // NDP with dynamic offload ratio + cache-locality-aware decisions (§7).
  SystemConfig ndp_cfg = SystemConfig::paper();
  ndp_cfg.governor.mode = OffloadMode::kDynamicCache;

  std::printf("workload: %s (%s)\n", name.c_str(), scale_str.c_str());

  auto wl_base = make_workload(name, scale);
  const RunResult base = Simulator(base_cfg).run(*wl_base);
  std::printf("baseline      : %10llu cycles  ipc=%5.2f  verified=%s\n",
              static_cast<unsigned long long>(base.sm_cycles), base.ipc,
              base.verified ? "yes" : "NO");

  auto wl_ndp = make_workload(name, scale);
  const RunResult ndp = Simulator(ndp_cfg).run(*wl_ndp);
  std::printf("NDP(Dyn)_Cache: %10llu cycles  ipc=%5.2f  verified=%s\n",
              static_cast<unsigned long long>(ndp.sm_cycles), ndp.ipc,
              ndp.verified ? "yes" : "NO");

  std::printf("speedup  : %.3fx\n", ndp.speedup_vs(base));
  std::printf("energy   : baseline %.4f J -> NDP %.4f J (%.1f%%)\n", base.energy.total(),
              ndp.energy.total(), 100.0 * ndp.energy.total() / base.energy.total());
  std::printf("GPU-link traffic: %.1f MB -> %.1f MB; memory-network: %.1f MB\n",
              base.gpu_link_bytes / 1e6, ndp.gpu_link_bytes / 1e6, ndp.cube_link_bytes / 1e6);
  return base.verified && ndp.verified ? 0 : 1;
}
