// Bottleneck attribution report (cycle-stack profiler, src/obs/cycle_stack.*).
//
// For every Table-1 workload and operator-library kernel, prints the machine
// top-down cycle tree — every SM / NSU lane / DRAM-vault cycle in exactly one
// bucket — with each leaf's share and its Amdahl what-if bound (the speedup
// ceiling if that leaf alone went to zero).  Two built-in validations:
//
//  * Mode invariance: each workload is re-run with fast-forward disabled;
//    the stacks must be bit-identical in both stepping modes (the profiler
//    inherits the simulator's determinism contract).
//
//  * What-if calibration: the workload whose stack shows the most DRAM
//    dep-wait cycles (dep_dram_local + dep_dram_remote) is re-run under
//    locality placement, which shortens exactly those waits by homing pages
//    near their accessors.  Removing the cycles entirely is the Amdahl
//    ceiling, so the measured speedup of any change that only shortens them
//    must land under the printed bound — a check of the report's bounds
//    against a real config change, not just arithmetic.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

namespace {

bool stacks_equal(const CycleStackSummary& a, const CycleStackSummary& b) {
  return a.sm.rows == b.sm.rows && a.nsu.rows == b.nsu.rows &&
         a.vault.rows == b.vault.rows;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Bottleneck attribution: top-down cycle stacks + what-if bounds",
               "DESIGN.md \"Observability\"");

  BenchSweep sweep(opts, "bottleneck");
  struct Row {
    std::size_t base, noff;
  };
  std::vector<Row> rows;
  for (const std::string& name : all_workload_names()) {
    const SystemConfig cfg = paper_config(OffloadMode::kDynamicCache);
    SystemConfig noff = cfg;
    noff.fast_forward = false;
    rows.push_back(Row{
        sweep.add(name + "/base", cfg, name),
        sweep.add(name + "/no-ff", noff, name),
    });
  }
  sweep.run();

  int rc = 0;
  std::size_t row_idx = 0;
  std::string worst_dram_wl;
  std::uint64_t worst_dram_cycles = 0;
  for (const std::string& name : all_workload_names()) {
    const RunResult& base = sweep.result(rows[row_idx].base);
    const RunResult& noff = sweep.result(rows[row_idx].noff);
    ++row_idx;

    std::printf("== %-8s  %llu SM cycles  (bucket cycles, share, what-if bound) ==\n",
                name.c_str(), static_cast<unsigned long long>(base.sm_cycles));
    std::fputs(format_cycle_tree(base.cycle_stack).c_str(), stdout);
    const bool ff_ok = stacks_equal(base.cycle_stack, noff.cycle_stack);
    std::printf("mode-invariance: ff-off %s\n\n", ff_ok ? "identical" : "MISMATCH");
    if (!ff_ok) rc = 1;

    const std::uint64_t dram_dep =
        base.cycle_stack.sm.bucket_total(
            static_cast<std::size_t>(SmBucket::kDepDramLocal)) +
        base.cycle_stack.sm.bucket_total(
            static_cast<std::size_t>(SmBucket::kDepDramRemote));
    if (dram_dep > worst_dram_cycles) {
      worst_dram_cycles = dram_dep;
      worst_dram_wl = name;
    }
  }

  // What-if calibration: attack the largest DRAM dep-wait leaf with the
  // locality placement policy and compare the measured speedup against the
  // bound the stack predicted.
  if (!worst_dram_wl.empty() && worst_dram_cycles > 0) {
    const RunResult before =
        run_workload(worst_dram_wl, paper_config(OffloadMode::kDynamicCache));
    SystemConfig loc_cfg = paper_config(OffloadMode::kDynamicCache);
    loc_cfg.placement.policy = PlacementPolicyKind::kLocality;
    const RunResult after = run_workload(worst_dram_wl, loc_cfg);
    const std::uint64_t total = before.cycle_stack.sm.total();
    const double bound = whatif_bound(total, worst_dram_cycles);
    const double measured = after.speedup_vs(before);
    std::printf("what-if calibration: DRAM dep-wait (dep_dram_*) on %s\n",
                worst_dram_wl.c_str());
    std::printf("  random placement  : %10llu cycles, dep_dram=%llu -> bound <=%.3fx\n",
                static_cast<unsigned long long>(before.sm_cycles),
                static_cast<unsigned long long>(worst_dram_cycles), bound);
    std::printf("  locality placement: %10llu cycles, measured speedup %.3fx (%s bound)\n",
                static_cast<unsigned long long>(after.sm_cycles), measured,
                measured <= bound ? "within" : "EXCEEDS");
    if (measured > bound) rc = 1;
  } else {
    std::printf("what-if calibration: no workload produced DRAM dep-wait cycles; skipped\n");
  }
  return rc;
}
