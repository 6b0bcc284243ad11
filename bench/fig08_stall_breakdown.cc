// Figure 8: breakdown of instruction no-issue cycles on the GPU
// (ExecUnitBusy / Warp Idle / Dependency Stall), normalized to the
// baseline's total no-issue cycles, for Baseline, Baseline_MoreCore, and
// NaiveNDP.  The paper's signature: baselines are dominated by dependency
// stalls (memory-bound), while naive NDP inflates warp-idle cycles (warps
// parked at OFLD.END waiting for NSU acknowledgments).
#include <cstdio>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

namespace {

struct Breakdown {
  double busy, idle, dep;
  double total() const { return busy + idle + dep; }
};

// Derived from the fine-grained cycle stacks (src/obs/cycle_stack.*): each
// column is the sum of the bucket group that refines it.  The stacks also
// say *why* (which memory level the dep-waits hit, credit-wait vs.
// unit-busy, acks vs. barriers), which `bottleneck_report` drills into.
Breakdown breakdown_of(const RunResult& r) {
  const SmCycleStack& sm = r.cycle_stack.sm;
  return Breakdown{static_cast<double>(sm_group_total(sm, SmBucketGroup::kExecBusy)),
                   static_cast<double>(sm_group_total(sm, SmBucketGroup::kWarpIdle)),
                   static_cast<double>(sm_group_total(sm, SmBucketGroup::kDep))};
}

}  // namespace

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Figure 8: no-issue cycle breakdown (normalized to baseline total)",
               "Fig. 8");
  std::printf("%-8s %-14s %10s %10s %10s %10s\n", "workload", "config", "ExecBusy",
              "WarpIdle", "DepStall", "total");

  BenchSweep sweep(opts, "fig08");
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

  std::size_t row_idx = 0;
  for (const std::string& name : workload_names()) {
    const RunResult& base = sweep.result(rows[row_idx].base);
    const RunResult& more = sweep.result(rows[row_idx].more);
    const RunResult& naive = sweep.result(rows[row_idx].naive);
    ++row_idx;

    const double norm = breakdown_of(base).total();
    auto row = [&](const char* cfg, const RunResult& r) {
      const Breakdown b = breakdown_of(r);
      std::printf("%-8s %-14s %10.3f %10.3f %10.3f %10.3f\n", name.c_str(), cfg,
                  b.busy / norm, b.idle / norm, b.dep / norm, b.total() / norm);
    };
    row("Baseline", base);
    row("Base_MoreCore", more);
    row("NaiveNDP", naive);
  }
  std::printf("\npaper: baselines dominated by dependency stalls; naive NDP shifts the"
              " mix toward warp-idle\n");
  return sweep.exit_status();
}
