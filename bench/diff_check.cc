// Differential correctness oracle driver (see src/ref/diff_oracle.h).
//
// Runs every workload through the scalar reference interpreter and through
// the timing simulator under the standing configuration matrix (baseline,
// static offload ratios, dynamic governor, 1/2/4 stacks), and reports
// whether every final memory image is byte-identical to the reference.
// Exit status 0 iff every (workload, config) point matched.
//
//   diff_check [--scale tiny|small] [--workload NAME]...
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

int main(int argc, char** argv) {
  using namespace sndp;

  ProblemScale scale = ProblemScale::kTiny;
  std::vector<std::string> selected;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--scale" && i + 1 < argc) {
      const std::string s = argv[++i];
      if (!parse_problem_scale(s, &scale) || scale == ProblemScale::kLarge) {
        flag_value_error(argv[0], a, s, "not tiny or small");
      }
    } else if (a == "--workload" && i + 1 < argc) {
      selected.emplace_back(argv[++i]);
      if (!is_workload_name(selected.back())) {
        flag_value_error(argv[0], a, selected.back(), "unknown workload");
      }
    } else {
      std::fprintf(stderr, "usage: %s [--scale tiny|small] [--workload NAME]...\n",
                   argv[0]);
      return 2;
    }
  }
  if (selected.empty()) selected = all_workload_names();

  SystemConfig base = SystemConfig::paper();
  base.governor.epoch_cycles = bench::kScaledEpoch;
  const std::vector<OraclePoint> matrix = oracle_matrix(base);

  bench::print_header("Differential oracle: reference interpreter vs timing simulator",
                      "the §3 semantics-preservation claim");
  std::printf("%zu workloads x %zu configurations, byte-exact comparison\n\n",
              selected.size(), matrix.size());

  bool all_ok = true;
  for (const std::string& name : selected) {
    const DiffReport report = diff_check({name}, scale, matrix);
    std::fputs(to_string(report).c_str(), stdout);
    if (!report.ok()) all_ok = false;
  }
  std::printf("\n%s\n", all_ok ? "ALL MATCH" : "DIVERGENCE DETECTED");
  return all_ok ? 0 : 1;
}
