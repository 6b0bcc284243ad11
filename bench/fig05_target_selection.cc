// Figure 5: impact of the target-NSU selection policy on off-chip memory
// traffic as the number of memory accesses in an offload block grows.
// Compares "first HMC accessed" (the paper's policy, bounded hardware)
// against the optimal all-access majority vote, on random placements over
// 8 HMCs.  The paper reports the first-access policy costs at most ~15%
// extra traffic, converging as accesses grow.
#include <cstdio>

#include "bench_util.h"

using namespace sndp;

int main(int argc, char** argv) {
  // Monte Carlo, not a Simulator sweep: runs in milliseconds, so --jobs is
  // accepted for interface uniformity but the trials stay serial.
  const bench::BenchOptions opts = bench::parse_bench_options(argc, argv);
  bench::print_header("Figure 5: target NSU selection policy vs off-chip traffic",
                      "Fig. 5");
  constexpr unsigned kHmcs = 8;
  constexpr unsigned kTrials = 100000;
  std::printf("%10s %16s %16s %10s\n", "#accesses", "first-HMC", "optimal-HMC", "overhead");
  double max_overhead = 0.0;
  JsonWriter json;
  json.begin_object();
  json.key("schema").value("sndp-table-v1");
  json.key("bench").value("fig05");
  json.key("rows").begin_array();
  for (unsigned n : {1u, 2u, 4u, 8u, 12u, 16u, 24u, 32u, 48u, 64u}) {
    Rng rng_a(42), rng_b(42);
    const auto first =
        simulate_target_selection(kHmcs, n, TargetPolicy::kFirstAccess, kTrials, rng_a);
    const auto opt =
        simulate_target_selection(kHmcs, n, TargetPolicy::kOptimal, kTrials, rng_b);
    const double overhead =
        opt.mean_traffic > 0 ? first.mean_traffic / opt.mean_traffic - 1.0 : 0.0;
    max_overhead = std::max(max_overhead, overhead);
    std::printf("%10u %16.4f %16.4f %9.1f%%\n", n, first.mean_traffic, opt.mean_traffic,
                100.0 * overhead);
    json.begin_object();
    json.key("accesses").value(n);
    json.key("first_hmc_traffic").value(first.mean_traffic);
    json.key("optimal_hmc_traffic").value(opt.mean_traffic);
    json.key("overhead").value(overhead);
    json.end_object();
  }
  json.end_array();
  json.key("max_overhead").value(max_overhead);
  json.end_object();
  const bool json_ok = bench::write_bench_json(opts, json);
  std::printf("\nmax traffic overhead of the first-HMC policy: %.1f%% "
              "(paper: at most ~15%%)\n", 100.0 * max_overhead);
  return json_ok ? 0 : 1;
}
