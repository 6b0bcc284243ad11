// Ablations of the design choices DESIGN.md calls out:
//  (a) NSU read-only cache (paper §7.1's suggested fix for BPROP),
//  (b) the cache-aware score's hit-push-cost extension (vs the paper's
//      plain Benefit equation) on the cache-sensitive workloads,
//  (c) target-NSU selection policy in the full simulator: the paper's
//      first-access policy vs the buffer-hungry optimal policy (Fig. 5's
//      question, answered with end-to-end runs).
#include <cstdio>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

int main(int argc, char** argv) {
  const BenchOptions opts = parse_bench_options(argc, argv);
  print_header("Ablations: RO-cache, hit-push score term, target policy",
               "§7.1 / §7.3 / Fig. 5");

  BenchSweep sweep(opts, "ablations");

  // (a) NSU read-only cache on BPROP at a mixed ratio: inline instances
  // warm the GPU caches; offloaded instances then push the cached input
  // structure over the GPU links unless the NSU caches it.
  const std::size_t a_base = sweep.add("BPROP/off", paper_config(OffloadMode::kOff), "BPROP");
  SystemConfig ro_on = paper_config(OffloadMode::kStaticRatio, 0.5);
  ro_on.nsu.read_only_cache = true;
  const std::size_t a_with = sweep.add("BPROP/static0.5+ro-cache", ro_on, "BPROP");
  const std::size_t a_without =
      sweep.add("BPROP/static0.5", paper_config(OffloadMode::kStaticRatio, 0.5), "BPROP");

  // (b) Hit-push-cost score extension on STCL/STN under NDP(Dyn)_Cache.
  struct BRow {
    std::size_t base, paper_eq, extended;
  };
  std::vector<BRow> b_rows;
  for (const char* name : {"STN", "STCL"}) {
    SystemConfig plain = paper_config(OffloadMode::kDynamicCache);
    plain.governor.model_hit_push_cost = false;
    b_rows.push_back(BRow{
        sweep.add(std::string(name) + "/off", paper_config(OffloadMode::kOff), name),
        sweep.add(std::string(name) + "/dyn-cache-paper-eq", plain, name),
        sweep.add(std::string(name) + "/dyn-cache",
                  paper_config(OffloadMode::kDynamicCache), name),
    });
  }

  // (c) Target policy in the full simulator (the paper chose first-access
  // to avoid unbounded buffering; the optimal policy holds every packet in
  // the pending buffer until OFLD.END).
  struct CRow {
    std::size_t base, first, optimal;
  };
  std::vector<CRow> c_rows;
  for (const char* name : {"VADD", "BFS", "KMN"}) {
    SystemConfig opt_cfg = paper_config(OffloadMode::kStaticRatio, 0.4);
    opt_cfg.optimal_target_selection = true;
    c_rows.push_back(CRow{
        sweep.add(std::string(name) + "/off", paper_config(OffloadMode::kOff), name),
        sweep.add(std::string(name) + "/static0.4",
                  paper_config(OffloadMode::kStaticRatio, 0.4), name),
        sweep.add(std::string(name) + "/static0.4+optimal-target", opt_cfg, name),
    });
  }

  sweep.run();

  {
    const RunResult& base = sweep.result(a_base);
    const RunResult& with_cache = sweep.result(a_with);
    const RunResult& without = sweep.result(a_without);
    std::printf("\n(a) NSU read-only cache, BPROP @ static ratio 0.5\n");
    std::printf("    without: %.3fx   with 2KB RO cache: %.3fx   (RO hits: %.0f)\n",
                without.speedup_vs(base), with_cache.speedup_vs(base),
                with_cache.stats.get("rocache.hits"));
  }

  std::printf("\n(b) cache-aware score: paper Benefit eq. vs +hit-push-cost extension\n");
  {
    std::size_t i = 0;
    for (const char* name : {"STN", "STCL"}) {
      const RunResult& base = sweep.result(b_rows[i].base);
      const RunResult& paper_eq = sweep.result(b_rows[i].paper_eq);
      const RunResult& extended = sweep.result(b_rows[i].extended);
      ++i;
      std::printf("    %-5s  paper eq: %.3fx   extended: %.3fx\n", name,
                  paper_eq.speedup_vs(base), extended.speedup_vs(base));
    }
  }

  std::printf("\n(c) target-NSU policy (static ratio 0.4)\n");
  {
    std::size_t i = 0;
    for (const char* name : {"VADD", "BFS", "KMN"}) {
      const RunResult& base = sweep.result(c_rows[i].base);
      const RunResult& first = sweep.result(c_rows[i].first);
      const RunResult& optimal = sweep.result(c_rows[i].optimal);
      ++i;
      std::printf(
          "    %-5s  first-access: %.3fx (cube %5.2f MB)   optimal: %.3fx (cube %5.2f MB)\n",
          name, first.speedup_vs(base), first.cube_link_bytes / 1e6,
          optimal.speedup_vs(base), optimal.cube_link_bytes / 1e6);
    }
  }
  std::printf("\npaper: the first-access policy costs at most ~15%% extra traffic (Fig. 5)\n");
  return sweep.exit_status();
}
