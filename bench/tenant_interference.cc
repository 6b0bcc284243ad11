// tenant_interference — multi-tenant serving: slowdown, fairness, tail latency.
//
// Runs each workload of a tenant mix solo, then the whole mix concurrently
// under each requested CTA-arbiter policy, and reports per tenant:
//
//   * slowdown vs solo      (mix finish_cycle / solo sm_cycles),
//   * Jain fairness index   over per-tenant normalized progress,
//   * per-tenant tail latency (p50/p95/p99 per request path class, from the
//     tenant-keyed request-lifecycle histograms).
//
// The default mix is the heterogeneous 3-tenant BFS+VADD+KMN serving mix;
// tenant 0 carries double weight (weighted-share) and the highest priority
// (strict-priority), so the policies visibly diverge.
//
//   tenant_interference
//   tenant_interference -w BFS,VADD,KMN --scale tiny
//   tenant_interference --arbiters rr,strict --stats-json out.json
//
// Options (plus the shared bench flags --stats-json/--progress):
//   -w, --workloads LIST  comma-separated tenant mix       (default BFS,VADD,KMN)
//       --scale S         tiny | small                     (default small)
//       --arbiters LIST   subset of rr,weighted,strict     (default all three)
//       --quota N         per-tenant NSU warp quota        (default 0 = off)
//       --credit-share F  per-tenant NoC credit cap        (default 0 = off)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"

using namespace sndp;
using namespace sndp::bench;

namespace {

struct Options {
  BenchOptions bench;
  std::vector<std::string> workloads{"BFS", "VADD", "KMN"};
  ProblemScale scale = ProblemScale::kSmall;
  std::vector<TenantArbiter> arbiters{TenantArbiter::kRoundRobin,
                                      TenantArbiter::kWeightedShare,
                                      TenantArbiter::kStrictPriority};
  unsigned quota = 0;
  double credit_share = 0.0;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-w W1,W2,...] [--scale tiny|small] "
               "[--arbiters rr,weighted,strict]\n"
               "          [--quota N] [--credit-share F] [--stats-json PATH] "
               "[--progress]\n",
               argv0);
  std::exit(2);
}

std::vector<std::string> split_list(const std::string& list) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = list.find(',', pos);
    const std::string item = list.substr(pos, comma - pos);
    if (!item.empty()) out.push_back(item);
    pos = comma == std::string::npos ? comma : comma + 1;
  }
  return out;
}

const char* arbiter_name(TenantArbiter a) {
  switch (a) {
    case TenantArbiter::kRoundRobin: return "round-robin";
    case TenantArbiter::kWeightedShare: return "weighted-share";
    case TenantArbiter::kStrictPriority: return "strict-priority";
  }
  return "?";
}

Options parse(int argc, char** argv) {
  Options o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-w" || a == "--workloads") {
      o.workloads = split_list(need_value(i));
      for (const std::string& n : o.workloads) {
        if (!is_workload_name(n)) flag_value_error(argv[0], a, n, "unknown workload");
      }
    } else if (a == "--scale") {
      const std::string s = need_value(i);
      if (!parse_problem_scale(s, &o.scale) || o.scale == ProblemScale::kLarge) {
        flag_value_error(argv[0], a, s, "not tiny or small");
      }
    } else if (a == "--arbiters") {
      o.arbiters.clear();
      for (const std::string& n : split_list(need_value(i))) {
        if (n == "rr") o.arbiters.push_back(TenantArbiter::kRoundRobin);
        else if (n == "weighted") o.arbiters.push_back(TenantArbiter::kWeightedShare);
        else if (n == "strict") o.arbiters.push_back(TenantArbiter::kStrictPriority);
        else usage(argv[0]);
      }
    } else if (a == "--quota") {
      o.quota = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a == "--credit-share") {
      o.credit_share = parse_flag(argv[0], a, need_value(i), 0.0, 1.0);
    } else if (a == "--stats-json") {
      o.bench.stats_json = need_value(i);
    } else if (a == "--progress") {
      o.bench.progress = true;
    } else {
      usage(argv[0]);
    }
  }
  if (o.workloads.size() < 2 || o.arbiters.empty()) usage(argv[0]);
  return o;
}

// Jain's fairness index over per-tenant normalized progress x_t =
// solo_cycles / mix_finish_cycle (1.0 = no slowdown).  Equal slowdowns give
// 1.0 regardless of magnitude; starving one of N tenants approaches 1/N.
double jain_index(const std::vector<double>& xs) {
  double sum = 0.0, sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  print_header("Multi-tenant interference: slowdown, fairness, tail latency",
               "the multi-tenant serving extension (DESIGN.md)");

  const SystemConfig base = paper_config(OffloadMode::kDynamicCache);
  BenchSweep sweep(o.bench, "tenant_interference");

  // Solo baselines: each tenant alone on the whole machine.
  std::vector<std::size_t> solos;
  for (const std::string& name : o.workloads) {
    solos.push_back(sweep.add("solo/" + name, base, name, o.scale));
  }

  // The mix under each arbiter.  Tenant 0 is the "latency-sensitive"
  // tenant: double weight under weighted-share, priority 0 (highest) under
  // strict-priority; the rest are best-effort batch tenants.
  std::vector<TenantSpec> mix;
  for (unsigned t = 0; t < o.workloads.size(); ++t) {
    mix.push_back(TenantSpec{o.workloads[t], t == 0 ? 2.0 : 1.0, t});
  }
  struct MixRun {
    TenantArbiter arbiter{};
    std::size_t point = 0;
  };
  std::vector<MixRun> mixes;
  for (const TenantArbiter arb : o.arbiters) {
    SystemConfig cfg = base;
    cfg.tenancy.arbiter = arb;
    cfg.tenancy.nsu_warp_quota = o.quota;
    cfg.tenancy.credit_share = o.credit_share;
    mixes.push_back({arb, sweep.add(std::string("mix/") + arbiter_name(arb), cfg, mix, o.scale)});
  }
  // A point that did not run (its error is printed above), complete or
  // verify makes the exit status 1.
  if (!sweep.run()) return 1;
  int rc = 0;
  auto result = [&](std::size_t point) -> const RunResult& {
    const RunResult& r = sweep.result(point);
    if (!r.completed || !r.verified) rc = 1;
    return r;
  };
  std::vector<Cycle> solo_cycles;
  for (const std::size_t point : solos) solo_cycles.push_back(result(point).sm_cycles);

  // ---- Slowdown + fairness table ----
  std::printf("\nPer-tenant slowdown vs solo (mix finish_cycle / solo sm_cycles)\n");
  std::printf("%-16s", "arbiter");
  for (const std::string& n : o.workloads) std::printf("  %10s", n.c_str());
  std::printf("  %8s\n", "fairness");
  for (const MixRun& m : mixes) {
    const RunResult& r = result(m.point);
    std::printf("%-16s", arbiter_name(m.arbiter));
    std::vector<double> progress;
    for (unsigned t = 0; t < o.workloads.size(); ++t) {
      const double slowdown = solo_cycles[t] == 0
                                  ? 0.0
                                  : static_cast<double>(r.tenants[t].finish_cycle) /
                                        static_cast<double>(solo_cycles[t]);
      progress.push_back(slowdown == 0.0 ? 0.0 : 1.0 / slowdown);
      std::printf("  %9.2fx", slowdown);
    }
    std::printf("  %8.3f\n", jain_index(progress));
  }

  // ---- Per-tenant tail latency ----
  for (const MixRun& m : mixes) {
    const LatencySummary& lat = result(m.point).latency;
    std::printf("\nTail latency under %s (ps)\n", arbiter_name(m.arbiter));
    std::printf("  %-8s %-14s %10s %10s %10s %10s\n", "tenant", "class", "count",
                "p50", "p95", "p99");
    for (unsigned t = 0; t < lat.per_tenant.size(); ++t) {
      for (std::size_t c = 0; c < kNumPathClasses; ++c) {
        const Log2Histogram& h = lat.per_tenant[t][c];
        if (h.count() == 0) continue;
        std::printf("  t%u %-5s %-14s %10llu %10.0f %10.0f %10.0f\n", t,
                    o.workloads[t].c_str(), path_class_name(static_cast<PathClass>(c)),
                    static_cast<unsigned long long>(h.count()), h.percentile(0.50),
                    h.percentile(0.95), h.percentile(0.99));
      }
    }
  }

  return sweep.exit_status(rc);
}
