// sndpsim — command-line front end for the simulator.
//
//   sndpsim --workload VADD --mode dyn-cache --scale small
//   sndpsim -w KMN -m static -r 0.6 --sms 128 --stats
//   sndpsim -w BFS -m always --nsu-mhz 175 --csv results.csv
//
// Options:
//   -w, --workload NAME     Table 1 workload or operator-library generator
//                           (GEMM/SPMV/REDUCE/ATTN; default VADD); "all"
//                           runs every kernel and operator.  An unknown name
//                           exits 2.
//   -s, --scale S           tiny | small | large          (default small)
//   -m, --mode M            off | always | static | dyn | dyn-cache (default dyn-cache)
//   -r, --ratio R           static offload ratio           (default 0.5)
//   -e, --epoch N           dynamic epoch length in SM cycles (default 1000)
//       --sms N             number of SMs                  (default 64)
//       --hmcs N            number of HMCs, 1-255          (default 8)
//       --nsu-mhz N         NSU clock in MHz               (default 350)
//       --seed N            page-placement seed
//       --ro-cache          enable the NSU read-only cache (§7.1)
//       --optimal-target    all-access target selection ablation
//       --stats             dump the full statistics set
//       --csv FILE          append one CSV row per run to FILE
//   -j, --jobs N            run independent simulations on N threads
//                           (0 = all hardware threads; output is identical
//                           to a serial run — determinism is tested)
//       --stats-json FILE   write full per-run stats as sndp-sweep-v1 JSON
//       --timeout SECONDS   abort any single run past this wall-clock budget
//       --no-ff             disable idle fast-forward (naive edge-by-edge
//                           stepping; results are bit-identical, only slower)
//       --profile-csv FILE  write the per-tenant cycle stacks as CSV
//                           (component,row,bucket,cycles; "-" = stdout; with
//                           -w all the workload name is appended like
//                           --epoch-csv)
//       --latency-sample N  sample every Nth tracked request per type for a
//                           full per-hop span (default 64; 0 = histograms
//                           only, no spans)
//       --epoch-csv FILE    write the per-epoch metrics timeline as CSV
//                           ("-" = stdout; with -w all, the workload name is
//                           appended to FILE before its extension)
//       --trace FILE        write a Chrome-trace (Perfetto) JSON, including
//                           per-epoch governor counter series and sampled
//                           request-latency spans as flow events
//       --tenants SPEC      multi-tenant serving: run SPEC's workloads as
//                           concurrent kernel streams in disjoint address
//                           slices of one memory.  SPEC is a comma list of
//                           NAME[:WEIGHT[:PRIORITY]], e.g.
//                           "BFS:2:0,VADD,KMN" (weight default 1, priority
//                           default 0 = highest).  Incompatible with -w
//                           (both exit 2).  The mix is one run like any
//                           other: --timeout, --csv, --epoch-csv,
//                           --profile-csv and --stats-json apply to it.
//       --arbiter A         CTA arbiter for --tenants:
//                           rr | weighted | strict         (default rr)
//       --nsu-quota N       per-tenant NSU warp-slot quota (0 = off)
//       --credit-share F    per-tenant NoC credit cap as a fraction of each
//                           pool (0 = off)
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sndp.h"

using namespace sndp;

namespace {

struct Options {
  std::string workload;  // empty: VADD, unless --tenants names the run
  ProblemScale scale = ProblemScale::kSmall;
  OffloadMode mode = OffloadMode::kDynamicCache;
  double ratio = 0.5;
  Cycle epoch = 1000;
  unsigned sms = 64;
  unsigned hmcs = 8;
  unsigned nsu_mhz = 350;
  std::uint64_t seed = 0x5EED;
  bool ro_cache = false;
  bool optimal_target = false;
  bool dump_stats = false;
  std::string csv;
  unsigned jobs = 1;
  std::string stats_json;
  double timeout_s = 0.0;
  bool fast_forward = true;
  std::string profile_csv;
  unsigned latency_sample = 64;
  std::string epoch_csv;
  std::string trace_path;
  std::vector<TenantSpec> tenants;  // non-empty: multi-tenant serving
  TenantArbiter arbiter = TenantArbiter::kRoundRobin;
  unsigned nsu_quota = 0;
  double credit_share = 0.0;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-w WORKLOAD|all] [-s tiny|small|large] "
               "[-m off|always|static|dyn|dyn-cache] [-r RATIO] [-e EPOCH]\n"
               "          [--sms N] [--hmcs N] [--nsu-mhz N] [--seed N] "
               "[--ro-cache] [--optimal-target] [--stats] [--csv FILE]\n"
               "          [-j JOBS] [--stats-json FILE] [--timeout SECONDS] [--no-ff]\n"
               "          [--profile-csv FILE] [--latency-sample N]\n"
               "          [--epoch-csv FILE] [--trace FILE]\n"
               "          [--tenants NAME[:W[:P]],... [--arbiter rr|weighted|strict]\n"
               "           [--nsu-quota N] [--credit-share F]]\n",
               argv0);
  std::exit(2);
}

// With -w all, one CSV per workload: insert the name before the extension.
std::string epoch_csv_path(const std::string& base, const std::string& name, bool multi) {
  if (!multi || base.empty() || base == "-") return base;
  const std::size_t dot = base.find_last_of('.');
  const std::size_t slash = base.find_last_of('/');
  if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) {
    return base + "-" + name;
  }
  return base.substr(0, dot) + "-" + name + base.substr(dot);
}

// Cycle-stack dump: one CSV row per (component, tenant row, bucket).
bool write_profile_csv(const std::string& path, const CycleStackSummary& cs) {
  std::FILE* out = (path.empty() || path == "-") ? stdout : std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "component,row,bucket,cycles\n");
  auto row_name = [&](unsigned row) {
    std::string name = "t";
    name += std::to_string(row);
    return row == cs.tenants ? std::string("shared") : name;
  };
  for (unsigned row = 0; row < cs.sm.rows.size(); ++row) {
    for (std::size_t b = 0; b < kNumSmBuckets; ++b) {
      std::fprintf(out, "sm,%s,%s,%llu\n", row_name(row).c_str(),
                   sm_bucket_name(static_cast<SmBucket>(b)),
                   static_cast<unsigned long long>(cs.sm.rows[row][b]));
    }
  }
  for (unsigned row = 0; row < cs.nsu.rows.size(); ++row) {
    for (std::size_t b = 0; b < kNumNsuBuckets; ++b) {
      std::fprintf(out, "nsu,%s,%s,%llu\n", row_name(row).c_str(),
                   nsu_bucket_name(static_cast<NsuBucket>(b)),
                   static_cast<unsigned long long>(cs.nsu.rows[row][b]));
    }
  }
  for (unsigned row = 0; row < cs.vault.rows.size(); ++row) {
    for (std::size_t b = 0; b < kNumVaultBuckets; ++b) {
      std::fprintf(out, "vault,%s,%s,%llu\n", row_name(row).c_str(),
                   vault_bucket_name(static_cast<VaultBucket>(b)),
                   static_cast<unsigned long long>(cs.vault.rows[row][b]));
    }
  }
  const bool ok = std::ferror(out) == 0;
  if (out != stdout) std::fclose(out);
  return ok;
}

// Parses a --tenants SPEC (comma list of NAME[:WEIGHT[:PRIORITY]]); an
// unknown name, a bad number or an empty list exits 2.
std::vector<TenantSpec> parse_tenants(const char* prog, const std::string& spec) {
  std::vector<TenantSpec> specs;
  std::size_t pos = 0;
  while (pos != std::string::npos) {
    const std::size_t comma = spec.find(',', pos);
    std::string entry = spec.substr(pos, comma - pos);
    pos = comma == std::string::npos ? comma : comma + 1;
    if (entry.empty()) continue;
    TenantSpec s;
    const std::size_t c1 = entry.find(':');
    s.name = entry.substr(0, c1);
    if (!is_workload_name(s.name)) flag_value_error(prog, "--tenants", s.name, "unknown workload");
    if (c1 != std::string::npos) {
      const std::size_t c2 = entry.find(':', c1 + 1);
      s.weight = parse_flag(prog, "--tenants weight", entry.substr(c1 + 1, c2 - c1 - 1), 0.0);
      if (c2 != std::string::npos) {
        s.priority = parse_flag<unsigned>(prog, "--tenants priority", entry.substr(c2 + 1));
      }
    }
    specs.push_back(std::move(s));
  }
  if (specs.empty()) {
    std::fprintf(stderr, "--tenants: empty spec\n");
    std::exit(2);
  }
  return specs;
}

Options parse(int argc, char** argv) {
  Options o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-w" || a == "--workload") {
      o.workload = need_value(i);
      if (o.workload != "all" && !is_workload_name(o.workload)) {
        flag_value_error(argv[0], a, o.workload, "unknown workload");
      }
    } else if (a == "-s" || a == "--scale") {
      const std::string s = need_value(i);
      if (!parse_problem_scale(s, &o.scale)) flag_value_error(argv[0], a, s, "unknown scale");
    } else if (a == "-m" || a == "--mode") {
      const std::string m = need_value(i);
      if (!parse_offload_mode(m, &o.mode)) flag_value_error(argv[0], a, m, "unknown mode");
    } else if (a == "-r" || a == "--ratio") {
      o.ratio = parse_flag(argv[0], a, need_value(i), 0.0, 1.0);
    } else if (a == "-e" || a == "--epoch") {
      o.epoch = parse_flag(argv[0], a, need_value(i), Cycle{1});
    } else if (a == "--sms") {
      o.sms = parse_flag(argv[0], a, need_value(i), 1u);
    } else if (a == "--hmcs") {
      o.hmcs = parse_flag(argv[0], a, need_value(i), 1u, 255u);
    } else if (a == "--nsu-mhz") {
      o.nsu_mhz = parse_flag(argv[0], a, need_value(i), 1u);
    } else if (a == "--seed") {
      o.seed = parse_flag(argv[0], a, need_value(i), std::uint64_t{0});
    } else if (a == "--ro-cache") {
      o.ro_cache = true;
    } else if (a == "--optimal-target") {
      o.optimal_target = true;
    } else if (a == "--stats") {
      o.dump_stats = true;
    } else if (a == "--csv") {
      o.csv = need_value(i);
    } else if (a == "-j" || a == "--jobs") {
      o.jobs = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a == "--stats-json") {
      o.stats_json = need_value(i);
    } else if (a == "--timeout") {
      o.timeout_s = parse_flag(argv[0], a, need_value(i), 0.0);
    } else if (a == "--no-ff") {
      o.fast_forward = false;
    } else if (a == "--profile-csv") {
      o.profile_csv = need_value(i);
    } else if (a.rfind("--profile-csv=", 0) == 0) {
      o.profile_csv = a.substr(14);
    } else if (a == "--latency-sample") {
      o.latency_sample = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a.rfind("--latency-sample=", 0) == 0) {
      o.latency_sample = parse_flag<unsigned>(argv[0], "--latency-sample", a.substr(17));
    } else if (a == "--epoch-csv") {
      o.epoch_csv = need_value(i);
    } else if (a.rfind("--epoch-csv=", 0) == 0) {
      o.epoch_csv = a.substr(12);
    } else if (a == "--trace") {
      o.trace_path = need_value(i);
    } else if (a == "--tenants") {
      o.tenants = parse_tenants(argv[0], need_value(i));
    } else if (a.rfind("--tenants=", 0) == 0) {
      o.tenants = parse_tenants(argv[0], a.substr(10));
    } else if (a == "--arbiter") {
      const std::string arb = need_value(i);
      if (arb == "rr") o.arbiter = TenantArbiter::kRoundRobin;
      else if (arb == "weighted") o.arbiter = TenantArbiter::kWeightedShare;
      else if (arb == "strict") o.arbiter = TenantArbiter::kStrictPriority;
      else usage(argv[0]);
    } else if (a == "--nsu-quota") {
      o.nsu_quota = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a == "--credit-share") {
      o.credit_share = parse_flag(argv[0], a, need_value(i), 0.0, 1.0);
    } else {
      usage(argv[0]);
    }
  }
  if (!o.workload.empty() && !o.tenants.empty()) usage(argv[0]);
  if (o.workload.empty()) o.workload = "VADD";
  return o;
}

SystemConfig config_of(const Options& o) {
  SystemConfig cfg = SystemConfig::paper();
  cfg.num_sms = o.sms;
  cfg.num_hmcs = o.hmcs;
  cfg.clocks.nsu_khz = static_cast<std::uint64_t>(o.nsu_mhz) * 1000;
  cfg.governor.mode = o.mode;
  cfg.governor.static_ratio = o.ratio;
  cfg.governor.epoch_cycles = o.epoch;
  cfg.placement_seed = o.seed;
  cfg.nsu.read_only_cache = o.ro_cache;
  cfg.optimal_target_selection = o.optimal_target;
  cfg.fast_forward = o.fast_forward;
  cfg.latency_sample = o.latency_sample;
  cfg.trace_path = o.trace_path;
  cfg.tenancy.arbiter = o.arbiter;
  cfg.tenancy.nsu_warp_quota = o.nsu_quota;
  cfg.tenancy.credit_share = o.credit_share;
  return cfg;
}

// One run's report: the headline line, one line per tenant of a mix, the
// stats dump and the CSV row.
int report_one(const Options& o, const SweepPoint& p, const RunResult& r) {
  const std::string name = p.workload();
  std::printf("%-8s mode=%-9s cycles=%-10llu ipc=%-6.2f verified=%-3s "
              "gpu-link=%.2fMB network=%.2fMB energy=%.4fJ\n",
              name.c_str(), offload_mode_name(o.mode),
              static_cast<unsigned long long>(r.sm_cycles), r.ipc,
              r.verified ? "yes" : "NO", r.gpu_link_bytes / 1e6, r.cube_link_bytes / 1e6,
              r.energy.total());
  for (std::size_t t = 0; t < r.tenants.size(); ++t) {
    const TenantResult& tr = r.tenants[t];
    std::printf("  t%zu %-8s weight=%-4.1f prio=%-2u finish=%-10llu issued=%-10llu "
                "l2(h/m/g)=%llu/%llu/%llu verified=%s\n",
                t, tr.name.c_str(), p.tenants[t].weight, p.tenants[t].priority,
                static_cast<unsigned long long>(tr.finish_cycle),
                static_cast<unsigned long long>(tr.issued),
                static_cast<unsigned long long>(tr.l2_hits),
                static_cast<unsigned long long>(tr.l2_misses),
                static_cast<unsigned long long>(tr.l2_merged),
                tr.verified ? "yes" : "NO");
  }
  if (o.dump_stats) {
    std::fputs(r.stats.to_string().c_str(), stdout);
    std::printf("  request latency by path class:\n");
    print_latency_table(r.latency, "    ");
  }
  if (!o.csv.empty()) {
    std::ofstream out(o.csv, std::ios::app);
    out << name << ',' << offload_mode_name(o.mode) << ',' << o.ratio << ',' << r.sm_cycles << ','
        << r.ipc << ',' << (r.verified ? 1 : 0) << ',' << r.gpu_link_bytes << ','
        << r.cube_link_bytes << ',' << r.energy.total() << '\n';
  }
  return r.verified && r.completed ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  // All runs — one kernel, `-w all`, or a --tenants mix — go through the
  // sweep runner as tenant lists, so -j parallelism, per-run wall-clock
  // timeouts, and the CSV and JSON exports behave identically for each.
  std::vector<std::vector<TenantSpec>> runs;
  if (!o.tenants.empty()) {
    runs.push_back(o.tenants);
  } else if (o.workload == "all") {
    for (const std::string& name : all_workload_names()) runs.push_back({{name}});
  } else {
    runs.push_back({{o.workload}});
  }

  SweepRunner runner({.jobs = o.jobs, .point_timeout_s = o.timeout_s, .progress = false});
  for (std::vector<TenantSpec>& tenants : runs) {
    SweepPoint p;
    p.tenants = std::move(tenants);
    p.id = p.workload() + "/" + offload_mode_name(o.mode);
    p.scale = o.scale;
    p.cfg = config_of(o);
    runner.add(std::move(p));
  }
  runner.run();

  const bool multi = runner.size() > 1;
  int rc = 0;
  for (const SweepOutcome& out : runner.outcomes()) {
    const std::string name = out.point.workload();
    if (!out.ran) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   out.error.empty() ? "did not run" : out.error.c_str());
      rc = 1;
      continue;
    }
    if (out.timed_out) {
      std::fprintf(stderr, "%s: aborted after wall-clock timeout (%.1fs)\n", name.c_str(),
                   out.wall_seconds);
    }
    rc |= report_one(o, out.point, out.result);
    if (!o.epoch_csv.empty()) {
      const std::string path = epoch_csv_path(o.epoch_csv, name, multi);
      if (!write_epoch_csv(path, out.result.timeline)) {
        std::fprintf(stderr, "failed to write epoch CSV to '%s'\n", path.c_str());
        rc = 1;
      }
    }
    if (!o.profile_csv.empty()) {
      const std::string path = epoch_csv_path(o.profile_csv, name, multi);
      if (!write_profile_csv(path, out.result.cycle_stack)) {
        std::fprintf(stderr, "failed to write profile CSV to '%s'\n", path.c_str());
        rc = 1;
      }
    }
  }
  if (!o.stats_json.empty() && !write_sweep_json(o.stats_json, runner.outcomes(), o.jobs)) {
    std::fprintf(stderr, "failed to write stats JSON to '%s'\n", o.stats_json.c_str());
    rc = 1;
  }
  return rc;
}
