// placement_sweep — data-placement policy grid over workloads and stacks.
//
// Runs every Table 1 workload (or a subset) under each placement policy
// (random / first-touch / locality / migration) and each requested HMC
// stack count, with the latency tracer on, and reports the remote-traffic
// picture behind the paper's unrestricted-placement argument (§4/§6): the
// p95 end-to-end latency and count of the remote path classes (rdf_remote,
// nsu_write_remote) against their local counterparts, the remote share of
// NSU traffic, and how many pages the migration policy re-homed.
//
//   placement_sweep
//   placement_sweep -w BFS,VADD --policies random,locality --stacks 4,6,8
//   placement_sweep --csv placement.csv --stats-json placement.json --jobs 0
//
// Options (plus the shared bench flags --jobs/--stats-json/--progress):
//   -w, --workloads LIST   comma-separated Table 1 workloads (default: all)
//   -p, --policies LIST    subset of random,first_touch,locality,migration
//                          (default: all four)
//   -s, --stacks LIST      comma-separated HMC counts; non-powers-of-two
//                          are legal placements (default: 8)
//       --threshold N      migration re-home threshold   (default 64)
//       --sample N         latency span-sampling period  (default 64)
//       --csv FILE         machine-readable per-point percentile rows
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
  std::vector<std::string> workloads;
  std::vector<PlacementPolicyKind> policies;
  std::vector<unsigned> stacks;
  unsigned threshold = 64;
  unsigned sample = 64;
  std::string csv;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-w W1,W2,...] [-p random,first_touch,locality,migration]\n"
               "          [-s 4,6,8] [--threshold N] [--sample N] [--csv FILE]\n"
               "          [--jobs N] [--stats-json PATH] [--progress]\n",
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

Options parse(int argc, char** argv) {
  Options o;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(argv[0]);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "-w" || a == "--workloads" || a == "--workload") {
      o.workloads = split_list(need_value(i));
      for (const std::string& n : o.workloads) {
        if (!is_workload_name(n)) flag_value_error(argv[0], a, n, "unknown workload");
      }
    } else if (a == "-p" || a == "--policies") {
      for (const std::string& name : split_list(need_value(i))) {
        PlacementPolicyKind kind;
        if (!parse_placement_policy(name, &kind)) usage(argv[0]);
        o.policies.push_back(kind);
      }
    } else if (a == "-s" || a == "--stacks") {
      for (const std::string& n : split_list(need_value(i))) {
        o.stacks.push_back(parse_flag(argv[0], a, n, 1u, 255u));
      }
    } else if (a == "--threshold") {
      o.threshold = parse_flag(argv[0], a, need_value(i), 1u);
    } else if (a == "--sample") {
      o.sample = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a == "--csv") {
      o.csv = need_value(i);
    } else if (a == "--jobs" || a == "-j") {
      o.bench.jobs = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a == "--stats-json") {
      o.bench.stats_json = need_value(i);
    } else if (a == "--progress") {
      o.bench.progress = true;
    } else {
      usage(argv[0]);
    }
  }
  if (o.workloads.empty()) o.workloads = all_workload_names();
  if (o.policies.empty()) {
    o.policies = {PlacementPolicyKind::kRandom, PlacementPolicyKind::kFirstTouch,
                  PlacementPolicyKind::kLocality, PlacementPolicyKind::kMigration};
  }
  if (o.stacks.empty()) o.stacks = {8};
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  print_header("Data-placement policy sweep: remote traffic by policy",
               "the §4/§6 unrestricted-placement argument");

  BenchSweep sweep(o.bench, "placement");
  struct PointInfo {
    std::size_t index;
    std::string workload;
    PlacementPolicyKind policy;
    unsigned stacks;
  };
  std::vector<PointInfo> grid;
  for (unsigned stacks : o.stacks) {
    for (PlacementPolicyKind policy : o.policies) {
      for (const std::string& name : o.workloads) {
        SystemConfig cfg = paper_config(OffloadMode::kStaticRatio, 1.0);
        cfg.num_hmcs = stacks;
        cfg.latency_sample = o.sample;
        cfg.placement.policy = policy;
        cfg.placement.migration_threshold = o.threshold;
        const std::string id = name + "/" + placement_policy_name(policy) + "/" +
                               std::to_string(stacks) + "-stack";
        grid.push_back({sweep.add(id, cfg, name), name, policy, stacks});
      }
    }
  }
  sweep.run();

  std::FILE* csv = nullptr;
  if (!o.csv.empty()) {
    csv = std::fopen(o.csv.c_str(), "w");
    if (csv == nullptr) {
      std::fprintf(stderr, "%s: cannot open '%s' for writing\n", argv[0], o.csv.c_str());
      return 1;
    }
    std::fprintf(csv,
                 "workload,policy,stacks,runtime_ps,rdf_local_count,rdf_local_p95_ps,"
                 "rdf_remote_count,rdf_remote_p95_ps,nsu_write_local_count,"
                 "nsu_write_local_p95_ps,nsu_write_remote_count,"
                 "nsu_write_remote_p95_ps,remote_share,pages_migrated\n");
  }

  std::printf("\n%-8s %-12s %6s  %12s %10s %12s %10s %7s %9s\n", "workload", "policy",
              "stacks", "rdf_rem_p95", "rdf_rem_n", "nsuw_rem_p95", "nsuw_rem_n",
              "rem%", "migrated");

  int rc = 0;
  for (const PointInfo& pt : grid) {
    const RunResult& r = sweep.result(pt.index);
    if (!r.verified || !r.completed) rc = 1;
    const LatencySummary& lat = r.latency;
    auto hist = [&](PathClass c) -> const Log2Histogram& {
      return lat.per_class[static_cast<std::size_t>(c)];
    };
    const Log2Histogram& rdf_l = hist(PathClass::kRdfLocal);
    const Log2Histogram& rdf_r = hist(PathClass::kRdfRemote);
    const Log2Histogram& nw_l = hist(PathClass::kNsuWriteLocal);
    const Log2Histogram& nw_r = hist(PathClass::kNsuWriteRemote);
    const std::uint64_t local = rdf_l.count() + nw_l.count();
    const std::uint64_t remote = rdf_r.count() + nw_r.count();
    const double remote_share =
        local + remote == 0 ? 0.0
                            : static_cast<double>(remote) / static_cast<double>(local + remote);
    const auto migrated = static_cast<std::uint64_t>(r.stats.get("mem.pages_migrated"));

    std::printf("%-8s %-12s %6u  %12.0f %10llu %12.0f %10llu %6.1f%% %9llu\n",
                pt.workload.c_str(), placement_policy_name(pt.policy), pt.stacks,
                rdf_r.percentile(0.95), static_cast<unsigned long long>(rdf_r.count()),
                nw_r.percentile(0.95), static_cast<unsigned long long>(nw_r.count()),
                100.0 * remote_share, static_cast<unsigned long long>(migrated));

    if (csv != nullptr) {
      std::fprintf(csv, "%s,%s,%u,%llu,%llu,%.1f,%llu,%.1f,%llu,%.1f,%llu,%.1f,%.6f,%llu\n",
                   pt.workload.c_str(), placement_policy_name(pt.policy), pt.stacks,
                   static_cast<unsigned long long>(r.runtime_ps),
                   static_cast<unsigned long long>(rdf_l.count()), rdf_l.percentile(0.95),
                   static_cast<unsigned long long>(rdf_r.count()), rdf_r.percentile(0.95),
                   static_cast<unsigned long long>(nw_l.count()), nw_l.percentile(0.95),
                   static_cast<unsigned long long>(nw_r.count()), nw_r.percentile(0.95),
                   remote_share, static_cast<unsigned long long>(migrated));
    }
  }
  if (csv != nullptr && std::fclose(csv) != 0) rc = 1;
  return sweep.exit_status(rc);
}
