// latency_breakdown — request-lifecycle latency percentiles per path class.
//
// Runs every Table 1 workload (or a selected subset) with the latency tracer
// on and prints, per workload, the p50/p95/p99/mean end-to-end latency of
// each request path class (GPU read at L2 vs DRAM, RDF local vs remote, NSU
// writeback, offload round-trip, credit) plus the per-segment time split —
// the remote-vs-local breakdown behind the paper's unrestricted-placement
// argument (§4/§6).
//
//   latency_breakdown
//   latency_breakdown -w BFS,VADD --csv lat.csv --trace-dir traces/
//   latency_breakdown --jobs 0 --stats-json lat.json
//
// Options (plus the shared bench flags --jobs/--stats-json/--progress):
//   -w, --workloads LIST  comma-separated Table 1 workloads (default: all)
//   -m, --mode M          off | always | static | dyn | dyn-cache
//                                                   (default dyn-cache)
//       --sample N        span-sampling period           (default 64)
//       --csv FILE        machine-readable per-class rows
//       --trace-dir DIR   write one Perfetto trace per workload (sampled
//                         request spans as flow events) into DIR
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
  OffloadMode mode = OffloadMode::kDynamicCache;
  unsigned sample = 64;
  std::string csv;
  std::string trace_dir;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-w W1,W2,...] [-m off|always|static|dyn|dyn-cache] "
               "[--sample N] [--csv FILE] [--trace-dir DIR]\n"
               "          [--jobs N] [--stats-json PATH] [--progress]\n",
               argv0);
  std::exit(2);
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
      std::string list = need_value(i);
      std::size_t pos = 0;
      while (pos != std::string::npos) {
        const std::size_t comma = list.find(',', pos);
        const std::string name = list.substr(pos, comma - pos);
        pos = comma == std::string::npos ? comma : comma + 1;
        if (name.empty()) continue;
        if (!is_workload_name(name)) flag_value_error(argv[0], a, name, "unknown workload");
        o.workloads.push_back(name);
      }
    } else if (a == "-m" || a == "--mode") {
      const std::string m = need_value(i);
      if (!parse_offload_mode(m, &o.mode)) flag_value_error(argv[0], a, m, "unknown mode");
    } else if (a == "--sample") {
      o.sample = parse_flag(argv[0], a, need_value(i), 0u);
    } else if (a == "--csv") {
      o.csv = need_value(i);
    } else if (a == "--trace-dir") {
      o.trace_dir = need_value(i);
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
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  print_header("Request-lifecycle latency breakdown by path class",
               "the §4/§6 remote-vs-local placement argument");

  BenchSweep sweep(o.bench, "latency");
  std::vector<std::size_t> points;
  for (const std::string& name : o.workloads) {
    SystemConfig cfg = paper_config(o.mode);
    cfg.latency_sample = o.sample;
    if (!o.trace_dir.empty()) {
      cfg.trace_path = o.trace_dir + "/" + name + "-latency-trace.json";
    }
    points.push_back(sweep.add(name + "/latency", cfg, name));
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
                 "workload,path_class,count,sum_ps,min_ps,max_ps,p50_ps,p95_ps,"
                 "p99_ps,queue_ps,link_ps,dram_ps,cache_ps,other_ps\n");
  }

  int rc = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::string& name = o.workloads[i];
    const RunResult& r = sweep.result(points[i]);
    if (!r.verified || !r.completed) rc = 1;
    const LatencySummary& lat = r.latency;
    std::printf("\n%s  (spans started %llu, finished %llu, cancelled %llu, "
                "sampled %llu, dropped %llu)\n",
                name.c_str(), static_cast<unsigned long long>(lat.started),
                static_cast<unsigned long long>(lat.finished),
                static_cast<unsigned long long>(lat.cancelled),
                static_cast<unsigned long long>(lat.spans_sampled),
                static_cast<unsigned long long>(lat.spans_dropped));
    print_latency_table(lat, "  ");
    if (csv != nullptr) {
      for (std::size_t c = 0; c < kNumPathClasses; ++c) {
        const Log2Histogram& h = lat.per_class[c];
        std::fprintf(csv,
                     "%s,%s,%llu,%llu,%llu,%llu,%.1f,%.1f,%.1f,%llu,%llu,%llu,"
                     "%llu,%llu\n",
                     name.c_str(), path_class_name(static_cast<PathClass>(c)),
                     static_cast<unsigned long long>(h.count()),
                     static_cast<unsigned long long>(h.sum()),
                     static_cast<unsigned long long>(h.min()),
                     static_cast<unsigned long long>(h.max()),
                     h.percentile(0.50), h.percentile(0.95), h.percentile(0.99),
                     static_cast<unsigned long long>(lat.seg_sum_ps[c][0]),
                     static_cast<unsigned long long>(lat.seg_sum_ps[c][1]),
                     static_cast<unsigned long long>(lat.seg_sum_ps[c][2]),
                     static_cast<unsigned long long>(lat.seg_sum_ps[c][3]),
                     static_cast<unsigned long long>(lat.seg_sum_ps[c][4]));
      }
    }
  }
  if (csv != nullptr && std::fclose(csv) != 0) rc = 1;
  return rc;
}
