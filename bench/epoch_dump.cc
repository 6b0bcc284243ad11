// epoch_dump — per-epoch metrics timeline as CSV (Fig. 8-style dynamics).
//
// Runs one workload and dumps the governor's EpochTimeline — offload ratio,
// hill-climb step/direction, epoch and SM IPC, cache hit rates, link
// utilizations, NSU occupancy — one CSV row per epoch, for plotting how the
// dynamic controller converges.
//
//   epoch_dump --workload BFS --mode dyn-cache --scale small --csv bfs.csv
//   epoch_dump -w VADD -m dyn --epoch 1000 --trace vadd-trace.json
//
// Options:
//   -w, --workload NAME   Table 1 workload                (default VADD)
//   -s, --scale S         tiny | small | large            (default small)
//   -m, --mode M          off | always | static | dyn | dyn-cache
//                                                         (default dyn-cache)
//   -r, --ratio R         static offload ratio            (default 0.5)
//   -e, --epoch N         epoch length in SM cycles       (default 1000,
//                         the scaled epoch — see EXPERIMENTS.md)
//       --seed N          page-placement seed
//       --csv FILE        write CSV to FILE               (default stdout)
//       --trace FILE      also write a Perfetto trace with the same series
//                         as counter events
#include <cstdio>
#include <cstring>
#include <string>

#include "sndp.h"

using namespace sndp;

namespace {

struct Options {
  std::string workload = "VADD";
  ProblemScale scale = ProblemScale::kSmall;
  OffloadMode mode = OffloadMode::kDynamicCache;
  double ratio = 0.5;
  Cycle epoch = 1000;
  std::uint64_t seed = 0x5EED;
  std::string csv;
  std::string trace_path;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [-w WORKLOAD] [-s tiny|small|large] "
               "[-m off|always|static|dyn|dyn-cache] [-r RATIO] [-e EPOCH]\n"
               "          [--seed N] [--csv FILE] [--trace FILE]\n",
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
    if (a == "-w" || a == "--workload") {
      o.workload = need_value(i);
      if (!is_workload_name(o.workload)) {
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
    } else if (a == "--seed") {
      o.seed = parse_flag(argv[0], a, need_value(i), std::uint64_t{0});
    } else if (a == "--csv") {
      o.csv = need_value(i);
    } else if (a == "--trace") {
      o.trace_path = need_value(i);
    } else {
      usage(argv[0]);
    }
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);

  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.mode = o.mode;
  cfg.governor.static_ratio = o.ratio;
  cfg.governor.epoch_cycles = o.epoch;
  cfg.placement_seed = o.seed;
  cfg.trace_path = o.trace_path;

  auto wl = make_workload(o.workload, o.scale);
  const RunResult r = Simulator(cfg).run(*wl);
  if (!r.verified) {
    std::fprintf(stderr, "WARNING: %s failed functional verification!\n", o.workload.c_str());
  }
  if (!r.completed) {
    std::fprintf(stderr, "WARNING: %s hit the simulated-time limit!\n", o.workload.c_str());
  }

  if (!write_epoch_csv(o.csv, r.timeline)) {
    std::fprintf(stderr, "%s: cannot write '%s'\n", argv[0], o.csv.c_str());
    return 1;
  }

  std::fprintf(stderr, "%s: %zu epochs, final ratio %.3f, %s\n", o.workload.c_str(),
               r.timeline.size(), r.timeline.empty() ? 0.0 : r.timeline.back().ratio,
               r.verified && r.completed ? "ok" : "FAILED");
  return r.verified && r.completed ? 0 : 1;
}
