// Table 1: evaluated workloads and the offload blocks the static analyzer
// extracts from each (instruction counts after translation for the NSU,
// i.e., with address-calculation instructions removed).  Also reports the
// per-thread register transfer averages the paper quotes in §5
// (0.41 sent / 0.47 received per thread on average).
#include <cstdio>

#include "bench_util.h"

using namespace sndp;

int main(int argc, char** argv) {
  // Static analysis only (no timed simulation), so --jobs has nothing to
  // parallelize; --stats-json still exports the table.
  const bench::BenchOptions opts = bench::parse_bench_options(argc, argv);
  bench::print_header("Table 1: workloads and offload blocks", "Table 1 + §5");
  std::printf("%-8s %-44s %-18s %5s %5s\n", "Abbr.", "Description", "NSU instrs/block",
              "in", "out");

  JsonWriter json;
  json.begin_object();
  json.key("schema").value("sndp-table-v1");
  json.key("bench").value("tab01");
  json.key("workloads").begin_array();

  double total_in = 0.0, total_out = 0.0;
  unsigned total_blocks = 0;
  for (const std::string& name : workload_names()) {
    auto wl = make_workload(name, ProblemScale::kSmall);
    GlobalMemory mem;
    MemoryAllocator alloc;
    Rng rng(7);
    wl->setup(mem, alloc, rng);
    const KernelImage image = analyze_and_generate(wl->program());

    json.begin_object();
    json.key("workload").value(name);
    json.key("description").value(wl->description());
    json.key("blocks").begin_array();
    std::string counts;
    for (const auto& b : image.blocks) {
      if (!counts.empty()) counts += ",";
      counts += std::to_string(b.nsu_inst_count);
      if (b.indirect_single_load) counts += "*";
      total_in += static_cast<double>(b.regs_in.size());
      total_out += static_cast<double>(b.regs_out.size());
      ++total_blocks;
      json.begin_object();
      json.key("nsu_inst_count").value(b.nsu_inst_count);
      json.key("indirect_single_load").value(b.indirect_single_load);
      json.key("regs_in").value(static_cast<std::uint64_t>(b.regs_in.size()));
      json.key("regs_out").value(static_cast<std::uint64_t>(b.regs_out.size()));
      json.end_object();
    }
    json.end_array();
    json.end_object();
    std::printf("%-8s %-44s %-18s", name.c_str(), wl->description().c_str(), counts.c_str());
    double in_regs = 0.0, out_regs = 0.0;
    for (const auto& b : image.blocks) {
      in_regs += static_cast<double>(b.regs_in.size());
      out_regs += static_cast<double>(b.regs_out.size());
    }
    std::printf(" %5.1f %5.1f\n", in_regs, out_regs);
  }
  json.end_array();
  json.key("avg_regs_in")
      .value(total_blocks ? total_in / total_blocks : 0.0);
  json.key("avg_regs_out")
      .value(total_blocks ? total_out / total_blocks : 0.0);
  json.end_object();
  const bool json_ok = bench::write_bench_json(opts, json);
  std::printf("\n(* = single-instruction indirect-load block, §4.4)\n");
  if (total_blocks > 0) {
    std::printf("average registers transferred per block: %.2f in, %.2f out\n",
                total_in / total_blocks, total_out / total_blocks);
  }
  std::printf("(paper §5: GPU transmitted 0.41 / received 0.47 registers per thread on average)\n");
  return json_ok ? 0 : 1;
}
