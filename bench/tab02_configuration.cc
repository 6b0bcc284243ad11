// Table 2: the simulated system configuration.  Prints every parameter the
// paper lists so a reader can diff this reproduction against the original.
#include <cstdio>

#include "bench_util.h"

using namespace sndp;

// Table 2's crossbar clock.  The model does not clock the crossbar (each
// SM <-> L2 hop is the fixed SystemConfig::xbar_latency_ps), so this value
// is printed for the record only.
constexpr std::uint64_t kTable2XbarKhz = 1'250'000;

int main(int argc, char** argv) {
  // Pure configuration dump; --stats-json exports the machine-readable
  // Table 2 so downstream tooling can diff configurations between runs.
  const bench::BenchOptions opts = bench::parse_bench_options(argc, argv);
  bench::print_header("Table 2: system configuration", "Table 2");
  const SystemConfig c = SystemConfig::paper();

  JsonWriter json;
  json.begin_object();
  json.key("schema").value("sndp-table-v1");
  json.key("bench").value("tab02");
  json.key("config").begin_object();
  json.key("num_sms").value(c.num_sms);
  json.key("num_hmcs").value(c.num_hmcs);
  json.key("clocks_khz").begin_object();
  json.key("sm").value(static_cast<std::uint64_t>(c.clocks.sm_khz));
  json.key("xbar").value(kTable2XbarKhz);
  json.key("l2").value(static_cast<std::uint64_t>(c.clocks.sm_khz));  // L2 ticks with the SMs
  json.key("dram").value(static_cast<std::uint64_t>(c.clocks.dram_khz));
  json.key("nsu").value(static_cast<std::uint64_t>(c.clocks.nsu_khz));
  json.end_object();
  json.key("sm").begin_object();
  json.key("max_threads").value(c.sm.max_threads);
  json.key("max_ctas").value(c.sm.max_ctas);
  json.key("max_registers").value(c.sm.max_registers);
  json.key("scratchpad_bytes").value(static_cast<std::uint64_t>(c.sm.scratchpad_bytes));
  json.key("l1d_bytes").value(static_cast<std::uint64_t>(c.sm.l1d.size_bytes));
  json.key("l1d_ways").value(c.sm.l1d.ways);
  json.key("l1d_mshr").value(c.sm.l1d.mshr_entries);
  json.end_object();
  json.key("l2").begin_object();
  json.key("size_bytes").value(static_cast<std::uint64_t>(c.l2.size_bytes));
  json.key("ways").value(c.l2.ways);
  json.key("line_bytes").value(c.l2.line_bytes);
  json.key("mshr").value(c.l2.mshr_entries);
  json.end_object();
  json.key("hmc").begin_object();
  json.key("num_vaults").value(c.hmc.num_vaults);
  json.key("banks_per_vault").value(c.hmc.banks_per_vault);
  json.key("memory_bytes").value(static_cast<std::uint64_t>(c.hmc.memory_bytes));
  json.key("vault_queue_size").value(c.hmc.vault_queue_size);
  json.key("timing_tck").begin_object();
  json.key("tRP").value(c.hmc.timing.tRP);
  json.key("tCCD").value(c.hmc.timing.tCCD);
  json.key("tRCD").value(c.hmc.timing.tRCD);
  json.key("tCL").value(c.hmc.timing.tCL);
  json.key("tWR").value(c.hmc.timing.tWR);
  json.key("tRAS").value(c.hmc.timing.tRAS);
  json.end_object();
  json.end_object();
  json.key("link").begin_object();
  json.key("gb_per_s").value(c.link.gb_per_s);
  json.key("header_bytes").value(c.link.header_bytes);
  json.end_object();
  json.key("nsu").begin_object();
  json.key("max_warps").value(c.nsu.max_warps);
  json.key("warp_width").value(kWarpWidth);
  json.key("simd_lanes").value(c.nsu.simd_lanes);
  json.key("icache_bytes").value(static_cast<std::uint64_t>(c.nsu.icache_bytes));
  json.key("const_cache_bytes").value(static_cast<std::uint64_t>(c.nsu.const_cache_bytes));
  json.end_object();
  json.key("ndp_buffers").begin_object();
  json.key("sm_pending_entries").value(c.ndp_buffers.sm_pending_entries);
  json.key("sm_ready_entries").value(c.ndp_buffers.sm_ready_entries);
  json.key("nsu_read_data_entries").value(c.ndp_buffers.nsu_read_data_entries);
  json.key("nsu_write_addr_entries").value(c.ndp_buffers.nsu_write_addr_entries);
  json.key("nsu_cmd_entries").value(c.ndp_buffers.nsu_cmd_entries);
  json.end_object();
  json.end_object();
  json.end_object();
  const bool json_ok = bench::write_bench_json(opts, json);
  std::printf("GPU\n");
  std::printf("  # of SMs                : %u\n", c.num_sms);
  std::printf("  # of HMCs               : %u\n", c.num_hmcs);
  std::printf("  Off-chip link BW        : %.0f GB/s per direction, %u bidirectional links\n",
              c.link.gb_per_s, c.num_hmcs);
  std::printf("  SM                      : %u threads, %u CTAs, %u registers, %llu KB scratchpad,"
              " warp width %u\n",
              c.sm.max_threads, c.sm.max_ctas, c.sm.max_registers,
              static_cast<unsigned long long>(c.sm.scratchpad_bytes / 1024), kWarpWidth);
  std::printf("  L1 data cache           : %llu KB, %u-way, %u B line, MSHR: %u\n",
              static_cast<unsigned long long>(c.sm.l1d.size_bytes / 1024), c.sm.l1d.ways,
              c.sm.l1d.line_bytes, c.sm.l1d.mshr_entries);
  std::printf("  L2 cache                : %llu MB, %u-way, %u B line, MSHR: %u\n",
              static_cast<unsigned long long>(c.l2.size_bytes / (1024 * 1024)), c.l2.ways,
              c.l2.line_bytes, c.l2.mshr_entries);
  std::printf("  SM, Xbar, L2 clock      : %llu, %llu, %llu MHz\n",
              static_cast<unsigned long long>(c.clocks.sm_khz / 1000),
              static_cast<unsigned long long>(kTable2XbarKhz / 1000),
              static_cast<unsigned long long>(c.clocks.sm_khz / 1000));
  std::printf("HMC\n");
  std::printf("  Organization            : 16 vaults x %u banks/vault\n",
              c.hmc.banks_per_vault);
  std::printf("  Memory size             : %llu GB\n",
              static_cast<unsigned long long>(c.hmc.memory_bytes / (1024ull * 1024 * 1024)));
  std::printf("  Memory scheduler        : FR-FCFS, vault request queue size: %u\n",
              c.hmc.vault_queue_size);
  std::printf("  DRAM timing             : tCK=1.50ns, tRP=%u, tCCD=%u, tRCD=%u, tCL=%u,"
              " tWR=%u, tRAS=%u\n",
              c.hmc.timing.tRP, c.hmc.timing.tCCD, c.hmc.timing.tRCD, c.hmc.timing.tCL,
              c.hmc.timing.tWR, c.hmc.timing.tRAS);
  std::printf("  Off-chip link BW        : %.0f GB/s per direction, 4 links (1 GPU + 3 network)\n",
              c.link.gb_per_s);
  std::printf("NDP-specific\n");
  std::printf("  NSU                     : %llu MHz, %u warps, warp width %u, %u physical lanes,"
              " %llu KB const cache, %llu KB i-cache\n",
              static_cast<unsigned long long>(c.clocks.nsu_khz / 1000), c.nsu.max_warps,
              kWarpWidth, c.nsu.simd_lanes,
              static_cast<unsigned long long>(c.nsu.const_cache_bytes / 1024),
              static_cast<unsigned long long>(c.nsu.icache_bytes / 1024));
  std::printf("  Buffers in GPU SM       : 8 B x %u pending, 8 B x %u ready\n",
              c.ndp_buffers.sm_pending_entries, c.ndp_buffers.sm_ready_entries);
  std::printf("  Buffers in NSU          : 128 B x %u read data, 128 B x %u write address,"
              " %u offload command entries\n",
              c.ndp_buffers.nsu_read_data_entries, c.ndp_buffers.nsu_write_addr_entries,
              c.ndp_buffers.nsu_cmd_entries);
  return json_ok ? 0 : 1;
}
