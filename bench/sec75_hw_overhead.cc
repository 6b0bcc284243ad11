// §7.5: hardware overhead of the NDP mechanism on the GPU — the pending and
// ready packet buffer storage per SM against the existing on-chip storage.
// The paper reports 2.84 KB per SM and 1.8% of total on-chip storage.
#include <cstdio>

#include "bench_util.h"

using namespace sndp;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::parse_bench_options(argc, argv);
  bench::print_header("Section 7.5: hardware overhead", "§7.5");
  const SystemConfig c = SystemConfig::paper();

  const double pending_bytes = 8.0 * c.ndp_buffers.sm_pending_entries;
  const double ready_bytes = 8.0 * c.ndp_buffers.sm_ready_entries;
  const double per_sm_ndp = pending_bytes + ready_bytes;

  // Existing per-SM storage: L1D + scratchpad + register file (+ 4 KB L1I
  // and constant cache as in Table 2).
  const double per_sm_existing = static_cast<double>(c.sm.l1d.size_bytes) +
                                 static_cast<double>(c.sm.scratchpad_bytes) +
                                 8.0 * c.sm.max_registers + 4096.0 /*L1I*/ + 4096.0 /*const*/;
  const double gpu_existing =
      per_sm_existing * c.num_sms + static_cast<double>(c.l2.size_bytes);
  const double gpu_ndp = per_sm_ndp * c.num_sms;

  std::printf("per-SM NDP packet buffers : %.2f KB (pending %.2f + ready %.2f)\n",
              per_sm_ndp / 1024, pending_bytes / 1024, ready_bytes / 1024);
  std::printf("   paper: 2.84 KB per SM\n");
  std::printf("per-SM existing storage   : %.1f KB\n", per_sm_existing / 1024);
  std::printf("GPU total on-chip storage : %.1f KB\n", gpu_existing / 1024);
  std::printf("NDP storage overhead      : %.2f%% of total on-chip storage\n",
              100.0 * gpu_ndp / gpu_existing);
  std::printf("   paper: 1.8%%\n");

  // NSU-side cost (Table 2 buffers).
  const double nsu_bytes = 128.0 * c.ndp_buffers.nsu_read_data_entries +
                           128.0 * c.ndp_buffers.nsu_write_addr_entries +
                           64.0 * c.ndp_buffers.nsu_cmd_entries +
                           static_cast<double>(c.nsu.icache_bytes) +
                           static_cast<double>(c.nsu.const_cache_bytes);
  std::printf("per-NSU storage           : %.1f KB (no MMU, no TLB, no data cache)\n",
              nsu_bytes / 1024);

  JsonWriter json;
  json.begin_object();
  json.key("schema").value("sndp-table-v1");
  json.key("bench").value("sec75");
  json.key("per_sm_ndp_bytes").value(per_sm_ndp);
  json.key("per_sm_existing_bytes").value(per_sm_existing);
  json.key("gpu_existing_bytes").value(gpu_existing);
  json.key("gpu_ndp_bytes").value(gpu_ndp);
  json.key("ndp_storage_overhead").value(gpu_ndp / gpu_existing);
  json.key("per_nsu_bytes").value(nsu_bytes);
  json.end_object();
  const bool json_ok = bench::write_bench_json(opts, json);
  return json_ok ? 0 : 1;
}
