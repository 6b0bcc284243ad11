// Direct HMC unit tests: drive one stack through the network with baseline
// and NDP packets and observe the logic layer's responses.
#include <gtest/gtest.h>

#include "sndp.h"

#include "context_harness.h"
#include "mem/hmc.h"

namespace sndp {
namespace {

Program load_add_store() {
  ProgramBuilder b;
  b.movi(16, 0).ld(9, 16).alu(Opcode::kFAdd, 10, 9, 9).st(16, 10).exit();
  return b.build();
}

struct HmcHarness : ContextHarness {
  HmcHarness() : ContextHarness(SystemConfig::small_test(), load_add_store()) {
    hmc = std::make_unique<Hmc>(0, ctx);
  }

  void tick(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      hmc->tick(cycle, tick_time_ps(cycle, cfg.clocks.dram_khz));
      ++cycle;
    }
  }

  // Drains packets the HMC sent to `node` into a vector.
  std::vector<Packet> drain(unsigned node) {
    std::vector<Packet> out;
    while (auto p = net.rx(node).pop_ready(kTimeNever - 1)) out.push_back(std::move(*p));
    return out;
  }

  // Finds an address owned by HMC 0 (so the harness HMC serves it).
  Addr local_line(unsigned n = 0) {
    Addr a = 0;
    unsigned found = 0;
    while (true) {
      if (amap.hmc_of(a) == 0) {
        if (found == n) return a;
        ++found;
      }
      a += cfg.page_bytes;
    }
  }

  std::unique_ptr<Hmc> hmc;
  Cycle cycle = 0;
};

TEST(HmcUnit, BaselineReadReturnsLine) {
  HmcHarness h;
  const Addr line = h.local_line();
  Packet req;
  req.type = PacketType::kMemRead;
  req.src_node = static_cast<std::uint16_t>(h.net.gpu_node());
  req.dst_node = 0;
  req.line_addr = line;
  req.token = 42;
  req.size_bytes = mem_read_req_bytes();
  h.net.send(std::move(req), 0);

  h.tick(200);
  const auto out = h.drain(h.net.gpu_node());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, PacketType::kMemReadResp);
  EXPECT_EQ(out[0].line_addr, line);
  EXPECT_EQ(out[0].token, 42u);
  EXPECT_EQ(out[0].size_bytes, mem_read_resp_bytes());
  EXPECT_EQ(h.hmc->total_reads(), 1u);
  EXPECT_TRUE(h.hmc->idle());
}

TEST(HmcUnit, RdfForwardsOnlyTouchedWordsToRemoteNsu) {
  HmcHarness h;
  const Addr line = h.local_line();
  h.gmem.write_f64(line + 8, 7.5);

  Packet rdf;
  rdf.type = PacketType::kRdf;
  rdf.src_node = static_cast<std::uint16_t>(h.net.gpu_node());
  rdf.dst_node = 0;
  rdf.line_addr = line;
  rdf.oid = OffloadPacketId{3, 4, 0, 0, 9};
  rdf.mask = 0b10;  // one lane
  rdf.expected_mask = 0b10;
  rdf.target_nsu = 2;  // remote stack
  rdf.mem_width = 8;
  rdf.lane_addrs.assign(kWarpWidth, 0);
  rdf.lane_addrs[1] = line + 8;
  rdf.size_bytes = rdf_wta_packet_bytes(1, false);
  h.net.send(std::move(rdf), 0);

  h.tick(200);
  const auto out = h.drain(2);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].type, PacketType::kRdfResp);
  EXPECT_DOUBLE_EQ(bits_to_f64(out[0].lane_data[1]), 7.5);
  // Only one 8 B word rides the response, not a 128 B line.
  EXPECT_EQ(out[0].size_bytes, rdf_resp_packet_bytes(1, 8));
  EXPECT_LT(out[0].size_bytes, mem_read_resp_bytes());
}

TEST(HmcUnit, NsuWriteAppliesAcksAndInvalidates) {
  HmcHarness h;
  const Addr line = h.local_line();

  Packet wr;
  wr.type = PacketType::kNsuWrite;
  wr.src_node = 1;  // issued by HMC 1's NSU
  wr.dst_node = 0;
  wr.line_addr = line;
  wr.oid = OffloadPacketId{0, 1, 2, 0, 5};
  wr.mask = 0b1;
  wr.mem_width = 8;
  wr.lane_addrs.assign(kWarpWidth, 0);
  wr.lane_addrs[0] = line + 16;
  wr.lane_data.assign(kWarpWidth, 0);
  wr.lane_data[0] = f64_to_bits(2.5);
  wr.size_bytes = nsu_write_packet_bytes(1, 8, false);
  h.net.send(std::move(wr), 0);

  h.tick(200);
  // Functional write applied at completion.
  EXPECT_DOUBLE_EQ(h.gmem.read_f64(line + 16), 2.5);
  EXPECT_EQ(h.hmc->total_writes(), 1u);
  // Ack to the issuing NSU's stack, invalidation to the GPU.
  const auto to_nsu = h.drain(1);
  ASSERT_EQ(to_nsu.size(), 1u);
  EXPECT_EQ(to_nsu[0].type, PacketType::kNsuWriteAck);
  EXPECT_EQ(to_nsu[0].oid.instance, 5u);
  const auto to_gpu = h.drain(h.net.gpu_node());
  ASSERT_EQ(to_gpu.size(), 1u);
  EXPECT_EQ(to_gpu[0].type, PacketType::kCacheInval);
  EXPECT_EQ(to_gpu[0].line_addr, line);
}

TEST(HmcUnit, WriteThroughStoreConsumesNoResponse) {
  HmcHarness h;
  Packet wr;
  wr.type = PacketType::kMemWrite;
  wr.src_node = static_cast<std::uint16_t>(h.net.gpu_node());
  wr.dst_node = 0;
  wr.line_addr = h.local_line();
  wr.size_bytes = mem_write_req_bytes(128);
  h.net.send(std::move(wr), 0);
  h.tick(200);
  EXPECT_TRUE(h.drain(h.net.gpu_node()).empty());
  EXPECT_EQ(h.hmc->total_writes(), 1u);
  EXPECT_TRUE(h.hmc->idle());
}

TEST(HmcUnit, ManyReadsSaturateVaultsAndDrain) {
  HmcHarness h;
  // Enqueue far more reads than one vault queue holds; the backlog channel
  // must absorb and eventually drain them all.
  constexpr unsigned kReads = 300;
  for (unsigned i = 0; i < kReads; ++i) {
    Packet req;
    req.type = PacketType::kMemRead;
    req.src_node = static_cast<std::uint16_t>(h.net.gpu_node());
    req.dst_node = 0;
    req.line_addr = h.local_line(i);
    req.token = i;
    req.size_bytes = mem_read_req_bytes();
    h.net.send(std::move(req), 0);
  }
  h.tick(5000);
  EXPECT_EQ(h.drain(h.net.gpu_node()).size(), kReads);
  EXPECT_TRUE(h.hmc->idle());
  EXPECT_EQ(h.hmc->total_reads(), kReads);
}

TEST(HmcUnit, DramCountersFeedEnergy) {
  HmcHarness h;
  for (unsigned i = 0; i < 8; ++i) {
    Packet req;
    req.type = PacketType::kMemRead;
    req.src_node = static_cast<std::uint16_t>(h.net.gpu_node());
    req.dst_node = 0;
    req.line_addr = h.local_line(i);
    req.size_bytes = mem_read_req_bytes();
    h.net.send(std::move(req), 0);
  }
  h.tick(1000);
  EXPECT_GT(h.hmc->total_activates(), 0u);
  EXPECT_EQ(h.energy.dram_read_bytes, 8u * 128);
  EXPECT_GT(h.energy.hmc_noc_bytes, 0u);
}

}  // namespace
}  // namespace sndp
