// Tests for the NSU-side NDP buffers (read-data / write-address / command).
#include <gtest/gtest.h>

#include "ndp/ndp_buffers.h"

namespace sndp {
namespace {

Packet rdf_resp(OffloadPacketId oid, LaneMask mask, LaneMask expected, RegValue base_val) {
  Packet p;
  p.type = PacketType::kRdfResp;
  p.oid = oid;
  p.mask = mask;
  p.expected_mask = expected;
  p.lane_data.assign(kWarpWidth, 0);
  for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
    if (mask & (LaneMask{1} << lane)) p.lane_data[lane] = base_val + lane;
  }
  return p;
}

Packet wta(OffloadPacketId oid, LaneMask mask, LaneMask expected, Addr base) {
  Packet p;
  p.type = PacketType::kWta;
  p.oid = oid;
  p.mask = mask;
  p.expected_mask = expected;
  p.mem_width = 8;
  p.lane_addrs.assign(kWarpWidth, 0);
  for (unsigned lane = 0; lane < kWarpWidth; ++lane) {
    if (mask & (LaneMask{1} << lane)) p.lane_addrs[lane] = base + 8 * lane;
  }
  return p;
}

TEST(ReadDataBuffer, SinglePacketCompletes) {
  ReadDataBuffer buf(4);
  const OffloadPacketId oid{1, 2, 0, 0, 42};
  buf.deposit(rdf_resp(oid, kFullMask, kFullMask, 100));
  EXPECT_TRUE(buf.complete(NdpBufferKey::of(oid)));
  const auto entry = buf.take(NdpBufferKey::of(oid));
  EXPECT_EQ(entry.lanes[0], 100u);
  EXPECT_EQ(entry.lanes[31], 131u);
  EXPECT_EQ(buf.size(), 0u);
}

TEST(ReadDataBuffer, DivergentResponsesMergeByMask) {
  ReadDataBuffer buf(4);
  const OffloadPacketId oid{0, 0, 3, 1, 7};
  const LaneMask lo = 0x0000FFFF, hi = 0xFFFF0000;
  buf.deposit(rdf_resp(oid, lo, kFullMask, 0));
  EXPECT_FALSE(buf.complete(NdpBufferKey::of(oid)));
  buf.deposit(rdf_resp(oid, hi, kFullMask, 1000));
  EXPECT_TRUE(buf.complete(NdpBufferKey::of(oid)));
  const auto entry = buf.take(NdpBufferKey::of(oid));
  EXPECT_EQ(entry.lanes[0], 0u);
  EXPECT_EQ(entry.lanes[31], 1031u);
}

TEST(ReadDataBuffer, SeqNumbersKeepLoadsSeparate) {
  ReadDataBuffer buf(4);
  OffloadPacketId a{0, 0, 0, 0, 9};
  OffloadPacketId b = a;
  b.seq = 1;
  buf.deposit(rdf_resp(a, kFullMask, kFullMask, 10));
  buf.deposit(rdf_resp(b, kFullMask, kFullMask, 20));
  EXPECT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.take(NdpBufferKey::of(b)).lanes[0], 20u);
  EXPECT_EQ(buf.take(NdpBufferKey::of(a)).lanes[0], 10u);
}

TEST(ReadDataBuffer, DuplicateLanesRejected) {
  ReadDataBuffer buf(4);
  const OffloadPacketId oid{0, 0, 0, 0, 1};
  buf.deposit(rdf_resp(oid, 0b1, kFullMask, 0));
  EXPECT_THROW(buf.deposit(rdf_resp(oid, 0b1, kFullMask, 0)), std::logic_error);
}

TEST(ReadDataBuffer, CapacityEnforced) {
  ReadDataBuffer buf(2);
  for (std::uint64_t i = 0; i < 2; ++i) {
    buf.deposit(rdf_resp(OffloadPacketId{0, 0, 0, 0, i}, 1, 1, 0));
  }
  EXPECT_THROW(buf.deposit(rdf_resp(OffloadPacketId{0, 0, 0, 0, 99}, 1, 1, 0)),
               std::logic_error);
}

TEST(ReadDataBuffer, TakeAbsentThrows) {
  ReadDataBuffer buf(2);
  EXPECT_THROW(buf.take(NdpBufferKey{0, 0, 0, 0}), std::logic_error);
}

TEST(WriteAddrBuffer, MergesAndCarriesAttributes) {
  WriteAddrBuffer buf(4);
  const OffloadPacketId oid{3, 4, 1, 0, 5};
  Packet p1 = wta(oid, 0x0000FFFF, kFullMask, 0x1000);
  p1.misaligned = true;
  buf.deposit(p1);
  buf.deposit(wta(oid, 0xFFFF0000, kFullMask, 0x1000));
  ASSERT_TRUE(buf.complete(NdpBufferKey::of(oid)));
  const auto entry = buf.take(NdpBufferKey::of(oid));
  EXPECT_EQ(entry.lanes[5], 0x1000u + 40);
  EXPECT_EQ(entry.width, 8u);
  EXPECT_TRUE(entry.misaligned);  // sticky across merges
}

TEST(WriteAddrBuffer, IncompleteUntilAllLanes) {
  WriteAddrBuffer buf(4);
  const OffloadPacketId oid{0, 0, 0, 0, 2};
  buf.deposit(wta(oid, 0b0011, 0b1111, 0x2000));
  EXPECT_FALSE(buf.complete(NdpBufferKey::of(oid)));
  buf.deposit(wta(oid, 0b1100, 0b1111, 0x2000));
  EXPECT_TRUE(buf.complete(NdpBufferKey::of(oid)));
}

TEST(CmdBuffer, FifoOrderAndCapacity) {
  CmdBuffer buf(2);
  Packet a, b;
  a.oid.instance = 1;
  b.oid.instance = 2;
  buf.push(a);
  buf.push(b);
  EXPECT_THROW(buf.push(a), std::logic_error);
  EXPECT_EQ(buf.pop().oid.instance, 1u);
  EXPECT_EQ(buf.pop().oid.instance, 2u);
  EXPECT_TRUE(buf.empty());
}

TEST(NdpKeys, HashDistinguishesFields) {
  NdpBufferKeyHash h;
  const NdpBufferKey a{1, 2, 3, 4};
  NdpBufferKey b = a;
  EXPECT_EQ(h(a), h(b));
  b.seq = 5;
  EXPECT_NE(a, b);
}

}  // namespace
}  // namespace sndp
