// Tests for the Chrome-trace writer and its simulator integration.
#include <gtest/gtest.h>

#include <cstdio>

#include "sndp.h"

namespace sndp {
namespace {

TEST(Trace, EmitsWellFormedJson) {
  TraceWriter t;
  t.name_row(0, "HMC 0");
  t.complete("RDF", "packet", 0, 1000, 500);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"RDF\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  // Balanced braces/brackets (cheap structural check).
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    EXPECT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);
}

TEST(Trace, EscapesQuotes) {
  TraceWriter t;
  t.complete("a\"b", "c\\d", 0, 0, 1);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("a\\\"b"), std::string::npos);
  EXPECT_NE(json.find("c\\\\d"), std::string::npos);
}

TEST(Trace, EscapesControlCharacters) {
  TraceWriter t;
  // Regression: newline/tab/raw control bytes in names used to be copied
  // through verbatim, producing invalid Chrome-trace JSON.
  t.complete("line1\nline2", "tab\there", 0, 0, 1);
  t.complete(std::string("nul-ish\x01\x1f"), "bell\x07", 0, 5, 1);
  t.name_row(0, "row\r\nname");
  const std::string json = t.to_json();
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("tab\\there"), std::string::npos);
  EXPECT_NE(json.find("\\u0001"), std::string::npos);
  EXPECT_NE(json.find("\\u001f"), std::string::npos);
  EXPECT_NE(json.find("\\u0007"), std::string::npos);
  EXPECT_NE(json.find("row\\r\\nname"), std::string::npos);
  // No raw control characters may survive anywhere in the document.
  for (char c : json) EXPECT_GE(static_cast<unsigned char>(c), 0x20u);
}

TEST(Trace, BackspaceAndFormFeedUseShortEscapes) {
  TraceWriter t;
  t.complete("a\bb\fc", "x", 0, 0, 1);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("a\\bb\\fc"), std::string::npos);
}

TEST(Trace, CounterEventsCarryValueArgs) {
  TraceWriter t;
  t.counter("offload_ratio", 3, 2'000'000, 0.25);
  t.counter("epoch_ipc", 3, 2'000'000, 12.0);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"offload_ratio\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"value\":0.25}"), std::string::npos);
  // Integral values print without decimal noise (JsonWriter::number rule).
  EXPECT_NE(json.find("\"args\":{\"value\":12}"), std::string::npos);
  // Counter events have no duration or instant-scope field.
  EXPECT_EQ(json.find("\"dur\""), std::string::npos);
  EXPECT_EQ(json.find("\"s\":\"t\""), std::string::npos);
}

TEST(Trace, CounterNonFiniteValuesBecomeNull) {
  // NaN/Inf would make the whole trace unparseable; they must serialize as
  // null like every other number in the project's JSON.
  TraceWriter t;
  t.counter("bad", 0, 0, 0.0 / 0.0);
  t.counter("worse", 0, 0, 1.0 / 0.0);
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"args\":{\"value\":null}"), std::string::npos);
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Trace, CounterEventsRespectCapacity) {
  TraceWriter t;
  t.set_capacity(1);
  t.counter("a", 0, 0, 1.0);
  t.counter("b", 0, 0, 2.0);  // dropped
  t.complete("c", "x", 0, 0, 1);  // also dropped
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.dropped(), 2u);
  EXPECT_NE(t.to_json().find("\"dropped_events\":2"), std::string::npos);
}

TEST(Trace, CapacityDropsExcess) {
  TraceWriter t;
  t.set_capacity(2);
  t.complete("a", "x", 0, 0, 1);
  t.complete("b", "x", 0, 0, 1);
  t.complete("c", "x", 0, 0, 1);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.dropped(), 1u);
  // The drop counter is surfaced in the document's metadata block so a
  // truncated trace file is self-describing.
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"metadata\":{\"emitted_events\":2,\"dropped_events\":1}"),
            std::string::npos);
}

TEST(Trace, MetadataReportsZeroDropsByDefault) {
  TraceWriter t;
  t.complete("a", "x", 0, 0, 1);
  EXPECT_NE(t.to_json().find("\"dropped_events\":0"), std::string::npos);
}

TEST(Trace, TimestampsInMicroseconds) {
  TraceWriter t;
  t.complete("a", "x", 0, 2'000'000, 1'000'000);  // 2 us start, 1 us duration
  const std::string json = t.to_json();
  EXPECT_NE(json.find("\"ts\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":1"), std::string::npos);
}

TEST(Trace, SimulatorWritesTraceFile) {
  const std::string path = ::testing::TempDir() + "/sndp_trace_test.json";
  SystemConfig cfg = SystemConfig::small_test();
  cfg.governor.mode = OffloadMode::kAlways;
  cfg.trace_path = path;
  auto wl = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r = Simulator(cfg).run(*wl);
  EXPECT_GT(r.stats.get("trace.events"), 0.0);

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_GT(std::ftell(f), 100);
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sndp
