// Tests for the JSON writer and the parallel sweep runner: serial and
// parallel executions of the same sweep must be indistinguishable (modulo
// wall-clock metadata), per-point failures must be contained, and the JSON
// export must be deterministic and structurally sound.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string_view>

#include "sndp.h"

namespace sndp {
namespace {

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(Json, EscapesControlAndQuoteCharacters) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b\\c"), "a\\\"b\\\\c");
  EXPECT_EQ(json_escape("\b\f\n\r\t"), "\\b\\f\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01\x1f")), "\\u0001\\u001f");
}

TEST(Json, NumbersAreDeterministicAndIntegerFriendly) {
  EXPECT_EQ(JsonWriter::number(0.0), "0");
  EXPECT_EQ(JsonWriter::number(123456789.0), "123456789");
  EXPECT_EQ(JsonWriter::number(-42.0), "-42");
  EXPECT_EQ(JsonWriter::number(0.5), "0.5");
  EXPECT_EQ(JsonWriter::number(1.0 / 0.0), "null");
  EXPECT_EQ(JsonWriter::number(0.0 / 0.0), "null");
  // Round-trippable precision for non-integral values.
  EXPECT_EQ(JsonWriter::number(0.1), "0.10000000000000001");
}

TEST(Json, NumberBoundaryCases) {
  // Negative zero normalizes to plain "0" (two runs whose only difference
  // is a -0.0 vs 0.0 counter must still diff clean).
  EXPECT_EQ(JsonWriter::number(-0.0), "0");
  // 2^53 is the largest double range where integers are exact; the integer
  // fast path covers everything strictly below it and %.17g takes over at
  // the boundary — both sides must still print digits-only.
  EXPECT_EQ(JsonWriter::number(9007199254740991.0), "9007199254740991");  // 2^53-1
  EXPECT_EQ(JsonWriter::number(9007199254740992.0), "9007199254740992");  // 2^53
  EXPECT_EQ(JsonWriter::number(-9007199254740991.0), "-9007199254740991");
  EXPECT_EQ(JsonWriter::number(-1.0 / 0.0), "null");
  // Integral doubles past 2^53 take the %.17g path but still print
  // digits-only (exponent 16 < the 17-digit precision keeps %g fixed).
  EXPECT_EQ(JsonWriter::number(1.5e16), "15000000000000000");
}

TEST(Json, WriterBuildsNestedDocuments) {
  JsonWriter w;
  w.begin_object();
  w.key("name").value("x\ny");
  w.key("count").value(std::uint64_t{3});
  w.key("ok").value(true);
  w.key("list").begin_array().value(1).value(2.5).null().end_array();
  w.key("inner").begin_object().key("d").value(0.25).end_object();
  w.end_object();
  EXPECT_EQ(w.str(),
            "{\"name\":\"x\\ny\",\"count\":3,\"ok\":true,"
            "\"list\":[1,2.5,null],\"inner\":{\"d\":0.25}}");
}

TEST(Json, WriterRejectsMalformedSequences) {
  JsonWriter w;
  w.begin_object();
  EXPECT_THROW(w.value(1.0), std::logic_error);   // value without key
  EXPECT_THROW(w.end_array(), std::logic_error);  // wrong closer
  EXPECT_THROW(w.str(), std::logic_error);        // unterminated scope
}

// ---------------------------------------------------------------------------
// SweepRunner
// ---------------------------------------------------------------------------

SweepPoint test_point(const std::string& workload, OffloadMode mode) {
  SweepPoint p;
  p.id = workload + "/" + std::to_string(static_cast<int>(mode));
  p.tenants = {{workload}};
  p.scale = ProblemScale::kTiny;
  p.cfg = SystemConfig::small_test();
  p.cfg.governor.mode = mode;
  p.cfg.governor.epoch_cycles = 500;
  return p;
}

std::vector<SweepOutcome> run_sweep(unsigned jobs) {
  SweepRunner runner({.jobs = jobs});
  for (const char* wl : {"VADD", "BFS", "STN"}) {
    runner.add(test_point(wl, OffloadMode::kOff));
    runner.add(test_point(wl, OffloadMode::kAlways));
    runner.add(test_point(wl, OffloadMode::kDynamicCache));
  }
  return runner.run();
}

TEST(Sweep, ParallelMatchesSerialExactly) {
  const auto serial = run_sweep(1);
  const auto parallel = run_sweep(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    SCOPED_TRACE(serial[i].point.id);
    ASSERT_TRUE(serial[i].ran);
    ASSERT_TRUE(parallel[i].ran);
    EXPECT_EQ(serial[i].point.id, parallel[i].point.id);
    const RunResult& a = serial[i].result;
    const RunResult& b = parallel[i].result;
    EXPECT_EQ(a.sm_cycles, b.sm_cycles);
    EXPECT_EQ(a.runtime_ps, b.runtime_ps);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_EQ(a.gpu_link_bytes, b.gpu_link_bytes);
    EXPECT_EQ(a.cube_link_bytes, b.cube_link_bytes);
    // The full counter map — every stat, not just headline metrics.
    EXPECT_EQ(a.stats.values(), b.stats.values());
  }
}

// The sweep's JSON with the (explicitly segregated) wall-clock metadata
// neutralized.
std::string json_modulo_timing(std::vector<SweepOutcome> outcomes) {
  for (auto& o : outcomes) {
    o.wall_seconds = 0.0;
    o.timed_out = false;
  }
  return sweep_to_json(outcomes, 0);
}

TEST(Sweep, JsonExportIsIdenticalModuloTiming) {
  EXPECT_EQ(json_modulo_timing(run_sweep(1)), json_modulo_timing(run_sweep(4)));
}

// One-kernel points around a weighted three-tenant mix point.
std::vector<SweepOutcome> run_mixed_sweep(unsigned jobs) {
  SweepRunner runner({.jobs = jobs});
  runner.add(test_point("VADD", OffloadMode::kDynamicCache));
  SweepPoint mix = test_point("BFS", OffloadMode::kDynamicCache);
  mix.id = "mix";
  mix.tenants = {{"BFS", 2.0}, {"VADD"}, {"KMN"}};
  mix.cfg.tenancy.arbiter = TenantArbiter::kWeightedShare;
  runner.add(std::move(mix));
  runner.add(test_point("KMN", OffloadMode::kAlways));
  return runner.run();
}

TEST(Sweep, TenantMixSweepIsIdenticalAcrossJobCounts) {
  const auto serial = run_mixed_sweep(1);
  for (const SweepOutcome& o : serial) ASSERT_TRUE(o.ran) << o.point.id << ": " << o.error;
  EXPECT_EQ(serial[1].point.workload(), "BFS+VADD+KMN");
  EXPECT_EQ(json_modulo_timing(serial), json_modulo_timing(run_mixed_sweep(4)));
}

TEST(Sweep, TenantMixPointMatchesRunTenants) {
  const SweepOutcome mix = run_mixed_sweep(1)[1];
  ASSERT_TRUE(mix.ran) << mix.error;
  std::vector<std::unique_ptr<Workload>> wls;
  std::vector<TenantDesc> descs;
  for (const TenantSpec& t : mix.point.tenants) {
    wls.push_back(make_workload(t.name, mix.point.scale));
    descs.push_back(TenantDesc{wls.back().get(), t.weight, t.priority});
  }
  SweepOutcome direct = mix;
  direct.result = Simulator(mix.point.cfg).run_tenants(descs, "BFS+VADD+KMN");
  EXPECT_TRUE(mix.result.completed && mix.result.verified);
  EXPECT_EQ(mix.result.tenants.size(), 3u);
  EXPECT_EQ(mix.result.workload, direct.result.workload);
  EXPECT_EQ(mix.result.stats.values(), direct.result.stats.values());
  // The JSON carries every TenantResult field and the rest of the RunResult.
  EXPECT_EQ(json_modulo_timing({mix}), json_modulo_timing({direct}));
}

TEST(Sweep, OutcomesKeepSubmissionOrder) {
  SweepRunner runner({.jobs = 3});
  const auto i0 = runner.add(test_point("VADD", OffloadMode::kOff));
  const auto i1 = runner.add(test_point("BFS", OffloadMode::kOff));
  const auto i2 = runner.add(test_point("VADD", OffloadMode::kAlways));
  runner.run();
  EXPECT_EQ(runner.outcome(i0).point.workload(), "VADD");
  EXPECT_EQ(runner.outcome(i1).point.workload(), "BFS");
  EXPECT_EQ(runner.outcome(i2).point.id, "VADD/1");
  EXPECT_EQ(i0, 0u);
  EXPECT_EQ(i1, 1u);
  EXPECT_EQ(i2, 2u);
}

// `json` with every number that follows a ':' replaced by 0.
std::string zero_values(const std::string& json) {
  constexpr std::string_view kNumberChars = "-+.0123456789eE";
  std::string out;
  for (std::size_t i = 0; i < json.size(); ++i) {
    out += json[i];
    if (json[i] != ':') continue;
    std::size_t end = i + 1;
    while (end < json.size() && kNumberChars.find(json[end]) != std::string_view::npos) ++end;
    if (end > i + 1) {
      out += '0';
      i = end - 1;
    }
  }
  return out;
}

TEST(Sweep, BadPointIsContainedAndReported) {
  SweepRunner runner({.jobs = 2});
  SweepPoint bad = test_point("VADD", OffloadMode::kOff);
  bad.id = "bad";
  bad.cfg.num_hmcs = 0;  // fails SystemConfig::validate()
  const auto good_idx = runner.add(test_point("VADD", OffloadMode::kOff));
  const auto bad_idx = runner.add(bad);
  runner.run();
  EXPECT_TRUE(runner.outcome(good_idx).ran);
  EXPECT_NO_THROW(runner.result(good_idx));
  EXPECT_FALSE(runner.outcome(bad_idx).ran);
  EXPECT_NE(runner.outcome(bad_idx).error.find("HMC count"), std::string::npos);
  EXPECT_THROW(runner.result(bad_idx), std::runtime_error);

  // The failed point's JSON record carries every object a point that ran
  // does, and its latency object is that of an empty summary: all zeros.
  const std::string json = sweep_to_json(runner.outcomes(), 2);
  const std::size_t bad_at = json.find("{\"id\":\"bad\"");
  ASSERT_NE(bad_at, std::string::npos);
  const std::string good_rec = json.substr(0, bad_at);
  const std::string bad_rec = json.substr(bad_at);
  for (const char* key : {"\"stall\":{", "\"traffic\":{", "\"energy_j\":{", "\"counters\":{",
                          "\"timeline\":[", "\"latency\":{", "\"cycle_stack\":{", "\"stats\":{",
                          "\"timing\":{"}) {
    ASSERT_NE(good_rec.find(key), std::string::npos) << key;
    ASSERT_NE(bad_rec.find(key), std::string::npos) << key;
  }
  auto latency_of = [](const std::string& rec) {
    const std::size_t from = rec.find("\"latency\":{");
    return rec.substr(from, rec.find(",\"cycle_stack\":", from) - from);
  };
  const std::string good_latency = latency_of(good_rec);
  EXPECT_EQ(good_latency.find("\"finished\":0,"), std::string::npos);
  EXPECT_EQ(latency_of(bad_rec), zero_values(good_latency));
}

TEST(Sweep, WallClockTimeoutAbortsPoint) {
  SweepRunner runner({.jobs = 1, .point_timeout_s = 1e-9});
  SweepPoint p = test_point("KMN", OffloadMode::kOff);
  p.scale = ProblemScale::kSmall;  // long enough to hit the first poll
  const auto idx = runner.add(p);
  runner.run();
  const SweepOutcome& o = runner.outcome(idx);
  ASSERT_TRUE(o.ran);
  EXPECT_TRUE(o.timed_out);
  EXPECT_TRUE(o.result.aborted);
  EXPECT_FALSE(o.result.completed);
}

TEST(Sweep, TimeoutIsContainedToTheOffendingPoint) {
  // One starving point must not poison its siblings: they complete,
  // verify, and keep their submission slots, while the timed-out point is
  // flagged in both the outcome and the exported stats.
  SweepRunner runner({.jobs = 2, .point_timeout_s = 1e-9});
  SweepPoint slow = test_point("KMN", OffloadMode::kOff);
  slow.id = "slow";
  slow.scale = ProblemScale::kSmall;
  const auto slow_idx = runner.add(slow);
  const auto fast_idx = runner.add(test_point("VADD", OffloadMode::kOff));
  runner.run();

  const SweepOutcome& timed = runner.outcome(slow_idx);
  ASSERT_TRUE(timed.ran);
  EXPECT_TRUE(timed.timed_out);
  EXPECT_TRUE(timed.result.aborted);
  EXPECT_FALSE(timed.result.completed);
  EXPECT_FALSE(timed.result.verified);
  EXPECT_DOUBLE_EQ(timed.result.stats.get("sim.aborted"), 1.0);
  EXPECT_DOUBLE_EQ(timed.result.stats.get("sim.completed"), 0.0);
  // An abort is not a valve hit: the overshoot diagnostic stays zero.
  EXPECT_DOUBLE_EQ(timed.result.stats.get("sim.valve_overshoot_ps"), 0.0);

  // KMN at kSmall needs far longer than one abort-poll burst; the partial
  // run must have stopped early rather than simulated to the end.
  EXPECT_LT(timed.result.runtime_ps, SystemConfig::small_test().max_time_ps);

  const SweepOutcome& ok = runner.outcome(fast_idx);
  ASSERT_TRUE(ok.ran);
  EXPECT_FALSE(ok.timed_out);
  EXPECT_TRUE(ok.result.completed);
  EXPECT_TRUE(ok.result.verified);

  const std::string json = sweep_to_json(runner.outcomes(), 2);
  EXPECT_NE(json.find("\"timed_out\":true"), std::string::npos);
  EXPECT_NE(json.find("\"timed_out\":false"), std::string::npos);
}

TEST(Sweep, AbortPollIsPolledUntilItFires) {
  // The poll is sampled periodically during the run (every burst), not just
  // once at the start: a poll that turns true after N samples still aborts,
  // and a finished run stops consulting it.
  SystemConfig cfg = SystemConfig::small_test();
  unsigned calls = 0;
  Simulator sim(cfg);
  sim.set_abort_poll([&calls] { return ++calls >= 3; });
  auto wl = make_workload("KMN", ProblemScale::kSmall);
  const RunResult r = sim.run(*wl);
  EXPECT_TRUE(r.aborted);
  EXPECT_EQ(calls, 3u);

  // A quick run that completes before the poll budget is exhausted reports
  // a clean (non-aborted) completion.
  unsigned calls2 = 0;
  Simulator sim2(cfg);
  sim2.set_abort_poll([&calls2] { ++calls2; return false; });
  auto wl2 = make_workload("VADD", ProblemScale::kTiny);
  const RunResult r2 = sim2.run(*wl2);
  EXPECT_TRUE(r2.completed);
  EXPECT_FALSE(r2.aborted);
  EXPECT_DOUBLE_EQ(r2.stats.get("sim.aborted"), 0.0);
}

TEST(Sweep, JsonExportIsStructurallySound) {
  SweepRunner runner({.jobs = 2});
  runner.add(test_point("VADD", OffloadMode::kOff));
  runner.add(test_point("VADD", OffloadMode::kDynamicCache));
  runner.run();
  const std::string json = sweep_to_json(runner.outcomes(), 2);
  EXPECT_NE(json.find("\"schema\":\"sndp-sweep-v1\""), std::string::npos);
  EXPECT_NE(json.find("\"id\":\"VADD/0\""), std::string::npos);
  EXPECT_NE(json.find("\"sim.sm_cycles\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs\":2"), std::string::npos);
  long depth = 0;
  for (char c : json) {
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  const std::string path = ::testing::TempDir() + "/sndp_sweep_test.json";
  ASSERT_TRUE(write_sweep_json(path, runner.outcomes(), 2));
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  EXPECT_EQ(static_cast<std::size_t>(std::ftell(f)), json.size() + 1);  // + newline
  std::fclose(f);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace sndp
