// Exact stats fingerprint (ctest label: integration).
//
// The golden pins allow ±0.02, so they cannot show that a change meant
// only to make the host run faster left the timing model untouched.  This
// test can: for each run it pins the SM cycle count and a 64-bit FNV-1a
// hash of the full sorted stats map, every value printed with %.17g, so a
// change to any stat anywhere changes the hash.
//
// The matrix mirrors the sndpsim identity matrix: every workload and
// operator at tiny scale under dyn-cache with fast-forward on, again under
// static 0.3 with naive stepping (`--no-ff`), and the weighted
// `BFS:2:0,VADD,KMN` tenant mix.  Re-pin only together with a deliberate
// timing-model change, and say so in the commit message.
#include <gtest/gtest.h>

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sndp.h"

namespace sndp {
namespace {

struct Pin {
  const char* id;  // "<workload>/<leg>" or "mix/weighted"
  Cycle sm_cycles;
  std::uint64_t stats_hash;
};

// The sndpsim defaults (-r 0.5, -e 1000) over SystemConfig::paper().
SystemConfig fingerprint_cfg(OffloadMode mode, double ratio, bool fast_forward) {
  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.mode = mode;
  cfg.governor.static_ratio = ratio;
  cfg.governor.epoch_cycles = 1000;
  cfg.fast_forward = fast_forward;
  return cfg;
}

std::uint64_t stats_hash(const StatSet& stats) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  char buf[64];
  auto mix = [&](const char* s, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      h ^= static_cast<unsigned char>(s[i]);
      h *= 0x100000001b3ull;
    }
  };
  for (const auto& [name, value] : stats.values()) {
    mix(name.data(), name.size());
    const int n = std::snprintf(buf, sizeof buf, "=%.17g\n", value);
    mix(buf, static_cast<std::size_t>(n));
  }
  return h;
}

RunResult run_pin(const std::string& id) {
  const std::size_t slash = id.find('/');
  const std::string name = id.substr(0, slash);
  const std::string leg = id.substr(slash + 1);
  if (name == "mix") {
    SystemConfig cfg = fingerprint_cfg(OffloadMode::kDynamicCache, 0.5, true);
    cfg.tenancy.arbiter = TenantArbiter::kWeightedShare;
    std::vector<std::unique_ptr<Workload>> wls;
    std::vector<TenantDesc> descs;
    for (const auto& [tenant, weight] :
         std::vector<std::pair<std::string, double>>{{"BFS", 2.0}, {"VADD", 1.0}, {"KMN", 1.0}}) {
      wls.push_back(make_workload(tenant, ProblemScale::kTiny));
      descs.push_back(TenantDesc{wls.back().get(), weight, 0});
    }
    return Simulator(cfg).run_tenants(descs, "BFS+VADD+KMN");
  }
  const SystemConfig cfg = leg == "dyn-cache"
                               ? fingerprint_cfg(OffloadMode::kDynamicCache, 0.5, true)
                               : fingerprint_cfg(OffloadMode::kStaticRatio, 0.3, false);
  auto wl = make_workload(name, ProblemScale::kTiny);
  return Simulator(cfg).run(*wl);
}

class StatsFingerprint : public ::testing::TestWithParam<Pin> {};

TEST_P(StatsFingerprint, MatchesPinnedCyclesAndStatsHash) {
  const Pin& pin = GetParam();
  const RunResult r = run_pin(pin.id);
  ASSERT_TRUE(r.completed) << pin.id;
  ASSERT_TRUE(r.verified) << pin.id;
  char got[64];
  std::snprintf(got, sizeof got, "0x%016" PRIx64, stats_hash(r.stats));
  EXPECT_EQ(r.sm_cycles, pin.sm_cycles) << pin.id << ": sm_cycles moved";
  EXPECT_EQ(stats_hash(r.stats), pin.stats_hash)
      << pin.id << ": stats hash moved to " << got;
}

// ctest lists each run under a name that ends with the raw bytes of its
// Pin, and those begin with the id pointer.  As string literals the ids
// landed wherever the linker put them, so the listed names moved with
// unrelated code and with the checkout path.  Back to back in one
// 256-byte-aligned table, in kPins order, each id sits at a fixed offset
// and the low byte of its pointer no longer moves.
alignas(256) constexpr char kIds[] =
    "BPROP/dyn-cache\0BFS/dyn-cache\0BICG/dyn-cache\0FWT/dyn-cache\0"
    "KMN/dyn-cache\0MiniFE/dyn-cache\0SP/dyn-cache\0STN/dyn-cache\0"
    "STCL/dyn-cache\0VADD/dyn-cache\0GEMM/dyn-cache\0SPMV/dyn-cache\0"
    "REDUCE/dyn-cache\0ATTN/dyn-cache\0BPROP/static-0.3-no-ff\0"
    "BFS/static-0.3-no-ff\0BICG/static-0.3-no-ff\0FWT/static-0.3-no-ff\0"
    "KMN/static-0.3-no-ff\0MiniFE/static-0.3-no-ff\0SP/static-0.3-no-ff\0"
    "STN/static-0.3-no-ff\0STCL/static-0.3-no-ff\0VADD/static-0.3-no-ff\0"
    "GEMM/static-0.3-no-ff\0SPMV/static-0.3-no-ff\0"
    "REDUCE/static-0.3-no-ff\0ATTN/static-0.3-no-ff\0mix/weighted";

// The entry of kIds that spells `want`; an id missing from it fails to compile.
consteval const char* id(std::string_view want) {
  for (std::size_t at = 0; at < sizeof kIds; at += std::char_traits<char>::length(kIds + at) + 1) {
    if (want == kIds + at) return kIds + at;
  }
  throw "pin id missing from kIds";
}

constexpr Pin kPins[] = {
    {id("BPROP/dyn-cache"), 5494, 0xedb5ed66208b1767ull},
    {id("BFS/dyn-cache"), 4712, 0xf8758c7e0a29be92ull},
    {id("BICG/dyn-cache"), 1472, 0x5bb4890edcba2032ull},
    {id("FWT/dyn-cache"), 1062, 0xc03356861f7e50efull},
    {id("KMN/dyn-cache"), 742, 0x63f3d5c61c8cb9b2ull},
    {id("MiniFE/dyn-cache"), 1962, 0x66d5fc543a5f5d50ull},
    {id("SP/dyn-cache"), 742, 0x1026cd26e0699689ull},
    {id("STN/dyn-cache"), 744, 0x179abc19c8468d5aull},
    {id("STCL/dyn-cache"), 1231, 0x4239cbbfb9faadddull},
    {id("VADD/dyn-cache"), 685, 0xf57f85800f6db965ull},
    {id("GEMM/dyn-cache"), 3538, 0x67c5c1f87a47a5ccull},
    {id("SPMV/dyn-cache"), 3816, 0x119753446e3fde5eull},
    {id("REDUCE/dyn-cache"), 2337, 0x07a7097e291de39cull},
    {id("ATTN/dyn-cache"), 5542, 0x76121accbfd7266dull},
    {id("BPROP/static-0.3-no-ff"), 5255, 0x2e00109551940d12ull},
    {id("BFS/static-0.3-no-ff"), 4964, 0x67000aa4c29e0712ull},
    {id("BICG/static-0.3-no-ff"), 1554, 0xaabc588380cf7020ull},
    {id("FWT/static-0.3-no-ff"), 954, 0x691c3bd3afa4cfaeull},
    {id("KMN/static-0.3-no-ff"), 739, 0x2a9a02dd2fcea55dull},
    {id("MiniFE/static-0.3-no-ff"), 1904, 0xa5b991e2dad60f2eull},
    {id("SP/static-0.3-no-ff"), 828, 0x1aea46b1f7006728ull},
    {id("STN/static-0.3-no-ff"), 1045, 0x9ee6036f3982a7fdull},
    {id("STCL/static-0.3-no-ff"), 1288, 0xabd1890a2c014f4cull},
    {id("VADD/static-0.3-no-ff"), 723, 0xa847847ca856eea4ull},
    {id("GEMM/static-0.3-no-ff"), 4321, 0x732f43aedcf2d46aull},
    {id("SPMV/static-0.3-no-ff"), 4030, 0x1217adbeafeb6e27ull},
    {id("REDUCE/static-0.3-no-ff"), 2337, 0xc58cfa412fbac067ull},
    {id("ATTN/static-0.3-no-ff"), 5809, 0x6be3a1394f562e5bull},
    {id("mix/weighted"), 4903, 0x48ca899521e4c541ull},
};

std::string pin_name(const ::testing::TestParamInfo<Pin>& info) {
  std::string s = info.param.id;
  for (char& c : s) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(Runs, StatsFingerprint, ::testing::ValuesIn(kPins), pin_name);

TEST(StatsFingerprint, CoversTheWholeMatrix) {
  // Every workload under both legs, plus the tenant mix.
  EXPECT_EQ(std::size(kPins), 2 * all_workload_names().size() + 1);
}

}  // namespace
}  // namespace sndp
