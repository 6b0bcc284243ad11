// Differential-oracle tests (ctest label: diff).  Every workload, run
// through the timing simulator under the full configuration matrix, must
// produce a final memory image byte-identical to the reference
// interpreter's.  This is the repo's strongest correctness gate: a
// single corrupted byte anywhere in the memory system fails it.
#include <gtest/gtest.h>

#include "sndp.h"

namespace sndp {
namespace {

SystemConfig oracle_base() {
  SystemConfig cfg = SystemConfig::paper();
  cfg.governor.epoch_cycles = 1000;  // scaled epoch, as the benches use
  return cfg;
}

TEST(OracleMatrix, CoversTheClaimedConfigurations) {
  const auto points = oracle_matrix(oracle_base());
  ASSERT_EQ(points.size(), 13u);
  std::vector<std::string> labels;
  for (const auto& p : points) labels.push_back(p.label);
  EXPECT_EQ(labels[0], "baseline");
  EXPECT_NE(std::find(labels.begin(), labels.end(), "ndp@0.25"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "dyn-cache"), labels.end());
  EXPECT_NE(std::find(labels.begin(), labels.end(), "ndp@1.00/1-stack"), labels.end());
  // The stack-count points really change the topology.
  EXPECT_EQ(points[points.size() - 4].cfg.num_hmcs, 4u);
  EXPECT_EQ(points[points.size() - 6].cfg.num_hmcs, 1u);
  // The placement-policy points really change the policy, and the migration
  // point's threshold is low enough that pages move during a tiny run.
  EXPECT_EQ(points[points.size() - 3].cfg.placement.policy,
            PlacementPolicyKind::kFirstTouch);
  EXPECT_EQ(points[points.size() - 2].cfg.placement.policy,
            PlacementPolicyKind::kLocality);
  EXPECT_EQ(points.back().cfg.placement.policy, PlacementPolicyKind::kMigration);
  EXPECT_LE(points.back().cfg.placement.migration_threshold, 16u);
}

class DiffOracle : public ::testing::TestWithParam<std::string> {};

TEST_P(DiffOracle, SimulatorMatchesReferenceByteForByte) {
  const DiffReport report =
      diff_check_workload(GetParam(), ProblemScale::kTiny, oracle_matrix(oracle_base()));
  ASSERT_TRUE(report.ref_completed) << report.ref_error;
  EXPECT_TRUE(report.ok()) << to_string(report);
  EXPECT_EQ(report.outcomes.size(), 13u);
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, DiffOracle,
                         ::testing::ValuesIn(workload_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// Operator library (src/workloads/ops): same full matrix as the Table-1
// kernels.  The operators are built to stress the offload pipeline (IDIV
// index math, data-dependent gathers, fat accumulator boundaries, guarded
// non-self-reading producers), so byte-identity here is the strongest
// analyzer/codegen gate in the tier.
INSTANTIATE_TEST_SUITE_P(Operators, DiffOracle,
                         ::testing::ValuesIn(operator_names()),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
                           }
                           return n;
                         });

// Multi-tenant axis: representative slice of the matrix (full breadth is
// covered single-tenant above; tenancy changes scheduling, not semantics,
// so the interesting points are the ones with the most concurrency and
// placement churn).
std::vector<OraclePoint> tenant_points() {
  const auto all = oracle_matrix(oracle_base());
  const std::vector<std::string> keep = {"baseline", "ndp@0.50", "dyn-cache",
                                         "ndp@1.00/1-stack", "ndp@1.00/migration"};
  std::vector<OraclePoint> points;
  for (const auto& p : all) {
    if (std::find(keep.begin(), keep.end(), p.label) != keep.end()) points.push_back(p);
  }
  return points;
}

TEST(DiffOracleTenants, HomogeneousPairMatchesIndependentReplay) {
  const DiffReport report =
      diff_check_tenants({"VADD", "VADD"}, ProblemScale::kTiny, tenant_points());
  ASSERT_TRUE(report.ref_completed) << report.ref_error;
  EXPECT_TRUE(report.ok()) << to_string(report);
  EXPECT_EQ(report.outcomes.size(), 5u);
}

TEST(DiffOracleTenants, HeterogeneousTripleMatchesIndependentReplay) {
  const DiffReport report =
      diff_check_tenants({"BFS", "VADD", "KMN"}, ProblemScale::kTiny, tenant_points());
  ASSERT_TRUE(report.ref_completed) << report.ref_error;
  EXPECT_TRUE(report.ok()) << to_string(report);
  EXPECT_EQ(report.outcomes.size(), 5u);
}

TEST(DiffOracle, IncompleteSimulationIsReportedNotMasked) {
  // A point whose run hits the safety valve must surface as a failed
  // outcome with a diagnosis, never as a vacuous "match".
  std::vector<OraclePoint> points;
  OraclePoint p;
  p.label = "starved";
  p.cfg = oracle_base();
  p.cfg.governor.mode = OffloadMode::kOff;
  p.cfg.max_time_ps = 50'000;  // 50 ns: cannot finish
  points.push_back(p);
  const DiffReport report = diff_check_workload("VADD", ProblemScale::kTiny, points);
  ASSERT_TRUE(report.ref_completed) << report.ref_error;
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_FALSE(report.ok());
  EXPECT_FALSE(report.outcomes[0].sim_completed);
  EXPECT_NE(report.outcomes[0].detail.find("valve"), std::string::npos)
      << report.outcomes[0].detail;
  EXPECT_NE(to_string(report).find("FAIL"), std::string::npos);
}

}  // namespace
}  // namespace sndp
