#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>

#include "engine/executor.h"
#include "obs/trace.h"
#include "workload/tpch.h"

namespace sgb::sql {
namespace {

using engine::Database;

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    workload::TpchConfig config;
    config.scale_factor = 0.02;
    workload::GenerateTpch(config).RegisterAll(db_.catalog());
  }

  std::string Explain(const std::string& sql) {
    auto result = db_.Explain(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value() : std::string();
  }

  Database db_;
};

TEST_F(ExplainTest, SimpleScanAndProject) {
  const std::string plan = Explain("SELECT c_custkey FROM customer");
  EXPECT_NE(plan.find("Project"), std::string::npos);
  EXPECT_NE(plan.find("TableScan customer"), std::string::npos);
}

TEST_F(ExplainTest, EquiJoinUsesHashJoin) {
  const std::string plan = Explain(
      "SELECT c_custkey FROM customer, orders "
      "WHERE c_custkey = o_custkey");
  EXPECT_NE(plan.find("HashJoin"), std::string::npos);
  EXPECT_EQ(plan.find("NestedLoopJoin"), std::string::npos);
}

TEST_F(ExplainTest, FilterIsPushedBelowJoin) {
  const std::string plan = Explain(
      "SELECT c_custkey FROM customer, orders "
      "WHERE c_custkey = o_custkey AND c_acctbal > 100 "
      "AND o_totalprice > 1000");
  // Both single-table predicates sit under the join, directly over scans.
  const size_t join_pos = plan.find("HashJoin");
  ASSERT_NE(join_pos, std::string::npos);
  const size_t filter1 = plan.find("Filter (#1(c_acctbal) > 100)");
  const size_t filter2 = plan.find("Filter (#2(o_totalprice) > 1000)");
  EXPECT_NE(filter1, std::string::npos) << plan;
  EXPECT_NE(filter2, std::string::npos) << plan;
  EXPECT_GT(filter1, join_pos);
  EXPECT_GT(filter2, join_pos);
}

TEST_F(ExplainTest, SimilarityGroupByShowsParameters) {
  const std::string plan = Explain(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ALL L2 WITHIN 0.5 "
      "ON-OVERLAP ELIMINATE");
  EXPECT_NE(plan.find("SimilarityGroupByAll"), std::string::npos);
  EXPECT_NE(plan.find("eps=0.5"), std::string::npos);
  EXPECT_NE(plan.find("ELIMINATE"), std::string::npos);
}

TEST_F(ExplainTest, ParallelClauseShowsDop) {
  const std::string plan = Explain(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ANY L2 WITHIN 0.5 "
      "PARALLEL 4");
  EXPECT_NE(plan.find("dop=4"), std::string::npos) << plan;

  const std::string auto_plan = Explain(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ANY L2 WITHIN 0.5 "
      "PARALLEL 0");
  EXPECT_NE(auto_plan.find("dop=auto"), std::string::npos) << auto_plan;

  // Serial plans stay terse: no dop annotation.
  const std::string serial_plan = Explain(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ANY L2 WITHIN 0.5");
  EXPECT_EQ(serial_plan.find("dop="), std::string::npos) << serial_plan;
}

TEST_F(ExplainTest, SessionDefaultDopAppliesWithoutParallelClause) {
  db_.set_default_sgb_dop(2);
  const std::string plan = Explain(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ANY L2 WITHIN 0.5");
  EXPECT_NE(plan.find("dop=2"), std::string::npos) << plan;
  // An explicit PARALLEL clause wins over the session default.
  const std::string override_plan = Explain(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ANY L2 WITHIN 0.5 "
      "PARALLEL 1");
  EXPECT_EQ(override_plan.find("dop="), std::string::npos) << override_plan;
  db_.set_default_sgb_dop(std::nullopt);
}

TEST_F(ExplainTest, CrossJoinFallsBackToNestedLoop) {
  const std::string plan =
      Explain("SELECT c_custkey FROM customer, supplier");
  EXPECT_NE(plan.find("NestedLoopJoin (cross)"), std::string::npos);
}

TEST_F(ExplainTest, SortAndLimitAppear) {
  const std::string plan = Explain(
      "SELECT c_custkey FROM customer ORDER BY c_custkey DESC LIMIT 3");
  EXPECT_NE(plan.find("Limit 3"), std::string::npos);
  EXPECT_NE(plan.find("desc"), std::string::npos);
}

TEST_F(ExplainTest, ExplainOfInvalidSqlFails) {
  EXPECT_FALSE(db_.Explain("SELECT nope FROM customer").ok());
}

TEST_F(ExplainTest, ExplainAcceptsExplainPrefixedSql) {
  const std::string plan = Explain("EXPLAIN SELECT c_custkey FROM customer");
  EXPECT_NE(plan.find("TableScan customer"), std::string::npos);
}

// ---- EXPLAIN ANALYZE -----------------------------------------------------

class ExplainAnalyzeTest : public ExplainTest {
 protected:
  std::string Analyze(const std::string& sql) {
    auto result = db_.ExplainAnalyze(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? result.value() : std::string();
  }

  /// Runs `SELECT count(*) ...` and returns the count.
  int64_t Count(const std::string& sql) {
    auto result = db_.Query(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok() || result.value().NumRows() != 1) return -1;
    return result.value().rows()[0][0].AsInt();
  }
};

TEST_F(ExplainAnalyzeTest, AnnotatesPerOperatorRowCounts) {
  const int64_t customers = Count("SELECT count(*) FROM customer");
  ASSERT_GT(customers, 0);
  const std::string plan = Analyze("SELECT c_custkey FROM customer");
  // Both the scan and the projection saw every customer row.
  const std::string annotation = "rows=" + std::to_string(customers);
  const size_t first = plan.find(annotation);
  ASSERT_NE(first, std::string::npos) << plan;
  EXPECT_NE(plan.find(annotation, first + 1), std::string::npos) << plan;
  EXPECT_NE(plan.find("time="), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, FilterShowsReducedRowCount) {
  const int64_t total = Count("SELECT count(*) FROM customer");
  const int64_t kept =
      Count("SELECT count(*) FROM customer WHERE c_acctbal > 0");
  ASSERT_GT(total, kept);  // TPC-H account balances include negatives
  const std::string plan =
      Analyze("SELECT c_custkey FROM customer WHERE c_acctbal > 0");
  EXPECT_NE(plan.find("Filter"), std::string::npos);
  EXPECT_NE(plan.find("rows=" + std::to_string(kept)), std::string::npos)
      << plan;
  EXPECT_NE(plan.find("rows=" + std::to_string(total)), std::string::npos)
      << plan;
}

TEST_F(ExplainAnalyzeTest, SgbOperatorReportsDistanceComputations) {
  const std::string plan = Analyze(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ALL L2 WITHIN 0.5 "
      "ON-OVERLAP ELIMINATE");
  EXPECT_NE(plan.find("SimilarityGroupByAll"), std::string::npos) << plan;
  EXPECT_NE(plan.find("dist_comps="), std::string::npos) << plan;
  EXPECT_NE(plan.find("groups="), std::string::npos) << plan;
  EXPECT_NE(plan.find("time="), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, ParallelSgbReportsPerWorkerBreakdown) {
  // Needs a table large enough to clear the parallel path's small-input
  // cutoff; the fixture's SF 0.02 customer (20 rows) is not, so use a
  // bigger generation for this test.
  Database big;
  workload::TpchConfig config;
  config.scale_factor = 0.2;  // 200 customers
  workload::GenerateTpch(config).RegisterAll(big.catalog());
  auto result = big.ExplainAnalyze(
      "SELECT count(*) FROM customer "
      "GROUP BY c_acctbal, c_custkey DISTANCE-TO-ANY L2 WITHIN 0.5 "
      "PARALLEL 2");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::string plan = result.value();
  EXPECT_NE(plan.find("dop=2"), std::string::npos) << plan;
  EXPECT_NE(plan.find("partitions="), std::string::npos) << plan;
  EXPECT_NE(plan.find("w0.points="), std::string::npos) << plan;
  EXPECT_NE(plan.find("w0.dist_comps="), std::string::npos) << plan;
  EXPECT_NE(plan.find("w1.points="), std::string::npos) << plan;
}

TEST_F(ExplainAnalyzeTest, ExplainAnalyzePrefixedQueryReturnsPlanTable) {
  auto result = db_.Query(
      "EXPLAIN ANALYZE SELECT c_custkey FROM customer LIMIT 3");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const engine::Table& table = result.value();
  ASSERT_EQ(table.schema().size(), 1u);
  EXPECT_EQ(table.schema().column(0).name, "plan");
  ASSERT_GT(table.NumRows(), 1u);
  EXPECT_NE(table.rows()[0][0].ToString().find("rows=3"),
            std::string::npos);
}

TEST_F(ExplainAnalyzeTest, ExplainPrefixedQueryDoesNotExecute) {
  auto result = db_.Query("EXPLAIN SELECT c_custkey FROM customer");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const engine::Table& table = result.value();
  ASSERT_GT(table.NumRows(), 0u);
  EXPECT_EQ(table.rows()[0][0].ToString().find("rows="), std::string::npos);
}

TEST_F(ExplainAnalyzeTest, QueryTraceRecordsParsePlanExecuteSpans) {
  obs::QueryTrace trace;
  auto result = db_.Query("SELECT count(*) FROM customer", &trace);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  trace.Finish();
  const obs::TraceSpan& root = trace.root();
  ASSERT_EQ(root.children.size(), 3u);
  EXPECT_EQ(root.children[0].name, "parse");
  EXPECT_EQ(root.children[1].name, "plan");
  EXPECT_EQ(root.children[2].name, "execute");
  EXPECT_DOUBLE_EQ(root.children[2].attributes.at("rows"), 1.0);
}

}  // namespace
}  // namespace sgb::sql
