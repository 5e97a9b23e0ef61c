#include "engine/operators.h"

#include <gtest/gtest.h>

#include <memory>

namespace sgb::engine {
namespace {

TablePtr NumbersTable(int n) {
  auto t = std::make_shared<Table>(Schema({
      Column{"id", DataType::kInt64, ""},
      Column{"v", DataType::kDouble, ""},
  }));
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(
        t->Append({Value::Int(i), Value::Double(i * 0.5)}).ok());
  }
  return t;
}

/// Drains an opened operator batch by batch; returns the row count.
size_t DrainCount(Operator& op) {
  RowBatch batch;
  size_t rows = 0;
  while (op.NextBatch(&batch)) rows += batch.size();
  return rows;
}

Table RunPlan(OperatorPtr op) {
  auto result = Materialize(*op);
  EXPECT_TRUE(result.ok());
  return std::move(result).value();
}

TEST(OperatorsTest, TableScanEmitsAllRows) {
  auto scan = MakeTableScan(NumbersTable(5), "t");
  const Table out = RunPlan(std::move(scan));
  EXPECT_EQ(out.NumRows(), 5u);
  EXPECT_EQ(out.schema().column(0).qualifier, "t");
}

TEST(OperatorsTest, ScanIsReopenable) {
  auto scan = MakeTableScan(NumbersTable(3));
  scan->Open();
  EXPECT_EQ(DrainCount(*scan), 3u);
  scan->Open();
  EXPECT_EQ(DrainCount(*scan), 3u);
}

TEST(OperatorStatsTest, CountsRowsPerOperator) {
  auto plan = MakeFilter(MakeTableScan(NumbersTable(10)),
                         MakeBinary(BinaryOp::kGe, MakeColumnRef(0, "id"),
                                    MakeLiteral(Value::Int(7))));
  const Operator* scan = plan->children()[0];
  plan->Open();
  DrainCount(*plan);
  EXPECT_EQ(plan->stats().rows_produced, 3u);
  EXPECT_EQ(scan->stats().rows_produced, 10u);
}

TEST(OperatorStatsTest, ResetOnReopen) {
  auto scan = MakeTableScan(NumbersTable(3));
  scan->Open();
  DrainCount(*scan);
  EXPECT_EQ(scan->stats().rows_produced, 3u);
  scan->Open();
  EXPECT_EQ(scan->stats().rows_produced, 0u);
  DrainCount(*scan);
  EXPECT_EQ(scan->stats().rows_produced, 3u);
}

TEST(OperatorStatsTest, BlockingOperatorsReportMemoryAndExtras) {
  std::vector<SortKey> keys;
  keys.push_back(SortKey{MakeColumnRef(0, "id"), /*ascending=*/false});
  auto plan = MakeSort(MakeTableScan(NumbersTable(100)), std::move(keys));
  plan->Open();
  EXPECT_GT(plan->stats().peak_memory_bytes, 0u);
  DrainCount(*plan);
  const std::string annotated = ExplainAnalyzePlan(*plan);
  EXPECT_NE(annotated.find("rows=100"), std::string::npos) << annotated;
  EXPECT_NE(annotated.find("mem="), std::string::npos) << annotated;
}

TEST(OperatorsTest, FilterKeepsMatchingRows) {
  auto plan = MakeFilter(MakeTableScan(NumbersTable(10)),
                         MakeBinary(BinaryOp::kGe, MakeColumnRef(0, "id"),
                                    MakeLiteral(Value::Int(7))));
  const Table out = RunPlan(std::move(plan));
  EXPECT_EQ(out.NumRows(), 3u);
}

TEST(OperatorsTest, ProjectComputesExpressions) {
  std::vector<ExprPtr> exprs;
  exprs.push_back(MakeBinary(BinaryOp::kMul, MakeColumnRef(0, "id"),
                             MakeLiteral(Value::Int(10))));
  auto plan = MakeProject(MakeTableScan(NumbersTable(3)), std::move(exprs),
                          {Column{"ten_x", DataType::kInt64, ""}});
  const Table out = RunPlan(std::move(plan));
  ASSERT_EQ(out.NumRows(), 3u);
  EXPECT_EQ(out.rows()[2][0].AsInt(), 20);
  EXPECT_EQ(out.schema().column(0).name, "ten_x");
}

TEST(OperatorsTest, HashAggregateByKey) {
  auto t = std::make_shared<Table>(Schema({
      Column{"k", DataType::kString, ""},
      Column{"v", DataType::kInt64, ""},
  }));
  ASSERT_TRUE(t->Append({Value::Str("a"), Value::Int(1)}).ok());
  ASSERT_TRUE(t->Append({Value::Str("b"), Value::Int(10)}).ok());
  ASSERT_TRUE(t->Append({Value::Str("a"), Value::Int(2)}).ok());

  std::vector<ExprPtr> group_exprs;
  group_exprs.push_back(MakeColumnRef(0, "k"));
  std::vector<AggregateSpec> aggs;
  AggregateSpec sum;
  sum.kind = AggregateKind::kSum;
  sum.args.push_back(MakeColumnRef(1, "v"));
  sum.output_name = "sum_v";
  aggs.push_back(std::move(sum));

  auto plan = MakeHashAggregate(MakeTableScan(t), std::move(group_exprs),
                                {Column{"k", DataType::kString, ""}},
                                std::move(aggs));
  const Table out = RunPlan(std::move(plan));
  ASSERT_EQ(out.NumRows(), 2u);
  // Output order follows first appearance: a then b.
  EXPECT_EQ(out.rows()[0][0].AsString(), "a");
  EXPECT_EQ(out.rows()[0][1].AsInt(), 3);
  EXPECT_EQ(out.rows()[1][0].AsString(), "b");
  EXPECT_EQ(out.rows()[1][1].AsInt(), 10);
}

TEST(OperatorsTest, GlobalAggregateOnEmptyInputEmitsOneRow) {
  auto empty = std::make_shared<Table>(
      Schema({Column{"v", DataType::kInt64, ""}}));
  std::vector<AggregateSpec> aggs;
  AggregateSpec count;
  count.kind = AggregateKind::kCountStar;
  count.output_name = "n";
  aggs.push_back(std::move(count));
  auto plan =
      MakeHashAggregate(MakeTableScan(empty), {}, {}, std::move(aggs));
  const Table out = RunPlan(std::move(plan));
  ASSERT_EQ(out.NumRows(), 1u);
  EXPECT_EQ(out.rows()[0][0].AsInt(), 0);
}

TEST(OperatorsTest, HashJoinMatchesKeys) {
  auto left = std::make_shared<Table>(Schema({
      Column{"id", DataType::kInt64, "l"},
      Column{"name", DataType::kString, "l"},
  }));
  ASSERT_TRUE(left->Append({Value::Int(1), Value::Str("one")}).ok());
  ASSERT_TRUE(left->Append({Value::Int(2), Value::Str("two")}).ok());
  ASSERT_TRUE(left->Append({Value::Int(3), Value::Str("three")}).ok());

  auto right = std::make_shared<Table>(Schema({
      Column{"ref", DataType::kInt64, "r"},
      Column{"w", DataType::kInt64, "r"},
  }));
  ASSERT_TRUE(right->Append({Value::Int(2), Value::Int(20)}).ok());
  ASSERT_TRUE(right->Append({Value::Int(2), Value::Int(21)}).ok());
  ASSERT_TRUE(right->Append({Value::Int(9), Value::Int(90)}).ok());

  std::vector<ExprPtr> lk;
  lk.push_back(MakeColumnRef(0, "id"));
  std::vector<ExprPtr> rk;
  rk.push_back(MakeColumnRef(0, "ref"));
  auto plan = MakeHashJoin(MakeTableScan(left), MakeTableScan(right),
                           std::move(lk), std::move(rk));
  const Table out = RunPlan(std::move(plan));
  ASSERT_EQ(out.NumRows(), 2u);  // id=2 matches twice
  EXPECT_EQ(out.schema().size(), 4u);
  EXPECT_EQ(out.rows()[0][1].AsString(), "two");
}

TEST(OperatorsTest, HashJoinIgnoresNullKeys) {
  auto left = std::make_shared<Table>(
      Schema({Column{"id", DataType::kInt64, ""}}));
  ASSERT_TRUE(left->Append({Value::Null()}).ok());
  auto right = std::make_shared<Table>(
      Schema({Column{"id", DataType::kInt64, ""}}));
  ASSERT_TRUE(right->Append({Value::Null()}).ok());

  std::vector<ExprPtr> lk;
  lk.push_back(MakeColumnRef(0, "id"));
  std::vector<ExprPtr> rk;
  rk.push_back(MakeColumnRef(0, "id"));
  auto plan = MakeHashJoin(MakeTableScan(left), MakeTableScan(right),
                           std::move(lk), std::move(rk));
  EXPECT_EQ(RunPlan(std::move(plan)).NumRows(), 0u);
}

TEST(OperatorsTest, NestedLoopCrossJoin) {
  auto plan = MakeNestedLoopJoin(MakeTableScan(NumbersTable(3)),
                                 MakeTableScan(NumbersTable(4)), nullptr);
  EXPECT_EQ(RunPlan(std::move(plan)).NumRows(), 12u);
}

TEST(OperatorsTest, NestedLoopWithPredicate) {
  auto pred = MakeBinary(BinaryOp::kLt, MakeColumnRef(0, "l.id"),
                         MakeColumnRef(2, "r.id"));
  auto plan = MakeNestedLoopJoin(MakeTableScan(NumbersTable(3)),
                                 MakeTableScan(NumbersTable(3)),
                                 std::move(pred));
  EXPECT_EQ(RunPlan(std::move(plan)).NumRows(), 3u);  // (0,1),(0,2),(1,2)
}

TEST(OperatorsTest, SortAscendingAndDescending) {
  auto t = std::make_shared<Table>(
      Schema({Column{"v", DataType::kInt64, ""}}));
  for (const int v : {3, 1, 2}) {
    ASSERT_TRUE(t->Append({Value::Int(v)}).ok());
  }
  std::vector<SortKey> keys;
  keys.push_back(SortKey{MakeColumnRef(0, "v"), /*ascending=*/false});
  const Table out = RunPlan(MakeSort(MakeTableScan(t), std::move(keys)));
  EXPECT_EQ(out.rows()[0][0].AsInt(), 3);
  EXPECT_EQ(out.rows()[2][0].AsInt(), 1);
}

TEST(OperatorsTest, LimitTruncates) {
  const Table out = RunPlan(MakeLimit(MakeTableScan(NumbersTable(10)), 4));
  EXPECT_EQ(out.NumRows(), 4u);
  EXPECT_EQ(RunPlan(MakeLimit(MakeTableScan(NumbersTable(2)), 100)).NumRows(),
            2u);
}

}  // namespace
}  // namespace sgb::engine
