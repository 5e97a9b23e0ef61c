#include "engine/aggregate.h"

#include <gtest/gtest.h>

#include <cmath>

#include "engine/row_batch.h"

namespace sgb::engine {
namespace {

AggregateSpec Spec(AggregateKind kind, size_t arg_index = 0) {
  AggregateSpec spec;
  spec.kind = kind;
  for (size_t i = 0; i < AggregateArity(kind); ++i) {
    spec.args.push_back(MakeColumnRef(arg_index + i, "arg"));
  }
  spec.output_name = "out";
  return spec;
}

Value RunAggregate(const AggregateSpec& spec, const std::vector<Row>& rows) {
  auto state = CreateAggregateState(spec);
  for (const Row& row : rows) state->Add(row);
  return state->Finalize();
}

TEST(AggregateTest, NameResolution) {
  EXPECT_EQ(AggregateKindFromName("COUNT").value(), AggregateKind::kCount);
  EXPECT_EQ(AggregateKindFromName("Sum").value(), AggregateKind::kSum);
  EXPECT_EQ(AggregateKindFromName("average").value(), AggregateKind::kAvg);
  EXPECT_EQ(AggregateKindFromName("list_id").value(),
            AggregateKind::kArrayAgg);
  EXPECT_EQ(AggregateKindFromName("ST_Polygon").value(),
            AggregateKind::kStPolygon);
  EXPECT_FALSE(AggregateKindFromName("frobnicate").ok());
}

TEST(AggregateTest, CountStarCountsRows) {
  const std::vector<Row> rows = {{Value::Null()}, {Value::Int(1)}};
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kCountStar), rows).AsInt(), 2);
}

TEST(AggregateTest, CountSkipsNulls) {
  const std::vector<Row> rows = {{Value::Null()}, {Value::Int(1)},
                                 {Value::Int(2)}};
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kCount), rows).AsInt(), 2);
}

TEST(AggregateTest, SumKeepsIntegerType) {
  const std::vector<Row> int_rows = {{Value::Int(1)}, {Value::Int(2)}};
  const Value int_sum = RunAggregate(Spec(AggregateKind::kSum), int_rows);
  EXPECT_EQ(int_sum.type(), DataType::kInt64);
  EXPECT_EQ(int_sum.AsInt(), 3);

  const std::vector<Row> mixed = {{Value::Int(1)}, {Value::Double(0.5)}};
  const Value dbl_sum = RunAggregate(Spec(AggregateKind::kSum), mixed);
  EXPECT_EQ(dbl_sum.type(), DataType::kDouble);
  EXPECT_DOUBLE_EQ(dbl_sum.AsDouble(), 1.5);
}

TEST(AggregateTest, EmptyGroupSemantics) {
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kCountStar), {}).AsInt(), 0);
  EXPECT_TRUE(RunAggregate(Spec(AggregateKind::kSum), {}).is_null());
  EXPECT_TRUE(RunAggregate(Spec(AggregateKind::kMin), {}).is_null());
  EXPECT_TRUE(RunAggregate(Spec(AggregateKind::kAvg), {}).is_null());
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kArrayAgg), {}).AsString(),
            "{}");
  EXPECT_TRUE(RunAggregate(Spec(AggregateKind::kStPolygon), {}).is_null());
}

TEST(AggregateTest, GroupedArrayAggMovesEachGroupOut) {
  // Group 0 sees only NULLs, group 1 ints, group 2 nothing; group 1 mixes
  // a double in. Each group finalizes once, as the row state would.
  ColumnVector ids;
  for (const Value& v : {Value::Null(), Value::Int(7), Value::Int(-3),
                         Value::Double(2.5), Value::Null(), Value::Int(9)}) {
    ids.Append(v);
  }
  const size_t group_of[] = {0, 1, kNoGroup, 1, 0, 1};
  auto grouped = CreateGroupedAggregate(AggregateKind::kArrayAgg, 3);
  const ColumnVector* args[] = {&ids};
  grouped->Update(args, group_of, 6);
  EXPECT_EQ(grouped->Finalize(0).AsString(), "{}");
  EXPECT_EQ(grouped->Finalize(1).AsString(), "{7,2.5,9}");
  EXPECT_EQ(grouped->Finalize(2).AsString(), "{}");
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kArrayAgg),
                         {{Value::Int(7)}, {Value::Double(2.5)},
                          {Value::Int(9)}})
                .AsString(),
            "{7,2.5,9}");
}

TEST(AggregateTest, MinMaxAvg) {
  const std::vector<Row> rows = {{Value::Double(3)}, {Value::Double(-1)},
                                 {Value::Null()}, {Value::Double(7)}};
  EXPECT_DOUBLE_EQ(RunAggregate(Spec(AggregateKind::kMin), rows).AsDouble(),
                   -1.0);
  EXPECT_DOUBLE_EQ(RunAggregate(Spec(AggregateKind::kMax), rows).AsDouble(),
                   7.0);
  EXPECT_DOUBLE_EQ(RunAggregate(Spec(AggregateKind::kAvg), rows).AsDouble(),
                   3.0);
}

TEST(AggregateTest, ArrayAggCollectsInOrder) {
  const std::vector<Row> rows = {{Value::Int(3)}, {Value::Int(1)},
                                 {Value::Null()}, {Value::Int(2)}};
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kArrayAgg), rows).AsString(),
            "{3,1,2}");
}

TEST(AggregateTest, StPolygonEmitsConvexHullWkt) {
  AggregateSpec spec;
  spec.kind = AggregateKind::kStPolygon;
  spec.args.push_back(MakeColumnRef(0, "x"));
  spec.args.push_back(MakeColumnRef(1, "y"));
  spec.output_name = "poly";

  const std::vector<Row> rows = {
      {Value::Double(0), Value::Double(0)},
      {Value::Double(2), Value::Double(0)},
      {Value::Double(1), Value::Double(0.5)},  // interior
      {Value::Double(2), Value::Double(2)},
      {Value::Double(0), Value::Double(2)},
  };
  const Value wkt = RunAggregate(spec, rows);
  ASSERT_EQ(wkt.type(), DataType::kString);
  EXPECT_EQ(wkt.AsString().rfind("POLYGON((", 0), 0u);
  // The interior point must not be a hull vertex.
  EXPECT_EQ(wkt.AsString().find("1 0.5"), std::string::npos);
  // The ring closes on its first vertex.
  const std::string& s = wkt.AsString();
  const size_t open = s.find("((");
  const size_t comma = s.find(',', open);
  const std::string first = s.substr(open + 2, comma - open - 2);
  EXPECT_NE(s.rfind(first), open + 2);
}

TEST(AggregateTest, CountDistinct) {
  const std::vector<Row> rows = {{Value::Int(1)}, {Value::Int(2)},
                                 {Value::Int(1)}, {Value::Null()},
                                 {Value::Double(2.0)}};
  // int 2 and double 2.0 compare equal, so they count once.
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kCountDistinct), rows).AsInt(),
            2);
  EXPECT_EQ(RunAggregate(Spec(AggregateKind::kCountDistinct), {}).AsInt(),
            0);
}

TEST(AggregateTest, VarianceAndStddev) {
  const std::vector<Row> rows = {{Value::Double(2)}, {Value::Double(4)},
                                 {Value::Double(4)}, {Value::Double(4)},
                                 {Value::Double(5)}, {Value::Double(5)},
                                 {Value::Double(7)}, {Value::Double(9)}};
  // Sample variance of the classic dataset {2,4,4,4,5,5,7,9} is 32/7.
  EXPECT_NEAR(RunAggregate(Spec(AggregateKind::kVariance), rows).AsDouble(),
              32.0 / 7.0, 1e-12);
  EXPECT_NEAR(RunAggregate(Spec(AggregateKind::kStddev), rows).AsDouble(),
              std::sqrt(32.0 / 7.0), 1e-12);
  // Fewer than two values -> NULL (sample statistics undefined).
  EXPECT_TRUE(RunAggregate(Spec(AggregateKind::kVariance),
                           {{Value::Double(1)}})
                  .is_null());
  EXPECT_TRUE(RunAggregate(Spec(AggregateKind::kStddev), {}).is_null());
}

TEST(AggregateTest, VarianceResolvesFromSqlNames) {
  EXPECT_EQ(AggregateKindFromName("VAR_SAMP").value(),
            AggregateKind::kVariance);
  EXPECT_EQ(AggregateKindFromName("stddev").value(),
            AggregateKind::kStddev);
}

TEST(AggregateTest, OutputTypes) {
  EXPECT_EQ(AggregateOutputType(AggregateKind::kCountStar), DataType::kInt64);
  EXPECT_EQ(AggregateOutputType(AggregateKind::kAvg), DataType::kDouble);
  EXPECT_EQ(AggregateOutputType(AggregateKind::kArrayAgg),
            DataType::kString);
}

}  // namespace
}  // namespace sgb::engine
