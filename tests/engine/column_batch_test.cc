// The typed column batch (engine/row_batch.h) from the scan to the SGB
// operator: column layouts, the NULL bitmap, the Value fallback for mixed
// columns, Filter selection vectors and column-moving projections. Every
// query runs at batch capacities 1, 7 and 1024 against results written
// out here, type of every cell included.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/operators.h"
#include "engine/row_batch.h"

namespace sgb::engine {
namespace {

constexpr size_t kCapacities[] = {1, 7, 1024};

/// Drains `sql` at `capacity`, checking every batch is non-empty and within
/// capacity.
std::vector<Row> Drain(const Database& db, const std::string& sql,
                       size_t capacity) {
  auto plan = db.Prepare(sql);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (!plan.ok()) return {};
  Operator& op = *plan.value();
  op.Open();
  std::vector<Row> out;
  RowBatch batch(capacity);
  while (op.NextBatch(&batch)) {
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), capacity);
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.TakeRow(i, &out.emplace_back());
    }
  }
  op.Close();
  return out;
}

/// Same cells, same types, in the same order.
void ExpectRows(const Database& db, const std::string& sql,
                const std::vector<Row>& want) {
  for (const size_t capacity : kCapacities) {
    const std::vector<Row> got = Drain(db, sql, capacity);
    const std::string what = sql + " [cap=" + std::to_string(capacity) + "]";
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t r = 0; r < want.size(); ++r) {
      ASSERT_EQ(got[r].size(), want[r].size()) << what << " row " << r;
      for (size_t c = 0; c < want[r].size(); ++c) {
        EXPECT_EQ(got[r][c].type(), want[r][c].type())
            << what << " row " << r << " col " << c << ": "
            << got[r][c].ToString();
        EXPECT_EQ(got[r][c].ToString(), want[r][c].ToString())
            << what << " row " << r << " col " << c;
      }
    }
  }
}

Value I(int64_t v) { return Value::Int(v); }
Value D(double v) { return Value::Double(v); }
Value S(const char* v) { return Value::Str(v); }
Value N() { return Value::Null(); }

/// A DOUBLE column holding doubles, int64 cells and NULLs (a registered
/// Table checks only arity), beside an INT64 key and a STRING column.
Database MixedDb() {
  Database db;
  auto t = std::make_shared<Table>(Schema({
      Column{"k", DataType::kInt64, ""},
      Column{"v", DataType::kDouble, ""},
      Column{"name", DataType::kString, ""},
  }));
  const Row rows[] = {
      {I(1), D(1.5), S("ann")},  {I(2), I(3), S("bo")},
      {I(3), N(), N()},          {I(4), D(2.25), S("")},
      {I(5), I(-7), S("cyd")},   {I(6), D(0.5), S("dee")},
      {I(7), N(), S("ed")},      {I(8), I(10), S("flo")},
      {I(9), D(-1.25), S("gus")},
  };
  for (const Row& row : rows) EXPECT_TRUE(t->Append(row).ok());
  db.Register("t", t);
  return db;
}

TEST(ColumnVectorTest, LayoutFollowsTheCellsAppended) {
  ColumnVector column;
  EXPECT_EQ(column.layout(), ColumnVector::Layout::kNull);
  column.AppendNull();
  column.AppendDouble(1.5);
  EXPECT_EQ(column.layout(), ColumnVector::Layout::kDouble);
  EXPECT_TRUE(column.IsNull(0));
  EXPECT_FALSE(column.IsNull(1));
  // An int64 cell among doubles: the column falls back to Values and
  // keeps every cell's own type.
  column.AppendInt(3);
  EXPECT_EQ(column.layout(), ColumnVector::Layout::kValue);
  ASSERT_EQ(column.size(), 3u);
  EXPECT_TRUE(column.ValueAt(0).is_null());
  EXPECT_EQ(column.ValueAt(1).type(), DataType::kDouble);
  EXPECT_EQ(column.ValueAt(2).type(), DataType::kInt64);
  EXPECT_EQ(column.ValueAt(2).AsInt(), 3);
  column.Clear();
  EXPECT_EQ(column.layout(), ColumnVector::Layout::kNull);
  EXPECT_EQ(column.size(), 0u);
  column.AppendString("x");
  EXPECT_EQ(column.layout(), ColumnVector::Layout::kString);
  EXPECT_FALSE(column.has_nulls());
}

TEST(ColumnVectorTest, NullBitmapSpansWords) {
  ColumnVector column;
  for (int64_t i = 0; i < 200; ++i) {
    if (i % 67 == 0) {
      column.AppendNull();
    } else {
      column.AppendInt(i);
    }
  }
  EXPECT_EQ(column.layout(), ColumnVector::Layout::kInt64);
  for (int64_t i = 0; i < 200; ++i) {
    EXPECT_EQ(column.IsNull(static_cast<size_t>(i)), i % 67 == 0) << i;
    if (i % 67 != 0) {
      EXPECT_EQ(column.ints()[static_cast<size_t>(i)], i);
    }
  }
}

TEST(ColumnBatchTest, ScanFillsTypedColumnsWithNullsAndMixedCells) {
  const Database db = MixedDb();
  auto plan = db.Prepare("SELECT * FROM t");
  ASSERT_TRUE(plan.ok());
  plan.value()->Open();
  RowBatch batch;
  ASSERT_TRUE(plan.value()->NextBatch(&batch));
  EXPECT_EQ(batch.column(0).layout(), ColumnVector::Layout::kInt64);
  EXPECT_EQ(batch.column(1).layout(), ColumnVector::Layout::kValue);
  EXPECT_EQ(batch.column(2).layout(), ColumnVector::Layout::kString);
  EXPECT_TRUE(batch.column(2).IsNull(2));
  plan.value()->Close();

  ExpectRows(db, "SELECT k, v FROM t",
             {{I(1), D(1.5)},
              {I(2), I(3)},
              {I(3), N()},
              {I(4), D(2.25)},
              {I(5), I(-7)},
              {I(6), D(0.5)},
              {I(7), N()},
              {I(8), I(10)},
              {I(9), D(-1.25)}});
  // Arithmetic keeps int64 + int64 integral and NULL propagating.
  ExpectRows(db, "SELECT v + 1 FROM t WHERE k < 6",
             {{D(2.5)}, {I(4)}, {N()}, {D(3.25)}, {I(-6)}});
  // sum() stays a double once a double cell is added.
  ExpectRows(db, "SELECT sum(v), count(v), count(*) FROM t",
             {{D(9), I(7), I(9)}});
  ExpectRows(db, "SELECT sum(v) FROM t WHERE k = 2 OR k = 8", {{I(13)}});
}

TEST(ColumnBatchTest, StringColumn) {
  const Database db = MixedDb();
  ExpectRows(db, "SELECT name, k FROM t WHERE k > 5",
             {{S("dee"), I(6)}, {S("ed"), I(7)}, {S("flo"), I(8)},
              {S("gus"), I(9)}});
  ExpectRows(db, "SELECT name FROM t WHERE k <= 4",
             {{S("ann")}, {S("bo")}, {N()}, {S("")}});
  ExpectRows(db, "SELECT min(name), max(name) FROM t", {{S(""), S("gus")}});
}

TEST(ColumnBatchTest, FilterKeepingNoRowsAndEveryRow) {
  const Database db = MixedDb();
  for (const size_t capacity : kCapacities) {
    EXPECT_TRUE(Drain(db, "SELECT k FROM t WHERE k > 100", capacity).empty());
  }
  ExpectRows(db, "SELECT count(*) FROM t WHERE k > 100", {{I(0)}});

  // A filter that keeps every row sets no selection vector.
  auto plan = db.Prepare("SELECT * FROM t WHERE k > 0");
  ASSERT_TRUE(plan.ok());
  plan.value()->Open();
  RowBatch batch;
  ASSERT_TRUE(plan.value()->NextBatch(&batch));
  EXPECT_FALSE(batch.has_selection());
  EXPECT_EQ(batch.size(), 9u);
  plan.value()->Close();
  ExpectRows(db, "SELECT k FROM t WHERE k > 0",
             {{I(1)}, {I(2)}, {I(3)}, {I(4)}, {I(5)}, {I(6)}, {I(7)},
              {I(8)}, {I(9)}});

  // A filter that drops some rows selects instead of copying them.
  auto some = db.Prepare("SELECT * FROM t WHERE k > 7");
  ASSERT_TRUE(some.ok());
  some.value()->Open();
  RowBatch selected;
  ASSERT_TRUE(some.value()->NextBatch(&selected));
  EXPECT_TRUE(selected.has_selection());
  EXPECT_EQ(selected.num_rows(), 9u);
  EXPECT_EQ(selected.selection(), (std::vector<uint32_t>{7, 8}));
  some.value()->Close();
}

TEST(ColumnBatchTest, ProjectRepeatingAColumn) {
  const Database db = MixedDb();
  ExpectRows(db, "SELECT k, v, k, k FROM t WHERE k < 4",
             {{I(1), D(1.5), I(1), I(1)},
              {I(2), I(3), I(2), I(2)},
              {I(3), N(), I(3), I(3)}});
  // Over a selection, with and without a computed column.
  ExpectRows(db, "SELECT name, k, name FROM t WHERE k = 2 OR k = 9",
             {{S("bo"), I(2), S("bo")}, {S("gus"), I(9), S("gus")}});
  ExpectRows(db, "SELECT k, k * 2, k FROM t WHERE k = 2 OR k = 9",
             {{I(2), I(4), I(2)}, {I(9), I(18), I(9)}});
}

TEST(ColumnBatchTest, SgbAggregatesOverASelectionVector) {
  Database db;
  auto pts = std::make_shared<Table>(Schema({
      Column{"id", DataType::kInt64, ""},
      Column{"x", DataType::kDouble, ""},
      Column{"y", DataType::kDouble, ""},
      Column{"w", DataType::kInt64, ""},
  }));
  const Row rows[] = {
      {I(1), D(0), D(0), I(1)},     {I(2), D(10), D(10), I(4)},
      {I(3), D(1), D(0), I(2)},     {I(4), D(-1), D(-1), I(0)},
      {I(5), D(0), D(1), I(3)},     {I(6), N(), D(5), I(7)},
      {I(7), D(11), D(10), I(5)},   {I(8), D(10.5), D(10.5), I(0)},
  };
  for (const Row& row : rows) ASSERT_TRUE(pts->Append(row).ok());
  db.Register("pts", pts);
  // Rows 4 and 8 fail the filter: kept, row 4 would join the first group
  // and stretch its hull, row 8 would join the second. Row 6 has a NULL
  // coordinate and belongs to no group.
  ExpectRows(db,
             "SELECT group_id, count(*), sum(w), avg(x), list_id(id), "
             "st_polygon(x, y) FROM pts WHERE w <> 0 "
             "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1.5",
             {{I(0), I(3), I(6), D(1.0 / 3.0), S("{1,3,5}"),
               S("POLYGON((0 0, 1 0, 0 1, 0 0))")},
              {I(1), I(2), I(9), D(10.5), S("{2,7}"),
               S("POLYGON((10 10, 11 10, 10 10))")}});
}

}  // namespace
}  // namespace sgb::engine
