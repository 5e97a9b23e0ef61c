// Capacity-sweep tests for the batch pipeline: draining a plan through
// NextBatch() with capacities 1, 7 and 1024 must produce exactly the rows
// (values and order) of the default-capacity run, for every operator —
// fan-out joins, cross joins, LIMIT around the capacity, sorts with tied
// keys in memory and spilled — and for whole SGB queries across overlap
// clauses, metrics, and degrees of parallelism. No batch may exceed its
// capacity.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"
#include "engine/executor.h"
#include "engine/operators.h"
#include "obs/metrics.h"

namespace sgb::engine {
namespace {

constexpr size_t kCapacities[] = {1, 7, 1024};

Database PointsDb(size_t n, uint64_t seed) {
  Database db;
  auto pts = std::make_shared<Table>(Schema({
      Column{"x", DataType::kDouble, ""},
      Column{"y", DataType::kDouble, ""},
      Column{"w", DataType::kInt64, ""},
  }));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    // Three loose clusters plus background noise: produces non-trivial
    // groups, overlaps, and eliminations at eps=1.5.
    const double cx = static_cast<double>(rng.NextBounded(3)) * 4.0;
    const double cy = static_cast<double>(rng.NextBounded(3)) * 4.0;
    EXPECT_TRUE(pts->Append({Value::Double(cx + rng.NextUniform(-1.2, 1.2)),
                             Value::Double(cy + rng.NextUniform(-1.2, 1.2)),
                             Value::Int(static_cast<int64_t>(i % 7))})
                    .ok());
  }
  db.Register("pts", pts);
  return db;
}

/// Opens `op` and drains it at `capacity`, checking that every batch is
/// non-empty and within capacity.
std::vector<Row> DrainBatches(Operator& op, size_t capacity) {
  op.Open();
  std::vector<Row> out;
  RowBatch batch(capacity);
  while (op.NextBatch(&batch)) {
    EXPECT_FALSE(batch.empty());
    EXPECT_LE(batch.size(), capacity);
    for (Row& row : batch.rows()) out.push_back(std::move(row));
  }
  return out;
}

void ExpectSameRows(const std::vector<Row>& want,
                    const std::vector<Row>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i].size(), got[i].size()) << what << " row " << i;
    for (size_t c = 0; c < want[i].size(); ++c) {
      EXPECT_EQ(Value::Compare(want[i][c], got[i][c]), 0)
          << what << " row " << i << " col " << c << ": "
          << want[i][c].ToString() << " vs " << got[i][c].ToString();
    }
  }
}

/// Prepares `sql` once per capacity and checks each run against a
/// default-capacity run of its own plan.
void ExpectCapacityInvariance(const Database& db, const std::string& sql) {
  auto reference_plan = db.Prepare(sql);
  ASSERT_TRUE(reference_plan.ok()) << reference_plan.status().ToString();
  const std::vector<Row> want =
      DrainBatches(*reference_plan.value(), RowBatch::kDefaultCapacity);
  for (const size_t cap : kCapacities) {
    auto plan = db.Prepare(sql);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    ExpectSameRows(want, DrainBatches(*plan.value(), cap),
                   sql + " [cap=" + std::to_string(cap) + "]");
  }
}

TEST(BatchPipelineTest, ScanFilterProjectEquivalence) {
  const Database db = PointsDb(500, 11);
  ExpectCapacityInvariance(db, "SELECT x, y FROM pts");
  ExpectCapacityInvariance(db, "SELECT x + y, w FROM pts WHERE x > 2.0");
  ExpectCapacityInvariance(
      db, "SELECT w, count(*) FROM pts GROUP BY w ORDER BY w");
}

TEST(BatchPipelineTest, SgbQueriesEquivalentAcrossClausesMetricsAndDop) {
  const Database db = PointsDb(300, 23);
  for (const char* metric : {"L2", "LINF"}) {
    for (const char* clause : {"JOIN-ANY", "ELIMINATE", "FORM-NEW-GROUP"}) {
      for (const int dop : {1, 4}) {
        const std::string sql =
            std::string("SELECT group_id, count(*), avg(x) FROM pts "
                        "GROUP BY x, y DISTANCE-TO-ALL ") +
            metric + " WITHIN 1.5 ON-OVERLAP " + clause + " PARALLEL " +
            std::to_string(dop);
        ExpectCapacityInvariance(db, sql);
      }
    }
  }
}

TEST(BatchPipelineTest, SgbAnyQueryEquivalence) {
  const Database db = PointsDb(300, 31);
  for (const int dop : {1, 4}) {
    ExpectCapacityInvariance(
        db, "SELECT group_id, count(*) FROM pts GROUP BY x, y "
            "DISTANCE-TO-ANY L2 WITHIN 3 PARALLEL " +
                std::to_string(dop));
  }
}

/// `keys` has 3 rows per key 0..2 plus NULL keys; `fan` has `fan_out` rows
/// per key 0..2, so every matching probe row joins `fan_out` build rows.
Database JoinDb(size_t fan_out) {
  Database db;
  auto keys = std::make_shared<Table>(Schema({
      Column{"k", DataType::kInt64, ""},
      Column{"tag", DataType::kInt64, ""},
  }));
  for (int64_t i = 0; i < 12; ++i) {
    const Value k = i % 4 == 3 ? Value::Null() : Value::Int(i % 4);
    EXPECT_TRUE(keys->Append({k, Value::Int(i)}).ok());
  }
  auto fan = std::make_shared<Table>(Schema({
      Column{"fk", DataType::kInt64, ""},
      Column{"seq", DataType::kInt64, ""},
  }));
  for (size_t i = 0; i < 3 * fan_out; ++i) {
    EXPECT_TRUE(fan->Append({Value::Int(static_cast<int64_t>(i % 3)),
                             Value::Int(static_cast<int64_t>(i))})
                    .ok());
  }
  db.Register("keys", keys);
  db.Register("fan", fan);
  return db;
}

TEST(BatchPipelineTest, HashJoinFanOutBeyondCapacity) {
  // 1500 matches per probe row: more than every swept capacity, so one
  // probe row's output spans several batches at each of them.
  const Database db = JoinDb(1500);
  const std::string sql = "SELECT tag, seq FROM keys, fan WHERE k = fk";
  auto explain = db.Explain(sql);
  ASSERT_TRUE(explain.ok());
  ASSERT_NE(explain.value().find("HashJoin"), std::string::npos)
      << explain.value();
  ExpectCapacityInvariance(db, sql);

  auto plan = db.Prepare(sql);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(DrainBatches(*plan.value(), 7).size(), 9u * 1500u);
}

TEST(BatchPipelineTest, CrossAndThetaJoins) {
  const Database db = JoinDb(40);
  auto explain = db.Explain("SELECT tag, seq FROM keys, fan");
  ASSERT_TRUE(explain.ok());
  ASSERT_NE(explain.value().find("NestedLoopJoin (cross)"), std::string::npos)
      << explain.value();
  ExpectCapacityInvariance(db, "SELECT tag, seq FROM keys, fan");
  ExpectCapacityInvariance(db,
                           "SELECT tag, seq FROM keys, fan WHERE seq < tag");

  auto plan = db.Prepare("SELECT tag, seq FROM keys, fan");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(DrainBatches(*plan.value(), 7).size(), 12u * 120u);
}

TEST(BatchPipelineTest, LimitBelowAndAboveCapacity) {
  const Database db = PointsDb(3000, 41);
  for (const int limit : {0, 1, 5, 2000}) {
    ExpectCapacityInvariance(
        db, "SELECT x, w FROM pts LIMIT " + std::to_string(limit));
    ExpectCapacityInvariance(db, "SELECT x, w FROM pts ORDER BY w LIMIT " +
                                     std::to_string(limit));
  }
}

TEST(BatchPipelineTest, LimitPullsOnlyTheRowsItNeeds) {
  const Database db = PointsDb(3000, 43);
  auto plan = db.Prepare("SELECT x FROM pts LIMIT 5");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(DrainBatches(*plan.value(), RowBatch::kDefaultCapacity).size(),
            5u);
  const Operator* scan = plan.value().get();
  while (!scan->children().empty()) scan = scan->children()[0];
  EXPECT_EQ(scan->name(), "TableScan");
  EXPECT_EQ(scan->stats().rows_produced, 5u);
}

TEST(BatchPipelineTest, SpilledSortWithTiesMatchesInMemorySort) {
  // Seven distinct keys over 2000 rows: heavy ties, so stability decides
  // the order. The budget forces a run every few dozen rows.
  const Database db = PointsDb(2000, 47);
  const std::string sql = "SELECT w, x FROM pts ORDER BY w DESC";
  auto reference_plan = db.Prepare(sql);
  ASSERT_TRUE(reference_plan.ok());
  const std::vector<Row> want =
      DrainBatches(*reference_plan.value(), RowBatch::kDefaultCapacity);
  for (const size_t cap : kCapacities) {
    auto plan = db.Prepare(sql);
    ASSERT_TRUE(plan.ok());
    QueryContext ctx(/*memory_budget_bytes=*/16 * 1024);
    SpillConfig spill;
    spill.enabled = true;
    ctx.set_spill(spill);
    plan.value()->SetQueryContext(&ctx);
    ExpectSameRows(want, DrainBatches(*plan.value(), cap),
                   sql + " spilled [cap=" + std::to_string(cap) + "]");
    EXPECT_GT(ctx.spill_events(), 1u) << "budget did not force sorted runs";
    plan.value()->Close();
    plan.value()->SetQueryContext(nullptr);
  }
}

TEST(BatchPipelineTest, TableScanEmitsFullBatches) {
  const Database db = PointsDb(250, 5);
  auto plan = db.Prepare("SELECT x, y FROM pts");
  ASSERT_TRUE(plan.ok());
  Operator& scan = *plan.value();
  scan.Open();
  RowBatch batch(64);
  std::vector<size_t> sizes;
  while (scan.NextBatch(&batch)) sizes.push_back(batch.size());
  // 250 rows at capacity 64: three full batches plus a 58-row remainder.
  EXPECT_EQ(sizes, (std::vector<size_t>{64, 64, 64, 58}));
  EXPECT_EQ(scan.stats().batches, 4u);
  EXPECT_EQ(scan.stats().rows_produced, 250u);
}

TEST(BatchPipelineTest, BatchesBumpRegistryCounterAndExplainAnalyze) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.Reset();
  const Database db = PointsDb(200, 3);
  // PARALLEL 2 routes grouping through the grid partitioner, whose
  // cell-vs-cell scans always run the block kernels.
  const auto analyzed = db.ExplainAnalyze(
      "SELECT group_id, count(*) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ALL LINF WITHIN 1.5 ON-OVERLAP JOIN-ANY PARALLEL 2");
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();
  EXPECT_NE(analyzed.value().find("batches="), std::string::npos)
      << analyzed.value();
  EXPECT_NE(analyzed.value().find("batch_size="), std::string::npos)
      << analyzed.value();
  EXPECT_GT(registry.GetCounter("engine.batches").value(), 0u);
  // The SGB scans above also ran through the block kernels.
  EXPECT_GT(registry.GetCounter("sgb.kernel.invocations").value(), 0u);
  EXPECT_GT(registry.GetCounter("sgb.kernel.pairs").value(), 0u);
}

TEST(BatchPipelineTest, BlockingOperatorHonorsCapacityAndExhaustion) {
  const Database db = PointsDb(100, 17);
  auto plan = db.Prepare("SELECT x FROM pts ORDER BY x");
  ASSERT_TRUE(plan.ok());
  Operator& op = *plan.value();
  op.Open();
  RowBatch batch(32);
  size_t batches = 0;
  size_t rows = 0;
  double prev = -1e300;
  while (op.NextBatch(&batch)) {
    ++batches;
    EXPECT_LE(batch.size(), 32u);
    for (const Row& row : batch.rows()) {
      EXPECT_GE(row[0].ToDouble(), prev);
      prev = row[0].ToDouble();
      ++rows;
    }
  }
  EXPECT_EQ(batches, 4u);  // 100 rows / 32 = 3 full + 1 remainder
  EXPECT_EQ(rows, 100u);
  // Exhausted: further calls keep returning false with an empty batch.
  EXPECT_FALSE(op.NextBatch(&batch));
  EXPECT_TRUE(batch.empty());
}

TEST(BatchPipelineTest, CloseFreesBuffersAndKeepsStats) {
  const Database db = PointsDb(500, 19);
  auto plan = db.Prepare("SELECT x FROM pts ORDER BY x LIMIT 3");
  ASSERT_TRUE(plan.ok());
  Operator& op = *plan.value();
  QueryContext ctx;
  op.SetQueryContext(&ctx);
  EXPECT_EQ(DrainBatches(op, RowBatch::kDefaultCapacity).size(), 3u);
  // The sort still holds its other 497 rows, charged to the query.
  EXPECT_GT(ctx.memory().usage_bytes(), 0u);
  op.Close();
  EXPECT_EQ(ctx.memory().usage_bytes(), 0u);
  EXPECT_EQ(op.stats().rows_produced, 3u);
  RowBatch batch;
  EXPECT_FALSE(op.NextBatch(&batch));
  // A closed plan re-opens and runs again.
  EXPECT_EQ(DrainBatches(op, RowBatch::kDefaultCapacity).size(), 3u);
  op.SetQueryContext(nullptr);
}

}  // namespace
}  // namespace sgb::engine
