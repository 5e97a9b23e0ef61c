// Cost-based planning end to end (docs/PLANNER.md): ANALYZE builds table
// statistics, the planner's cost model consumes them to pick SGB tiers and
// group-by strategies, EXPLAIN / EXPLAIN ANALYZE surface the estimates,
// and the catalog version bump keeps session plan caches honest. The
// accuracy gates here are the PR's acceptance criteria: row estimates
// within 2x of actuals on stock workloads once ANALYZE has run.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/executor.h"
#include "obs/query_log.h"
#include "stats/table_stats.h"

namespace sgb::engine {
namespace {

Database UniformPointsDb(size_t n, double extent = 10.0, uint64_t seed = 7) {
  Database db;
  auto pts = std::make_shared<Table>(Schema({
      Column{"x", DataType::kDouble, ""},
      Column{"y", DataType::kDouble, ""},
  }));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(pts->Append({Value::Double(rng.NextUniform(0, extent)),
                             Value::Double(rng.NextUniform(0, extent))})
                    .ok());
  }
  db.Register("pts", pts);
  return db;
}

/// First "<key>=<integer>" occurrence in `text`, or -1.
int64_t ExtractInt(const std::string& text, const std::string& key) {
  const size_t pos = text.find(key + "=");
  if (pos == std::string::npos) return -1;
  return std::strtoll(text.c_str() + pos + key.size() + 1, nullptr, 10);
}

obs::QueryLogEntry LastEntryFor(const Database& db, const std::string& text) {
  obs::QueryLogEntry found;
  bool any = false;
  for (const obs::QueryLogEntry& e : db.query_log().Entries()) {
    if (e.text == text) {
      found = e;
      any = true;
    }
  }
  EXPECT_TRUE(any) << "no query log entry for: " << text;
  return found;
}

// ---- ANALYZE ------------------------------------------------------------

TEST(AnalyzeTest, PopulatesCatalogStatsAndSystemStats) {
  Database db = UniformPointsDb(400);
  const auto ack = db.Query("ANALYZE pts");
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().rows()[0][0].AsString(), "ANALYZE 1 table, 400 rows");

  const stats::TableStatsPtr ts = db.catalog().GetStats("pts");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->row_count, 400u);
  ASSERT_TRUE(ts->grid.has_value());

  const auto rows = db.Query(
      "SELECT table_name, column_name, row_count, ndv, grid_axis "
      "FROM system.stats ORDER BY column_name");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().NumRows(), 2u);  // x and y
  EXPECT_EQ(rows.value().rows()[0][0].AsString(), "pts");
  EXPECT_EQ(rows.value().rows()[0][1].AsString(), "x");
  EXPECT_EQ(rows.value().rows()[0][2].AsInt(), 400);
  EXPECT_GT(rows.value().rows()[0][3].AsInt(), 300);  // NDV ~ 400 doubles
  EXPECT_EQ(rows.value().rows()[0][4].AsInt(), 1);    // grid x axis
  EXPECT_EQ(rows.value().rows()[1][4].AsInt(), 2);    // grid y axis
}

TEST(AnalyzeTest, BareAnalyzeCoversEveryStoredTable) {
  Database db = UniformPointsDb(100);
  ASSERT_TRUE(db.Query("CREATE TABLE ticks (v INT)").ok());
  ASSERT_TRUE(db.Query("INSERT INTO ticks VALUES (1), (2), (3)").ok());
  const auto ack = db.Query("ANALYZE");
  ASSERT_TRUE(ack.ok()) << ack.status().ToString();
  EXPECT_EQ(ack.value().rows()[0][0].AsString(), "ANALYZE 2 tables, 103 rows");
  EXPECT_NE(db.catalog().GetStats("pts"), nullptr);
  EXPECT_NE(db.catalog().GetStats("ticks"), nullptr);
}

TEST(AnalyzeTest, UnknownAndVirtualTablesError) {
  Database db = UniformPointsDb(10);
  EXPECT_EQ(db.Query("ANALYZE missing").status().code(),
            Status::Code::kNotFound);
  EXPECT_EQ(db.Query("ANALYZE system.tables").status().code(),
            Status::Code::kInvalidArgument);
}

// ---- EXPLAIN surface ----------------------------------------------------

TEST(CostModelTest, ExplainGainsEstimatesOnlyAfterAnalyze) {
  Database db = UniformPointsDb(500);
  const std::string q =
      "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.4";

  const auto before = db.Explain(q);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before.value().find("est_rows="), std::string::npos);
  EXPECT_NE(before.value().find("tier=indexed"), std::string::npos);

  ASSERT_TRUE(db.Query("ANALYZE pts").ok());
  const auto after = db.Explain(q);
  ASSERT_TRUE(after.ok());
  EXPECT_NE(after.value().find("est_rows="), std::string::npos);
  EXPECT_NE(after.value().find("est_bytes="), std::string::npos);
  EXPECT_NE(after.value().find("tier="), std::string::npos);
  EXPECT_NE(after.value().find("est_pairs="), std::string::npos);
}

TEST(CostModelTest, FilterSelectivityShrinksDownstreamEstimates) {
  Database db = UniformPointsDb(1000);
  ASSERT_TRUE(db.Query("ANALYZE pts").ok());
  const auto plan = db.Explain("SELECT x FROM pts WHERE x < 2.5");
  ASSERT_TRUE(plan.ok());
  // Scan estimates 1000 rows; the x < 2.5 filter keeps ~a quarter.
  const size_t scan_pos = plan.value().find("TableScan");
  const size_t filter_pos = plan.value().find("Filter");
  ASSERT_NE(scan_pos, std::string::npos);
  ASSERT_NE(filter_pos, std::string::npos);
  const int64_t scan_rows = ExtractInt(plan.value().substr(scan_pos),
                                       "est_rows");
  const int64_t filter_rows = ExtractInt(plan.value().substr(filter_pos),
                                         "est_rows");
  EXPECT_EQ(scan_rows, 1000);
  EXPECT_GT(filter_rows, 100);
  EXPECT_LT(filter_rows, 500);
}

// ---- Tier policy --------------------------------------------------------

TEST(CostModelTest, ForcedTiersShowUpInExplainAndInvalidValueErrors) {
  Database db = UniformPointsDb(200);
  const std::string q =
      "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.4";
  ASSERT_TRUE(db.Query("SET sgb_tier = all_pairs").ok());
  EXPECT_NE(db.Explain(q).value().find("tier=all-pairs"), std::string::npos);
  ASSERT_TRUE(db.Query("SET sgb_tier = bounds").ok());
  EXPECT_NE(db.Explain(q).value().find("tier=bounds"), std::string::npos);
  ASSERT_TRUE(db.Query("SET sgb_tier = auto").ok());
  EXPECT_EQ(db.Query("SET sgb_tier = warp").status().code(),
            Status::Code::kInvalidArgument);
}

TEST(CostModelTest, AutoTierMatchesEveryForcedTierBitForBit) {
  Database db = UniformPointsDb(600, 10.0, 17);
  ASSERT_TRUE(db.Query("ANALYZE pts").ok());
  for (const char* kind : {"DISTANCE-TO-ALL", "DISTANCE-TO-ANY"}) {
    const std::string q = std::string("SELECT group_id, count(*) FROM pts "
                                      "GROUP BY x, y ") +
                          kind + " L2 WITHIN 0.5";
    ASSERT_TRUE(db.Query("SET sgb_tier = auto").ok());
    const auto auto_result = db.Query(q);
    ASSERT_TRUE(auto_result.ok()) << auto_result.status().ToString();
    for (const char* forced : {"all_pairs", "bounds", "indexed"}) {
      ASSERT_TRUE(db.Query(std::string("SET sgb_tier = ") + forced).ok());
      const auto result = db.Query(q);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      ASSERT_EQ(result.value().NumRows(), auto_result.value().NumRows())
          << kind << " tier=" << forced;
      for (size_t r = 0; r < result.value().NumRows(); ++r) {
        for (size_t c = 0; c < 2; ++c) {
          EXPECT_EQ(result.value().rows()[r][c].AsInt(),
                    auto_result.value().rows()[r][c].AsInt())
              << kind << " tier=" << forced << " row " << r;
        }
      }
    }
    ASSERT_TRUE(db.Query("SET sgb_tier = auto").ok());
  }
}

// ---- Group-by strategy --------------------------------------------------

TEST(CostModelTest, SetParallelOnePinsSerialOverAutoDop) {
  // 4000 points in a 1x1 square with ε = 2: every pair is ε-close, so the
  // predicted work (~1.6 per refined pair) is far above the auto-dop
  // threshold and an unpinned session goes parallel.
  Database db = UniformPointsDb(4000, /*extent=*/1.0);
  ASSERT_TRUE(db.Query("ANALYZE pts").ok());
  const std::string q =
      "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 2 "
      "ON-OVERLAP ELIMINATE";
  EXPECT_FALSE(db.default_sgb_dop().has_value());
  const std::string unpinned = db.Explain(q).value();
  EXPECT_NE(unpinned.find("dop=auto"), std::string::npos) << unpinned;

  ASSERT_TRUE(db.Query("SET parallel = 1").ok());
  EXPECT_EQ(db.default_sgb_dop(), std::optional<int>(1));
  const std::string pinned = db.Explain(q).value();
  EXPECT_NE(pinned.find("dop=1"), std::string::npos) << pinned;
  EXPECT_EQ(pinned.find("dop=auto"), std::string::npos) << pinned;

  // system.sessions shows the pin; a fresh session shows NULL.
  auto sessions = db.Query("SELECT parallel FROM system.sessions");
  ASSERT_TRUE(sessions.ok()) << sessions.status().ToString();
  ASSERT_EQ(sessions.value().NumRows(), 1u);
  EXPECT_EQ(sessions.value().rows()[0][0].AsInt(), 1);
  Database fresh = UniformPointsDb(10);
  auto fresh_sessions = fresh.Query("SELECT parallel FROM system.sessions");
  ASSERT_TRUE(fresh_sessions.ok()) << fresh_sessions.status().ToString();
  ASSERT_EQ(fresh_sessions.value().NumRows(), 1u);
  EXPECT_TRUE(fresh_sessions.value().rows()[0][0].is_null());
}

TEST(CostModelTest, SortStrategyMatchesHashAndAutoPicksByDensity) {
  Database db;
  auto t = std::make_shared<Table>(Schema({
      Column{"k", DataType::kInt64, ""},
      Column{"v", DataType::kDouble, ""},
  }));
  Rng rng(3);
  // 2000 rows, ~all-distinct keys: the high-group-density regime where the
  // sort aggregate beats the hash table's per-group overhead.
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(
        t->Append({Value::Int(i), Value::Double(rng.NextDouble())}).ok());
  }
  db.Register("wide", t);
  const std::string q =
      "SELECT k, count(*), sum(v) FROM wide GROUP BY k ORDER BY k";

  ASSERT_TRUE(db.Query("SET agg_strategy = hash").ok());
  const auto hash_result = db.Query(q);
  ASSERT_TRUE(hash_result.ok());
  EXPECT_NE(db.Explain(q).value().find("HashAggregate"), std::string::npos);

  ASSERT_TRUE(db.Query("SET agg_strategy = sort").ok());
  const auto sort_result = db.Query(q);
  ASSERT_TRUE(sort_result.ok());
  EXPECT_NE(db.Explain(q).value().find("SortAggregate"), std::string::npos);

  ASSERT_EQ(sort_result.value().NumRows(), hash_result.value().NumRows());
  for (size_t r = 0; r < sort_result.value().NumRows(); ++r) {
    EXPECT_EQ(sort_result.value().rows()[r][0].AsInt(),
              hash_result.value().rows()[r][0].AsInt());
  }

  // Auto keeps hash even after ANALYZE: calibration measured hash faster
  // than sort up to 1M all-distinct keys, so density alone never flips the
  // strategy (docs/PLANNER.md).
  ASSERT_TRUE(db.Query("SET agg_strategy = auto").ok());
  EXPECT_NE(db.Explain(q).value().find("HashAggregate"), std::string::npos);
  ASSERT_TRUE(db.Query("ANALYZE wide").ok());
  EXPECT_NE(db.Explain(q).value().find("HashAggregate"), std::string::npos);

  // Sort is the bounded-memory strategy: it takes over only when the
  // predicted hash table (est_groups x 128B = 256 KB here) would crowd the
  // session memory budget.
  db.set_memory_budget_bytes(400 * 1000);
  EXPECT_NE(db.Explain(q).value().find("SortAggregate"), std::string::npos);
  db.set_memory_budget_bytes(0);

  const auto auto_result = db.Query(q);
  ASSERT_TRUE(auto_result.ok());
  ASSERT_EQ(auto_result.value().NumRows(), hash_result.value().NumRows());
}

TEST(CostModelTest, SpillDisablesAutoSortStrategy) {
  Database db;
  auto t = std::make_shared<Table>(Schema({Column{"k", DataType::kInt64, ""}}));
  for (int64_t i = 0; i < 2000; ++i) {
    ASSERT_TRUE(t->Append({Value::Int(i)}).ok());
  }
  db.Register("wide", t);
  ASSERT_TRUE(db.Query("ANALYZE wide").ok());
  const std::string q = "SELECT k, count(*) FROM wide GROUP BY k";
  // Budget pressure makes auto prefer the bounded-memory sort aggregate...
  db.set_memory_budget_bytes(400 * 1000);
  EXPECT_NE(db.Explain(q).value().find("SortAggregate"), std::string::npos);
  // ...but the sort aggregate cannot spill; with spilling on, auto must
  // fall back to the (spillable) hash aggregate.
  db.set_spill_enabled(true);
  EXPECT_NE(db.Explain(q).value().find("HashAggregate"), std::string::npos);
}

// ---- Estimate accuracy (acceptance gate) --------------------------------

TEST(CostModelTest, ExplainAnalyzeRowEstimatesWithinTwoXAfterAnalyze) {
  Database db = UniformPointsDb(2000, 10.0, 23);
  ASSERT_TRUE(db.Query("ANALYZE pts").ok());
  const std::vector<std::string> workloads = {
      "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.4",
      "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.2",
      "SELECT count(*) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ALL LINF WITHIN 0.3",
  };
  for (const std::string& q : workloads) {
    const auto text = db.ExplainAnalyze(q);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    const size_t sgb_pos = text.value().find("SimilarityGroupBy");
    ASSERT_NE(sgb_pos, std::string::npos) << text.value();
    const std::string line =
        text.value().substr(sgb_pos, text.value().find('\n', sgb_pos));
    const int64_t actual = ExtractInt(line, "rows");
    const int64_t est = ExtractInt(line, "est_rows");
    ASSERT_GT(actual, 0) << line;
    ASSERT_GT(est, 0) << line;
    EXPECT_LE(est, 2 * actual) << q << "\n" << line;
    EXPECT_GE(2 * est, actual) << q << "\n" << line;
    // The operator also publishes the drift pair as extras.
    EXPECT_NE(line.find("est_groups="), std::string::npos) << line;
  }
}

TEST(CostModelTest, HashAggregateSeedsReservationFromStats) {
  Database db = UniformPointsDb(1000, 500.0, 29);
  ASSERT_TRUE(db.Query("ANALYZE pts").ok());
  // Wide extent ⇒ x values ~all distinct; group count estimate ~NDV but the
  // 1000-row input stays under the sort threshold, so hash runs seeded.
  const auto text =
      db.ExplainAnalyze("SELECT x, count(*) FROM pts GROUP BY x LIMIT 5");
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const size_t pos = text.value().find("HashAggregate");
  ASSERT_NE(pos, std::string::npos);
  const std::string line =
      text.value().substr(pos, text.value().find('\n', pos));
  const int64_t est = ExtractInt(line, "est_groups");
  const int64_t actual = ExtractInt(line, "groups");
  ASSERT_GT(est, 0) << line;
  ASSERT_GT(actual, 0) << line;
  EXPECT_LE(est, 2 * actual) << line;
  EXPECT_GE(2 * est, actual) << line;
}

// ---- Plan cache & catalog version --------------------------------------

TEST(PlanCacheStatsTest, AnalyzeInvalidatesCachedPlans) {
  Database db = UniformPointsDb(300);
  Session& s = db.default_session();
  const std::string q = "SELECT count(*) FROM pts";
  ASSERT_TRUE(db.Query(q).ok());
  ASSERT_TRUE(db.Query(q).ok());
  EXPECT_EQ(s.plan_cache_hits(), 1u);

  // ANALYZE bumps the catalog version: the cached plan (built without
  // statistics) must be replanned, not reused.
  ASSERT_TRUE(db.Query("ANALYZE pts").ok());
  ASSERT_TRUE(db.Query(q).ok());
  EXPECT_EQ(s.plan_cache_hits(), 1u);  // miss: replanned against stats
  ASSERT_TRUE(db.Query(q).ok());
  EXPECT_EQ(s.plan_cache_hits(), 2u);  // steady state again
  // The replanned entry carries the cost-model estimate into the log.
  EXPECT_GT(LastEntryFor(db, q).est_rows, 0);
}

TEST(PlanCacheStatsTest, InsertGrowthRefreshesStatsAndBumpsVersion) {
  Database db;
  ASSERT_TRUE(db.Query("CREATE TABLE ticks (v INT)").ok());
  std::string values = "(0)";
  for (int i = 1; i < 20; ++i) values += ", (" + std::to_string(i) + ")";
  ASSERT_TRUE(db.Query("INSERT INTO ticks VALUES " + values).ok());
  ASSERT_TRUE(db.Query("ANALYZE ticks").ok());
  const uint64_t analyzed_version = db.catalog().version();

  // Below 10% growth (1 of 20 analyzed rows): row count tracks, version
  // stays, cached plans live on.
  ASSERT_TRUE(db.Query("INSERT INTO ticks VALUES (20)").ok());
  EXPECT_EQ(db.catalog().version(), analyzed_version);

  // Cumulative growth reaching 10% of analyzed rows invalidates them.
  ASSERT_TRUE(db.Query("INSERT INTO ticks VALUES (21)").ok());
  EXPECT_GT(db.catalog().version(), analyzed_version);
  const stats::TableStatsPtr ts = db.catalog().GetStats("ticks");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->row_count, 22u);
  EXPECT_EQ(ts->analyzed_rows, 20u);
}

// ---- Query log ----------------------------------------------------------

TEST(QueryLogStatsTest, LogCarriesEstimateTierAndStrategy) {
  Database db = UniformPointsDb(500);
  ASSERT_TRUE(db.Query("ANALYZE pts").ok());

  const std::string sgb =
      "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ALL L2 WITHIN 0.4";
  ASSERT_TRUE(db.Query(sgb).ok());
  const obs::QueryLogEntry e = LastEntryFor(db, sgb);
  EXPECT_EQ(e.tier, "sgb-all");
  EXPECT_GT(e.est_rows, 0);
  EXPECT_TRUE(e.strategy == "all-pairs" || e.strategy == "bounds" ||
              e.strategy == "indexed")
      << e.strategy;

  const std::string agg = "SELECT x, count(*) FROM pts GROUP BY x";
  ASSERT_TRUE(db.Query(agg).ok());
  const obs::QueryLogEntry a = LastEntryFor(db, agg);
  EXPECT_EQ(a.tier, "none");
  EXPECT_TRUE(a.strategy == "hash" || a.strategy == "sort") << a.strategy;
  EXPECT_GT(a.est_rows, 0);

  // The columns are SQL-visible through system.query_log.
  const auto rows = db.Query(
      "SELECT strategy, est_rows FROM system.query_log "
      "WHERE tier = 'sgb-all'");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_GE(rows.value().NumRows(), 1u);
  EXPECT_GT(rows.value().rows()[0][1].AsInt(), 0);
}

}  // namespace
}  // namespace sgb::engine
