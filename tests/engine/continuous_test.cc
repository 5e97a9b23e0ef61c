// Streaming SGB (docs/STREAMING.md): CREATE CONTINUOUS QUERY registration
// and validation, watermark-driven window close, the differential regime
// (every close checks its batch grouping against its arrival replay inside
// the engine; these tests drive it across metrics x semantics x overlap
// policies x dop x window shapes), out-of-order arrival convergence,
// non-finite coordinates, stats-refresh plan invalidation, fault recovery
// at the window-close site, close-latency introspection, and the server
// SUBSCRIBE surface end to end — including the 8-subscriber hammer the
// streaming-smoke TSan CI job runs.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/random.h"
#include "engine/continuous.h"
#include "engine/executor.h"
#include "server/client.h"
#include "server/server.h"
#include "workload/checkin.h"

namespace sgb::engine {
namespace {

// ---- helpers ------------------------------------------------------------

/// Round-trippable double literal for INSERT statements.
std::string D(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// One INSERT statement carrying every row of the (user_id, t, x, y)
/// stream slice.
std::string InsertSql(const std::string& table, const std::vector<Row>& rows,
                      size_t begin, size_t end) {
  std::string sql = "INSERT INTO " + table + " VALUES ";
  for (size_t i = begin; i < end; ++i) {
    const Row& r = rows[i];
    if (i != begin) sql += ", ";
    sql += "(" + std::to_string(r[0].AsInt()) + ", " + D(r[1].AsDouble()) +
           ", " + D(r[2].AsDouble()) + ", " + D(r[3].AsDouble()) + ")";
  }
  return sql;
}

Status CreateEventsTable(Database& db, const std::string& table = "events") {
  return db
      .Query("CREATE TABLE " + table +
             " (user_id INT, t DOUBLE, x DOUBLE, y DOUBLE)")
      .status();
}

/// One int64 cell from system.continuous_queries for the named query.
int64_t SysInt(Database& db, const std::string& name, const std::string& col) {
  auto result = db.Query("SELECT " + col +
                         " FROM system.continuous_queries WHERE name = '" +
                         name + "'");
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  if (!result.ok() || result.value().NumRows() != 1) return -1;
  return result.value().rows()[0][0].AsInt();
}

/// The per-close facts the differential regime pins: everything except the
/// per-arrival delta kinds (those legitimately depend on arrival order).
struct CloseRecord {
  double start = 0.0;
  double end = 0.0;
  size_t rows = 0;
  size_t groups = 0;
  size_t eliminated = 0;
  size_t deltas = 0;

  friend bool operator==(const CloseRecord&, const CloseRecord&) = default;
};

/// Subscribes to `name`, appending one CloseRecord per delivered batch.
/// Engine-level delivery is synchronous with the INSERT, so no locking.
uint64_t RecordCloses(Database& db, const std::string& name,
                      std::vector<CloseRecord>* out) {
  auto sub = db.continuous().Subscribe(name, [out](const DeltaBatch& b) {
    out->push_back(CloseRecord{b.window_start, b.window_end, b.rows,
                               b.num_groups, b.eliminated, b.deltas.size()});
    return true;
  });
  EXPECT_TRUE(sub.ok()) << sub.status().ToString();
  return sub.ok() ? sub.value() : 0;
}

std::string UniqueUnixPath(const char* tag) {
  return "/tmp/sgb_" + std::string(tag) + "_" + std::to_string(::getpid()) +
         ".sock";
}

class ContinuousTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// ---- window semantics ---------------------------------------------------

TEST_F(ContinuousTest, TumblingWindowClosesAndStreamsDeltas) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1.5 WINDOW TUMBLING 10 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "cq", &closes);

  // Two near points and one far one inside [0, 10); nothing closes yet.
  ASSERT_TRUE(
      db.Query("INSERT INTO events VALUES (1, 0.5, 0, 0), (2, 1.0, 1, 0), "
               "(3, 2.0, 8, 8)")
          .ok());
  EXPECT_TRUE(closes.empty());
  EXPECT_EQ(SysInt(db, "cq", "open_windows"), 1);

  // Watermark 12 >= 10 closes the first window.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (4, 12.0, 3, 3)").ok());
  ASSERT_EQ(closes.size(), 1u);
  EXPECT_EQ(closes[0],
            (CloseRecord{0.0, 10.0, 3u, 2u, 0u, 4u}));  // 3 arrivals + summary

  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 1);
  EXPECT_EQ(SysInt(db, "cq", "differential_checks"), 1);
  EXPECT_EQ(SysInt(db, "cq", "rows_seen"), 4);
  EXPECT_EQ(SysInt(db, "cq", "open_windows"), 1);
  EXPECT_EQ(SysInt(db, "cq", "late_rows"), 0);
}

TEST_F(ContinuousTest, SlidingWindowGroupsRowInEveryCoveringWindow) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY slide AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW SLIDING 10 ADVANCE 5 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "slide", &closes);

  // t=7 lives in [0,10) and [5,15).
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (1, 7, 2, 2)").ok());
  EXPECT_EQ(SysInt(db, "slide", "open_windows"), 2);

  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (2, 100, 50, 50)").ok());
  ASSERT_EQ(closes.size(), 2u);
  EXPECT_EQ(closes[0], (CloseRecord{0.0, 10.0, 1u, 1u, 0u, 2u}));
  EXPECT_EQ(closes[1], (CloseRecord{5.0, 15.0, 1u, 1u, 0u, 2u}));
}

TEST_F(ContinuousTest, LateRowsAreSkippedAndCounted) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "cq", &closes);

  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (1, 1, 0, 0)").ok());
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (2, 25, 9, 9)").ok());
  ASSERT_EQ(closes.size(), 1u);

  // t=5 targets the already-closed [0,10): dropped as late, grouping and
  // counters elsewhere untouched, the INSERT itself succeeds.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (3, 5, 0, 0)").ok());
  EXPECT_EQ(closes.size(), 1u);
  EXPECT_EQ(SysInt(db, "cq", "late_rows"), 1);
  EXPECT_EQ(SysInt(db, "cq", "rows_seen"), 3);
  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 1);

  // NULL coordinates are skipped (not late, not grouped).
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (4, 26, NULL, 1)").ok());
  EXPECT_EQ(SysInt(db, "cq", "skipped_rows"), 1);
}

// ---- registration and validation ----------------------------------------

TEST_F(ContinuousTest, CreateAndDropSemantics) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  const std::string body =
      " AS SELECT count(*) FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
      "WITHIN 1 WINDOW TUMBLING 10 ON t";
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq" + body).ok());

  EXPECT_EQ(db.Query("CREATE CONTINUOUS QUERY cq" + body).status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_TRUE(
      db.Query("CREATE CONTINUOUS QUERY IF NOT EXISTS cq" + body).ok());

  EXPECT_EQ(db.Query("DROP CONTINUOUS QUERY nope").status().code(),
            Status::Code::kNotFound);
  EXPECT_TRUE(db.Query("DROP CONTINUOUS QUERY IF EXISTS nope").ok());
  EXPECT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_EQ(db.Query("SELECT count(*) FROM system.continuous_queries")
                .value()
                .rows()[0][0]
                .AsInt(),
            0);
}

TEST_F(ContinuousTest, CreateValidatesTheSelectBody) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  auto expect_invalid = [&](const std::string& sql, const char* what) {
    auto status = db.Query(sql).status();
    EXPECT_EQ(status.code(), Status::Code::kInvalidArgument) << what;
  };
  // No WINDOW clause.
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1",
      "missing window");
  // No similarity clause (plain GROUP BY never parses into one here).
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "WINDOW TUMBLING 10 ON t",
      "missing similarity");
  // WHERE is not supported in a continuous body.
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "WHERE x > 0 GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 "
      "WINDOW TUMBLING 10 ON t",
      "where");
  // SLIDING with advance > size.
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM events "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 "
      "WINDOW SLIDING 5 ADVANCE 10 ON t",
      "advance > size");
  // Non-numeric time column.
  ASSERT_TRUE(db.Query("CREATE TABLE tagged (tag TEXT, x DOUBLE, y DOUBLE)")
                  .ok());
  expect_invalid(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM tagged "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 WINDOW TUMBLING 10 ON tag",
      "string time column");
  // Unknown base table.
  auto missing = db.Query(
      "CREATE CONTINUOUS QUERY bad AS SELECT count(*) FROM nowhere "
      "GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 1 WINDOW TUMBLING 10 ON t");
  EXPECT_FALSE(missing.ok());

  // A bare SELECT may not carry WINDOW: it belongs to continuous queries.
  auto bare = db.Query(
      "SELECT count(*) FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
      "WITHIN 1 WINDOW TUMBLING 10 ON t");
  EXPECT_EQ(bare.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(bare.status().message().find("CONTINUOUS"), std::string::npos);
}

// ---- the differential sweep ---------------------------------------------

// Every close differentially checks the maintained grouping against a
// from-scratch batch execution and fails the INSERT on any divergence, so
// driving a realistic stream through every semantics x metric x overlap x
// dop x window combination IS the equivalence assertion; the counters
// confirm the checks actually ran.
TEST_F(ContinuousTest, DifferentialSweepAcrossMetricsPoliciesDopAndWindows) {
  workload::CheckinStreamConfig stream_config;
  stream_config.base = workload::BrightkiteLike(120, 29);
  stream_config.duration = 50.0;
  stream_config.out_of_order_jitter = 4.0;
  const std::vector<Row> stream = workload::GenerateCheckinStream(
      stream_config, /*users=*/50);

  const std::vector<std::string> similarities = {
      "DISTANCE-TO-ANY",
      "DISTANCE-TO-ALL",  // metric appended below; policy after WITHIN
  };
  const std::vector<std::string> metrics = {"L2", "LINF"};
  const std::vector<std::string> policies = {"JOIN-ANY", "ELIMINATE",
                                             "FORM-NEW-GROUP"};
  const std::vector<int> dops = {1, 4};
  const std::vector<std::string> windows = {
      "WINDOW TUMBLING 10 ON t", "WINDOW SLIDING 10 ADVANCE 5 ON t"};

  std::vector<std::string> clauses;
  for (const std::string& metric : metrics) {
    clauses.push_back("DISTANCE-TO-ANY " + metric + " WITHIN 0.8");
    for (const std::string& policy : policies) {
      clauses.push_back("DISTANCE-TO-ALL " + metric +
                        " WITHIN 0.8 ON-OVERLAP " + policy);
    }
  }

  for (const std::string& clause : clauses) {
    for (const int dop : dops) {
      for (const std::string& window : windows) {
        const std::string spec = clause + " PARALLEL " +
                                 std::to_string(dop) + " " + window;
        SCOPED_TRACE(spec);
        Database db;
        ASSERT_TRUE(CreateEventsTable(db).ok());
        ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY sweep AS "
                             "SELECT count(*) FROM events GROUP BY x, y " +
                             spec)
                        .ok());
        std::vector<CloseRecord> closes;
        RecordCloses(db, "sweep", &closes);

        // Jittered arrival order, four batches, then a flush far past the
        // last window: cross-batch jitter also exercises the late path.
        for (size_t b = 0; b < stream.size(); b += 30) {
          auto insert = db.Query(InsertSql(
              "events", stream, b, std::min(b + 30, stream.size())));
          ASSERT_TRUE(insert.ok()) << insert.status().ToString();
        }
        ASSERT_TRUE(
            db.Query("INSERT INTO events VALUES (0, 1000, 0, 0)").ok());

        EXPECT_GE(closes.size(), 4u);
        EXPECT_EQ(static_cast<int64_t>(closes.size()),
                  SysInt(db, "sweep", "windows_closed"));
        EXPECT_EQ(SysInt(db, "sweep", "differential_checks"),
                  SysInt(db, "sweep", "windows_closed"));
        for (const CloseRecord& c : closes) {
          EXPECT_GT(c.rows, 0u);
          EXPECT_EQ(c.deltas, c.rows + 1);  // one per arrival + summary
        }
      }
    }
  }
}

// ---- out-of-order convergence -------------------------------------------

// The same row multiset delivered in different arrival orders must close
// every window with identical results: content-defined canonical order and
// content-only arbitration keys make each close a pure function of the
// window's rows.
TEST_F(ContinuousTest, ShuffledArrivalsConvergeToIdenticalCloses) {
  workload::CheckinStreamConfig stream_config;
  stream_config.base = workload::BrightkiteLike(90, 31);
  stream_config.duration = 40.0;
  stream_config.out_of_order_jitter = 0.0;
  std::vector<Row> rows =
      workload::GenerateCheckinStream(stream_config, /*users=*/40);

  const std::vector<std::string> specs = {
      "DISTANCE-TO-ANY L2 WITHIN 0.8 WINDOW TUMBLING 10 ON t",
      "DISTANCE-TO-ALL L2 WITHIN 0.8 ON-OVERLAP JOIN-ANY "
      "WINDOW SLIDING 10 ADVANCE 5 ON t",
      "DISTANCE-TO-ALL LINF WITHIN 0.8 ON-OVERLAP ELIMINATE "
      "WINDOW TUMBLING 10 ON t",
  };
  for (const std::string& spec : specs) {
    SCOPED_TRACE(spec);
    std::vector<std::vector<CloseRecord>> runs;
    std::vector<int64_t> delta_events;
    for (const uint64_t shuffle_seed : {0ull, 101ull, 202ull}) {
      // Order 0 is event-time sorted; the others are full shuffles. Each
      // run delivers everything in ONE statement (closes happen after the
      // whole statement, so no ordering can make a row late) followed by
      // the flush.
      std::vector<Row> order = rows;
      if (shuffle_seed == 0) {
        std::sort(order.begin(), order.end(),
                  [](const Row& a, const Row& b) {
                    return a[1].AsDouble() < b[1].AsDouble();
                  });
      } else {
        Rng rng(shuffle_seed);
        for (size_t i = order.size(); i > 1; --i) {
          std::swap(order[i - 1],
                    order[static_cast<size_t>(rng.NextInt(
                        0, static_cast<int64_t>(i) - 1))]);
        }
      }
      Database db;
      ASSERT_TRUE(CreateEventsTable(db).ok());
      ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY conv AS "
                           "SELECT count(*) FROM events GROUP BY x, y " +
                           spec)
                      .ok());
      std::vector<CloseRecord> closes;
      RecordCloses(db, "conv", &closes);
      ASSERT_TRUE(
          db.Query(InsertSql("events", order, 0, order.size())).ok());
      ASSERT_TRUE(
          db.Query("INSERT INTO events VALUES (0, 1000, 0, 0)").ok());
      EXPECT_EQ(SysInt(db, "conv", "late_rows"), 0);
      delta_events.push_back(SysInt(db, "conv", "delta_events"));
      runs.push_back(std::move(closes));
    }
    ASSERT_GE(runs[0].size(), 3u);
    EXPECT_EQ(runs[0], runs[1]);
    EXPECT_EQ(runs[0], runs[2]);
    EXPECT_EQ(delta_events[0], delta_events[1]);
    EXPECT_EQ(delta_events[0], delta_events[2]);
  }
}

// ---- non-finite coordinates ---------------------------------------------

/// One close as text: bounds, counts, then kind/point/groups per delta.
std::string CloseText(const DeltaBatch& b) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "[%g,%g) rows=%zu groups=%zu elim=%zu:",
                b.window_start, b.window_end, b.rows, b.num_groups,
                b.eliminated);
  std::string out = buf;
  for (const GroupDelta& d : b.deltas) {
    std::snprintf(buf, sizeof(buf), " %s/%lld/%lld", d.kind.c_str(),
                  static_cast<long long>(d.point),
                  static_cast<long long>(d.groups));
    out += buf;
  }
  return out;
}

// NaN and ±inf coordinates streamed in one batch close every window with
// pinned deltas: under L2 a non-finite point matches nothing; under
// SGB-All's rectangle tests an infinite coordinate meets only the same
// infinity and NaN nothing. The rows go straight to the manager, since
// SQL has no NaN literal.
TEST_F(ContinuousTest, NonFiniteCoordinatesCloseWithStableDeltas) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  auto row = [](double t, double x, double y) {
    return Row{Value::Int(0), Value::Double(t), Value::Double(x),
               Value::Double(y)};
  };
  const std::vector<Row> rows = {
      row(1, 0, 0),        row(2, kInf, 0),     row(2.5, kNaN, 0),
      row(3, 0.5, 0),      row(4, kInf, 0.5),   row(6, -kInf, kInf),
      row(7, -kInf, kInf), row(8, 0.9, 0.1),    row(9, kInf, 0),
      row(7.5, 3, kNaN),   row(8.5, kNaN, kNaN)};
  const std::string l2_any_windows[] = {
      "[-5,5) rows=5 groups=4 elim=0: group_formed/0/0 group_formed/1/0 "
      "group_formed/2/0 member_added/3/1 group_formed/4/0 "
      "window_closed/-1/4",
      "[0,10) rows=11 groups=9 elim=0: group_formed/0/0 group_formed/1/0 "
      "group_formed/2/0 member_added/3/1 group_formed/4/0 group_formed/5/0 "
      "group_formed/6/0 member_added/7/1 group_formed/8/0 group_formed/9/0 "
      "group_formed/10/0 window_closed/-1/9",
      "[5,15) rows=6 groups=6 elim=0: group_formed/5/0 group_formed/6/0 "
      "group_formed/7/0 group_formed/8/0 group_formed/9/0 "
      "group_formed/10/0 window_closed/-1/6"};
  const std::string l2_all_windows[] = {
      "[-5,5) rows=5 groups=3 elim=0: group_formed/0/0 group_formed/1/0 "
      "group_formed/2/0 member_added/3/1 group_formed/4/0 "
      "window_closed/-1/3",
      "[0,10) rows=11 groups=6 elim=0: group_formed/0/0 group_formed/1/0 "
      "group_formed/2/0 member_added/3/1 group_formed/4/0 group_formed/5/0 "
      "group_formed/6/0 member_added/7/1 group_formed/8/0 group_formed/9/0 "
      "group_formed/10/0 window_closed/-1/6",
      "[5,15) rows=6 groups=5 elim=0: group_formed/5/0 group_formed/6/0 "
      "group_formed/7/0 group_formed/8/0 group_formed/9/0 "
      "group_formed/10/0 window_closed/-1/5"};
  const std::string linf_all_windows[] = {
      "[-5,5) rows=5 groups=3 elim=0: group_formed/0/0 group_formed/1/0 "
      "group_formed/2/0 member_added/3/1 member_added/4/1 "
      "window_closed/-1/3",
      "[0,10) rows=11 groups=6 elim=0: group_formed/0/0 group_formed/1/0 "
      "group_formed/2/0 member_added/3/1 member_added/4/1 group_formed/5/0 "
      "group_formed/6/0 member_added/7/1 member_added/8/1 group_formed/9/0 "
      "group_formed/10/0 window_closed/-1/6",
      "[5,15) rows=6 groups=5 elim=0: group_formed/5/0 group_formed/6/0 "
      "group_formed/7/0 group_formed/8/0 group_formed/9/0 "
      "group_formed/10/0 window_closed/-1/5"};
  // SGB-Any under L∞ follows the batch kernel, whose fmax skips a NaN
  // axis: (NaN, 0) matches both (0, 0) and (inf, 0).
  const std::string linf_any_windows[] = {
      "[-5,5) rows=5 groups=1 elim=0: group_formed/0/0 group_formed/1/0 "
      "groups_merged/2/2 member_added/3/1 member_added/4/1 "
      "window_closed/-1/1",
      "[0,10) rows=11 groups=5 elim=0: group_formed/0/0 group_formed/1/0 "
      "groups_merged/2/2 member_added/3/1 member_added/4/1 "
      "group_formed/5/0 group_formed/6/0 member_added/7/1 member_added/8/1 "
      "group_formed/9/0 group_formed/10/0 window_closed/-1/5",
      "[5,15) rows=6 groups=6 elim=0: group_formed/5/0 group_formed/6/0 "
      "group_formed/7/0 group_formed/8/0 group_formed/9/0 "
      "group_formed/10/0 window_closed/-1/6"};
  const std::pair<std::string, const std::string*> specs[] = {
      {"DISTANCE-TO-ANY L2 WITHIN 1", l2_any_windows},
      {"DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP JOIN-ANY", l2_all_windows},
      {"DISTANCE-TO-ALL L2 WITHIN 1 ON-OVERLAP FORM-NEW-GROUP",
       l2_all_windows},
      {"DISTANCE-TO-ALL LINF WITHIN 1 ON-OVERLAP ELIMINATE",
       linf_all_windows},
      {"DISTANCE-TO-ANY LINF WITHIN 1", linf_any_windows},
  };
  for (const auto& [spec, windows] : specs) {
    SCOPED_TRACE(spec);
    Database db;
    ASSERT_TRUE(CreateEventsTable(db).ok());
    ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                         "FROM events GROUP BY x, y " +
                         spec + " WINDOW SLIDING 10 ADVANCE 5 ON t")
                    .ok());
    std::vector<std::string> closes;
    ASSERT_TRUE(db.continuous()
                    .Subscribe("cq",
                               [&closes](const DeltaBatch& b) {
                                 closes.push_back(CloseText(b));
                                 return true;
                               })
                    .ok());
    ASSERT_TRUE(db.continuous().OnInsert(db.catalog(), "events", rows).ok());
    ASSERT_TRUE(db.continuous()
                    .OnInsert(db.catalog(), "events", {row(100, 0, 0)})
                    .ok());
    ASSERT_EQ(closes.size(), 3u);
    for (size_t w = 0; w < 3; ++w) EXPECT_EQ(closes[w], windows[w]);
  }
}

// ---- close latency --------------------------------------------------------

TEST_F(ContinuousTest, CloseLatencyQuantilesAppearAfterTheFirstClose) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ALL L2 "
                       "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());
  const std::string sql =
      "SELECT close_us_p50, close_us_p99 FROM system.continuous_queries";
  ASSERT_TRUE(
      db.Query("INSERT INTO events VALUES (1, 1, 0, 0), (2, 2, 1, 0)").ok());
  auto before = db.Query(sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_TRUE(before.value().rows()[0][0].is_null());
  EXPECT_TRUE(before.value().rows()[0][1].is_null());

  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (3, 12, 5, 5), "
                       "(4, 25, 6, 6)")
                  .ok());
  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 2);
  auto after = db.Query(sql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  const Row& r = after.value().rows()[0];
  ASSERT_FALSE(r[0].is_null());
  ASSERT_FALSE(r[1].is_null());
  EXPECT_GE(r[0].AsDouble(), 0.0);
  EXPECT_GE(r[1].AsDouble(), r[0].AsDouble());
}

// ---- stats refresh and plan invalidation --------------------------------

TEST_F(ContinuousTest, ContinuousPlanRebuildsOnCatalogVersionBump) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());

  // Un-analyzed table: inserts never move the catalog version, so the
  // continuous plan stays put. 30 rows make the later stats-refresh
  // threshold 3 rows (10% of the analyzed count).
  std::string seed_sql = "INSERT INTO events VALUES ";
  for (int i = 0; i < 30; ++i) {
    if (i > 0) seed_sql += ", ";
    seed_sql += "(" + std::to_string(i) + ", " + std::to_string(i) + ", " +
                std::to_string(i % 7) + ", " + std::to_string(i % 5) + ")";
  }
  ASSERT_TRUE(db.Query(seed_sql).ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 0);

  // ANALYZE bumps the catalog version; the next INSERT re-resolves the
  // stored AST before applying its rows, and later inserts below the
  // stats-refresh threshold leave the plan alone.
  ASSERT_TRUE(db.Query("ANALYZE events").ok());
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (1, 31, 2, 2)").ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 1);
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (2, 32, 3, 3)").ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 1);

  // A stats-refresh bump (>=10% growth over the 30 analyzed rows) lands
  // before OnInsert inside the same INSERT, so that statement both bumps
  // and rebuilds.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (3, 33, 4, 4), "
                       "(4, 34, 5, 5), (5, 35, 6, 6), (6, 36, 7, 7)")
                  .ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 2);
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (7, 37, 1, 1)").ok());
  EXPECT_EQ(SysInt(db, "cq", "plan_rebuilds"), 2);

  // Rebuild failure surfaces as the INSERT's status: recreating the base
  // table without the time column makes the re-resolve fail cleanly, and
  // dropping the query restores plain INSERT service.
  ASSERT_TRUE(db.Query("DROP TABLE events").ok());
  ASSERT_TRUE(db.Query("CREATE TABLE events "
                       "(user_id INT, ts DOUBLE, x DOUBLE, y DOUBLE)")
                  .ok());
  EXPECT_EQ(db.Query("INSERT INTO events VALUES (6, 6, 5, 5)")
                .status()
                .code(),
            Status::Code::kInvalidArgument);
  ASSERT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_TRUE(db.Query("INSERT INTO events VALUES (7, 7, 6, 6)").ok());
}

// ---- fault injection and recovery ---------------------------------------

TEST_F(ContinuousTest, WindowCloseFaultLeavesWindowOpenAndRetrySucceeds) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1.5 WINDOW TUMBLING 10 ON t")
                  .ok());
  std::vector<CloseRecord> closes;
  RecordCloses(db, "cq", &closes);

  ASSERT_TRUE(
      db.Query("INSERT INTO events VALUES (1, 1, 0, 0), (2, 2, 1, 0)").ok());

  FaultRegistry::Global().ArmNthHit("continuous.window_close", 1);
  auto faulted = db.Query("INSERT INTO events VALUES (3, 12, 5, 5)");
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(faulted.status().code(), Status::Code::kInternal);
  EXPECT_NE(faulted.status().message().find("continuous.window_close"),
            std::string::npos);
  FaultRegistry::Global().Reset();

  // The failed close published nothing and left both windows open; the
  // base rows stayed appended.
  EXPECT_TRUE(closes.empty());
  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 0);
  EXPECT_EQ(SysInt(db, "cq", "open_windows"), 2);
  EXPECT_EQ(
      db.Query("SELECT count(*) FROM events").value().rows()[0][0].AsInt(),
      3);

  // The next INSERT retries the close; the subscription resumes with the
  // correct first delta batch — the one the fault blocked.
  ASSERT_TRUE(db.Query("INSERT INTO events VALUES (4, 13, 6, 6)").ok());
  ASSERT_EQ(closes.size(), 1u);
  EXPECT_EQ(closes[0], (CloseRecord{0.0, 10.0, 2u, 1u, 0u, 3u}));
  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), 1);

  // Dropping the query drains every maintained charge.
  ASSERT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_EQ(db.continuous().memory().usage_bytes(), 0u);
}

TEST_F(ContinuousTest, OpenWindowStateIsChargedAndDrainedOnDrop) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());
  ASSERT_TRUE(
      db.Query("INSERT INTO events VALUES (1, 1, 0, 0), (2, 2, 1, 1)").ok());
  EXPECT_GT(db.continuous().memory().usage_bytes(), 0u);
  ASSERT_TRUE(db.Query("DROP CONTINUOUS QUERY cq").ok());
  EXPECT_EQ(db.continuous().memory().usage_bytes(), 0u);
}

// ---- concurrent maintenance ---------------------------------------------

TEST_F(ContinuousTest, ConcurrentInsertersMaintainOneQuerySafely) {
  Database db;
  ASSERT_TRUE(CreateEventsTable(db).ok());
  ASSERT_TRUE(db.Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                       "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                       "WITHIN 1 WINDOW TUMBLING 5 ON t")
                  .ok());
  std::atomic<size_t> closes{0};
  auto sub = db.continuous().Subscribe("cq", [&](const DeltaBatch&) {
    closes.fetch_add(1);
    return true;
  });
  ASSERT_TRUE(sub.ok());

  constexpr int kThreads = 4;
  constexpr int kRowsEach = 60;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int w = 0; w < kThreads; ++w) {
    threads.emplace_back([&, w] {
      Rng rng(100 + static_cast<uint64_t>(w));
      for (int i = 0; i < kRowsEach; ++i) {
        const double t = rng.NextUniform(0, 100);
        auto insert = db.Query(
            "INSERT INTO events VALUES (" + std::to_string(w) + ", " + D(t) +
            ", " + D(rng.NextUniform(0, 10)) + ", " +
            D(rng.NextUniform(0, 10)) + ")");
        if (!insert.ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Whatever interleaving happened, the books balance: every row was seen,
  // every close was differentially checked and delivered.
  EXPECT_EQ(SysInt(db, "cq", "rows_seen"), kThreads * kRowsEach);
  EXPECT_EQ(SysInt(db, "cq", "differential_checks"),
            SysInt(db, "cq", "windows_closed"));
  EXPECT_EQ(static_cast<int64_t>(closes.load()),
            SysInt(db, "cq", "windows_closed"));
  EXPECT_GT(closes.load(), 0u);
}

// ---- the server SUBSCRIBE surface ---------------------------------------

TEST_F(ContinuousTest, SubscribeStreamsEventsAcrossConnections) {
  Database db;
  server::ServerOptions options;
  options.unix_path = UniqueUnixPath("continuous_sub");
  server::Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto writer = server::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE TABLE events "
                         "(user_id INT, t DOUBLE, x DOUBLE, y DOUBLE)")
                  .ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                         "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                         "WITHIN 1.5 WINDOW TUMBLING 10 ON t")
                  .ok());

  auto reader = server::Client::ConnectUnixSocket(options.unix_path);
  ASSERT_TRUE(reader.ok());
  // Subscribing to a missing query is NotFound; double-subscribe invalid.
  EXPECT_EQ(reader.value().Subscribe("nope").code(),
            Status::Code::kNotFound);
  ASSERT_TRUE(reader.value().Subscribe("cq").ok());
  EXPECT_EQ(reader.value().Subscribe("cq").code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(reader.value().Unsubscribe("other").code(),
            Status::Code::kNotFound);

  ASSERT_TRUE(writer.value()
                  .Query("INSERT INTO events VALUES (1, 1, 0, 0), "
                         "(2, 2, 1, 0), (3, 12, 8, 8)")
                  .ok());

  // Three events for the close of [0, 10): two arrivals plus the summary.
  std::vector<server::DeltaEvent> events;
  for (int i = 0; i < 3; ++i) {
    auto event = reader.value().NextEvent();
    ASSERT_TRUE(event.ok()) << event.status().ToString();
    events.push_back(std::move(event).value());
  }
  for (const server::DeltaEvent& e : events) {
    EXPECT_EQ(e.query, "cq");
    EXPECT_EQ(e.window_start, 0.0);
    EXPECT_EQ(e.window_end, 10.0);
  }
  EXPECT_EQ(events[0].kind, "group_formed");
  EXPECT_EQ(events[2].kind, "window_closed");
  EXPECT_EQ(events[2].point, -1);
  EXPECT_EQ(events[2].groups, 1);

  // Interleaving: a round trip on the subscribed connection still works
  // while further EVENT pushes arrive — they are buffered, not lost, and
  // PING stays parseable.
  ASSERT_TRUE(
      writer.value().Query("INSERT INTO events VALUES (4, 25, 2, 2)").ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(reader.value().Ping().ok());
  auto buffered = reader.value().NextEvent();
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered.value().window_start, 10.0);

  ASSERT_TRUE(reader.value().Unsubscribe("cq").ok());
  ASSERT_TRUE(reader.value().Quit().ok());
  ASSERT_TRUE(writer.value().Quit().ok());
  server.Stop();
}

// The streaming-smoke hammer: eight subscribers on one continuous query, a
// writer closing windows underneath them, half the subscribers detaching
// mid-stream. The TSan CI job runs exactly this test for the push-path
// write races.
TEST_F(ContinuousTest, EightSubscriberHammer) {
  Database db;
  server::ServerOptions options;
  options.tcp = true;
  server::Server server(&db, options);
  ASSERT_TRUE(server.Start().ok());

  auto writer = server::Client::ConnectLoopback(server.tcp_port());
  ASSERT_TRUE(writer.ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE TABLE events "
                         "(user_id INT, t DOUBLE, x DOUBLE, y DOUBLE)")
                  .ok());
  ASSERT_TRUE(writer.value()
                  .Query("CREATE CONTINUOUS QUERY cq AS SELECT count(*) "
                         "FROM events GROUP BY x, y DISTANCE-TO-ANY L2 "
                         "WITHIN 1 WINDOW TUMBLING 10 ON t")
                  .ok());

  constexpr int kSubscribers = 8;
  constexpr int kWindows = 20;
  std::vector<server::Client> subscribers;
  for (int s = 0; s < kSubscribers; ++s) {
    auto client = server::Client::ConnectLoopback(server.tcp_port());
    ASSERT_TRUE(client.ok());
    subscribers.push_back(std::move(client).value());
    ASSERT_TRUE(subscribers.back().Subscribe("cq").ok());
  }

  std::atomic<int> failures{0};
  std::thread producer([&] {
    Rng rng(77);
    for (int w = 0; w <= kWindows; ++w) {
      // 4 rows inside window w, then the next iteration's rows close it.
      const double base = 10.0 * w;
      std::string sql = "INSERT INTO events VALUES ";
      for (int r = 0; r < 4; ++r) {
        if (r > 0) sql += ", ";
        sql += "(" + std::to_string(r) + ", " +
               D(base + 1.0 + 2.0 * r) + ", " +
               D(rng.NextUniform(0, 6)) + ", " + D(rng.NextUniform(0, 6)) +
               ")";
      }
      if (!writer.value().Query(sql).ok()) failures.fetch_add(1);
    }
  });

  std::vector<std::thread> consumers;
  for (int s = 0; s < kSubscribers; ++s) {
    consumers.emplace_back([&, s] {
      // Odd subscribers detach after half the stream; even ones drain all
      // of it. Every window delivers 5 events (4 arrivals + summary).
      const int want = (s % 2 == 0) ? kWindows : kWindows / 2;
      int seen_closes = 0;
      while (seen_closes < want) {
        auto event = subscribers[s].NextEvent();
        if (!event.ok()) {
          failures.fetch_add(1);
          ADD_FAILURE() << "subscriber " << s << ": "
                        << event.status().ToString();
          return;
        }
        if (event.value().kind == "window_closed") ++seen_closes;
      }
      if (s % 2 == 1) {
        if (!subscribers[s].Unsubscribe("cq").ok()) failures.fetch_add(1);
      }
    });
  }
  producer.join();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(failures.load(), 0);

  // Disconnecting subscribers (without UNSUBSCRIBE) detaches them.
  for (auto& client : subscribers) client.Abort();
  subscribers.clear();
  ASSERT_TRUE(writer.value().Quit().ok());
  server.Stop();

  EXPECT_EQ(SysInt(db, "cq", "windows_closed"), kWindows);
  EXPECT_EQ(SysInt(db, "cq", "subscribers"), 0);
}

}  // namespace
}  // namespace sgb::engine
