// PROFILE <statement> and the Chrome trace-event export
// (docs/OBSERVABILITY.md): the span tree comes back as rows — operator,
// phase, interval, self time, memory and kernel attributions — and the
// parallel SGB workers appear as explicit-parent spans contained in their
// parent's wall time. `SET trace = 1` accumulates the same spans into the
// session TraceLog for chrome://tracing / Perfetto.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/executor.h"

namespace sgb::engine {
namespace {

constexpr char kParallelSgbQuery[] =
    "SELECT count(*) FROM pts GROUP BY x, y "
    "DISTANCE-TO-ANY L2 WITHIN 0.4 PARALLEL 4";

Database PointsDb(size_t n, double extent = 10.0, uint64_t seed = 7) {
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

struct ProfileRow {
  int64_t id = 0;
  int64_t parent_id = 0;
  int64_t thread = 0;
  std::string op;
  std::string phase;
  int64_t start_us = 0;
  int64_t end_us = 0;
  int64_t wall_us = 0;
  int64_t self_us = 0;
};

std::map<int64_t, ProfileRow> RowsById(const Table& table) {
  std::map<int64_t, ProfileRow> rows;
  for (const Row& row : table.rows()) {
    ProfileRow r;
    r.id = row[0].AsInt();
    r.parent_id = row[1].AsInt();
    r.thread = row[2].AsInt();
    r.op = row[3].AsString();
    r.phase = row[4].AsString();
    r.start_us = row[5].AsInt();
    r.end_us = row[6].AsInt();
    r.wall_us = row[7].AsInt();
    r.self_us = row[8].AsInt();
    rows[r.id] = r;
  }
  return rows;
}

TEST(ProfileTest, ReturnsSpanTreeAsRows) {
  Database db = PointsDb(200);
  const auto result =
      db.Query("PROFILE SELECT count(*) FROM pts WHERE x > 1");
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const Table& table = result.value();
  const auto& cols = table.schema().columns();
  ASSERT_GE(cols.size(), 9u);
  EXPECT_EQ(cols[0].name, "id");
  EXPECT_EQ(cols[1].name, "parent_id");
  EXPECT_EQ(cols[3].name, "operator");
  EXPECT_EQ(cols[4].name, "phase");

  const auto rows = RowsById(table);
  ASSERT_TRUE(rows.count(0));
  EXPECT_EQ(rows.at(0).op, "query");
  EXPECT_EQ(rows.at(0).phase, "query");

  std::set<std::string> names;
  for (const auto& [id, r] : rows) names.insert(r.op);
  EXPECT_TRUE(names.count("parse"));
  EXPECT_TRUE(names.count("plan"));
  EXPECT_TRUE(names.count("execute"));

  // Every non-root span nests inside its parent's interval, and intervals
  // are consistent (end = start + wall).
  for (const auto& [id, r] : rows) {
    EXPECT_EQ(r.end_us, r.start_us + r.wall_us);
    EXPECT_LE(r.self_us, r.wall_us);
    if (id == 0) continue;
    ASSERT_TRUE(rows.count(r.parent_id)) << r.op;
    const ProfileRow& parent = rows.at(r.parent_id);
    EXPECT_GE(r.start_us, parent.start_us) << r.op;
    EXPECT_LE(r.end_us, parent.end_us) << r.op;
  }
}

TEST(ProfileTest, ParallelSgbWorkersNestUnderGroupSpan) {
  Database db = PointsDb(5000);
  const auto result = db.Query(std::string("PROFILE ") + kParallelSgbQuery);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto rows = RowsById(result.value());
  int64_t group_id = -1;
  for (const auto& [id, r] : rows) {
    if (r.op == "sgb.group") group_id = id;
  }
  ASSERT_NE(group_id, -1) << "no sgb.group span in PROFILE output";
  const ProfileRow& group = rows.at(group_id);
  EXPECT_EQ(group.phase, "execute");

  size_t workers = 0;
  for (const auto& [id, r] : rows) {
    if (r.op != "sgb.worker") continue;
    ++workers;
    EXPECT_EQ(r.parent_id, group_id);
    EXPECT_EQ(r.phase, "execute");
    EXPECT_GE(r.start_us, group.start_us);
    EXPECT_LE(r.end_us, group.end_us);
  }
  EXPECT_GE(workers, 2u) << "PARALLEL 4 over 5000 points must fan out";
}

TEST(ProfileTest, SgbOperatorPhasesAreSpans) {
  // Drain, group and aggregate are one span each per SGB operator, all
  // children of `execute` and in that order.
  Database db = PointsDb(500);
  const auto result = db.Query(
      "PROFILE SELECT count(*), avg(x) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ANY L2 WITHIN 0.4");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const auto rows = RowsById(result.value());
  int64_t execute_id = -1;
  for (const auto& [id, r] : rows) {
    if (r.op == "execute") execute_id = id;
  }
  ASSERT_NE(execute_id, -1);
  std::vector<std::string> phases;
  int64_t last_start = -1;
  for (const auto& [id, r] : rows) {
    if (r.op.rfind("sgb.", 0) != 0) continue;
    phases.push_back(r.op);
    EXPECT_EQ(r.parent_id, execute_id) << r.op;
    EXPECT_GE(r.start_us, last_start) << r.op;
    last_start = r.start_us;
  }
  EXPECT_EQ(phases, (std::vector<std::string>{"sgb.drain", "sgb.group",
                                              "sgb.aggregate"}));
}

TEST(ProfileTest, ProfileResultMatchesPlainQuery) {
  Database db = PointsDb(300);
  const auto plain = db.Query(kParallelSgbQuery);
  ASSERT_TRUE(plain.ok());
  const auto profiled =
      db.Query(std::string("PROFILE ") + kParallelSgbQuery);
  ASSERT_TRUE(profiled.ok());
  // PROFILE executes the statement for real: the run lands in the query
  // log with the statement's rows, not the profile table's.
  bool found = false;
  for (const auto& e : db.query_log().Entries()) {
    if (e.text.rfind("PROFILE ", 0) == 0) {
      found = true;
      EXPECT_EQ(e.status, "ok");
      EXPECT_EQ(e.rows_out,
                static_cast<int64_t>(plain.value().NumRows()));
    }
  }
  EXPECT_TRUE(found);
}

TEST(ProfileTest, ExplainAnalyzeReportsPhaseTimings) {
  Database db = PointsDb(200);
  const auto text = db.ExplainAnalyze(kParallelSgbQuery);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("queue_micros="), std::string::npos)
      << text.value();
  EXPECT_NE(text.value().find("plan_micros="), std::string::npos);
  EXPECT_NE(text.value().find("exec_micros="), std::string::npos);
}

TEST(ProfileTest, TraceLogExportsChromeJson) {
  Database db = PointsDb(5000);
  EXPECT_EQ(db.trace_log().event_count(), 0u);

  ASSERT_TRUE(db.Query("SET trace = 1").ok());
  ASSERT_TRUE(db.Query(kParallelSgbQuery).ok());
  ASSERT_TRUE(db.Query("SELECT count(*) FROM pts").ok());
  EXPECT_GT(db.trace_log().event_count(), 0u);

  const std::string path = ::testing::TempDir() + "sgb_trace_test.json";
  ASSERT_TRUE(db.ExportTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  std::remove(path.c_str());

  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u) << json.substr(0, 80);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("sgb-engine"), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"execute\""), std::string::npos);
  EXPECT_NE(json.find("sgb.worker"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("query_id"), std::string::npos);

  // Balanced delimiters — the CI smoke step runs a full JSON parse; this
  // keeps the unit test self-contained.
  int depth = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0);
  }
  EXPECT_EQ(depth, 0);

  // Disabling tracing stops accumulation.
  ASSERT_TRUE(db.Query("SET trace = 0").ok());
  const size_t before = db.trace_log().event_count();
  ASSERT_TRUE(db.Query("SELECT count(*) FROM pts").ok());
  EXPECT_EQ(db.trace_log().event_count(), before);
}

TEST(ProfileTest, ProfileOfFailedStatementSurfacesError) {
  Database db = PointsDb(10);
  EXPECT_FALSE(db.Query("PROFILE SELECT count(*) FROM missing").ok());
}

}  // namespace
}  // namespace sgb::engine
