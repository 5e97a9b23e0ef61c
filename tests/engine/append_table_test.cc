// Tests for DDL-created append-only tables (docs/SERVER.md "Snapshot
// semantics"): CREATE/INSERT/DROP through SQL, validation and coercion,
// snapshot pinning at scan open, and statement-atomic visibility under
// concurrent writers — the last for both writable kinds, append-only and
// paged.

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/append_table.h"
#include "engine/executor.h"

namespace sgb::engine {
namespace {

TEST(AppendTableTest, CreateInsertSelectRoundTrip) {
  Database db;
  ASSERT_TRUE(
      db.Query("CREATE TABLE readings (id INT, temp DOUBLE, site TEXT)")
          .ok());
  ASSERT_TRUE(db.Query("INSERT INTO readings VALUES "
                       "(1, 20.5, 'north'), (2, 21.0, 'south')")
                  .ok());
  auto result =
      db.Query("SELECT id, temp, site FROM readings ORDER BY id");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().NumRows(), 2u);
  EXPECT_EQ(result.value().rows()[0][2].AsString(), "north");
  EXPECT_DOUBLE_EQ(result.value().rows()[1][1].AsDouble(), 21.0);
}

TEST(AppendTableTest, InsertCoercesIntLiteralsIntoDoubleColumns) {
  Database db;
  ASSERT_TRUE(db.Query("CREATE TABLE m (v DOUBLE)").ok());
  ASSERT_TRUE(db.Query("INSERT INTO m VALUES (3)").ok());
  auto result = db.Query("SELECT v FROM m");
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value().rows()[0][0].AsDouble(), 3.0);
}

TEST(AppendTableTest, InsertValidatesArityAndTypes) {
  Database db;
  ASSERT_TRUE(db.Query("CREATE TABLE typed (a INT, b TEXT)").ok());
  EXPECT_FALSE(db.Query("INSERT INTO typed VALUES (1)").ok());
  EXPECT_FALSE(db.Query("INSERT INTO typed VALUES (1, 'x', 2)").ok());
  EXPECT_FALSE(db.Query("INSERT INTO typed VALUES ('str', 'x')").ok());
  // A failed INSERT publishes nothing.
  auto count = db.Query("SELECT count(*) FROM typed");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().rows()[0][0].AsInt(), 0);
}

TEST(AppendTableTest, DdlErrorsAndIfClauses) {
  Database db;
  ASSERT_TRUE(db.Query("CREATE TABLE t1 (v INT)").ok());
  EXPECT_FALSE(db.Query("CREATE TABLE t1 (v INT)").ok());
  EXPECT_TRUE(db.Query("CREATE TABLE IF NOT EXISTS t1 (v INT)").ok());

  EXPECT_EQ(db.Query("INSERT INTO ghost VALUES (1)").status().code(),
            Status::Code::kNotFound);
  EXPECT_FALSE(db.Query("DROP TABLE ghost").ok());
  EXPECT_TRUE(db.Query("DROP TABLE IF EXISTS ghost").ok());
  EXPECT_TRUE(db.Query("DROP TABLE t1").ok());
  EXPECT_FALSE(db.Query("SELECT count(*) FROM t1").ok());
}

TEST(AppendTableTest, InsertIntoRegisteredTableIsRejected) {
  Database db;
  auto fixed = std::make_shared<Table>(Schema({
      Column{"v", DataType::kInt64, ""},
  }));
  ASSERT_TRUE(fixed->Append({Value::Int(1)}).ok());
  db.Register("fixed", fixed);
  auto insert = db.Query("INSERT INTO fixed VALUES (2)");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().code(), Status::Code::kInvalidArgument);
}

TEST(AppendTableTest, AppearsInSystemTablesAsAppendable) {
  Database db;
  ASSERT_TRUE(db.Query("CREATE TABLE logs (line TEXT)").ok());
  ASSERT_TRUE(db.Query("INSERT INTO logs VALUES ('a'), ('b')").ok());
  auto result = db.Query(
      "SELECT name, kind, rows FROM system.tables WHERE name = 'logs'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().NumRows(), 1u);
  EXPECT_EQ(result.value().rows()[0][1].AsString(), "appendable");
  EXPECT_EQ(result.value().rows()[0][2].AsInt(), 2);
}

TEST(AppendTableTest, ScanPinsItsSnapshotAtOpen) {
  Database db;
  ASSERT_TRUE(db.Query("CREATE TABLE feed (v INT)").ok());
  ASSERT_TRUE(db.Query("INSERT INTO feed VALUES (1), (2)").ok());

  AppendTablePtr table = db.catalog().FindAppendable("feed");
  ASSERT_NE(table, nullptr);
  OperatorPtr scan = MakeTableScan(table, "");
  scan->Open();

  // Rows appended after Open are invisible to this scan...
  ASSERT_TRUE(db.Query("INSERT INTO feed VALUES (3)").ok());
  RowBatch batch;
  size_t scanned = 0;
  while (scan->NextBatch(&batch)) scanned += batch.size();
  EXPECT_EQ(scanned, 2u);

  // ...but re-opening the same plan pins a fresh snapshot.
  scan->Open();
  scanned = 0;
  while (scan->NextBatch(&batch)) scanned += batch.size();
  EXPECT_EQ(scanned, 3u);
}

/// Parameter: whether the Database is disk-backed, making CREATE TABLE
/// build a paged table instead of an append-only one.
class AppendTableTest : public ::testing::TestWithParam<bool> {
 protected:
  Database OpenDatabase() {
    if (!GetParam()) return Database();
    const std::string dir = ::testing::TempDir() + "/sgb_concurrent_readers";
    std::filesystem::remove_all(dir);
    auto db = Database::Open(dir);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    return std::move(db).value();
  }
};

TEST_P(AppendTableTest, ConcurrentReadersSeeOnlyWholeInserts) {
  Database db = OpenDatabase();
  ASSERT_TRUE(db.Query("CREATE TABLE stream (v INT)").ok());

  // One writer appends 10-row statements; readers must only ever observe
  // multiples of 10 (INSERT is statement-atomic) and a non-decreasing
  // count (snapshots never travel backwards within a session's view).
  constexpr int kBatches = 50;
  std::atomic<bool> failed{false};
  std::thread writer([&] {
    for (int i = 0; i < kBatches; ++i) {
      std::string sql = "INSERT INTO stream VALUES ";
      for (int j = 0; j < 10; ++j) {
        if (j > 0) sql += ", ";
        sql += "(" + std::to_string(i * 10 + j) + ")";
      }
      if (!db.Query(sql).ok()) failed.store(true);
    }
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&db, &failed] {
      SessionPtr session = db.CreateSession("test:reader");
      int64_t last = 0;
      for (int i = 0; i < 40; ++i) {
        auto result = db.Query(*session, "SELECT count(*) FROM stream");
        if (!result.ok()) {
          failed.store(true);
          return;
        }
        const int64_t count = result.value().rows()[0][0].AsInt();
        if (count % 10 != 0 || count < last) failed.store(true);
        last = count;
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  ASSERT_FALSE(failed.load());
  auto final_count = db.Query("SELECT count(*) FROM stream");
  ASSERT_TRUE(final_count.ok());
  EXPECT_EQ(final_count.value().rows()[0][0].AsInt(), kBatches * 10);
}

INSTANTIATE_TEST_SUITE_P(Backends, AppendTableTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Paged" : "InMemory";
                         });

}  // namespace
}  // namespace sgb::engine
