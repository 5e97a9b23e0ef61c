// Disk-backed tables through the engine (docs/STORAGE.md): the paged
// storage path must be invisible to SQL — scans, aggregates, and SGB
// grouping over a table MUCH larger than the buffer pool produce exactly
// what an in-memory database produces — while the storage knobs
// (SET buffer_pool_bytes / SET eviction / CHECKPOINT / system.buffer_pool)
// stay observable and the segment files come and go with their tables.

#include <gtest/gtest.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "engine/csv.h"
#include "engine/executor.h"
#include "storage/paged_table.h"
#include "storage/storage_engine.h"

namespace sgb::engine {
namespace {

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

/// A tiny pool (4 x 256-byte pages) so even small tables run out of core.
storage::StorageOptions TinyPool() {
  storage::StorageOptions options;
  options.page_size = 256;
  options.buffer_pool_bytes = 4 * 256;
  return options;
}

std::string Csv(Result<Table> result) {
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? WriteCsvToString(result.value()) : std::string();
}

// The acceptance gate: a table larger than the buffer pool, filled with a
// clustered point workload, must scan, GROUP BY, aggregate, and
// SGB-group bit-identically to an in-memory database fed the same
// statements — at both eviction policies.
TEST(OutOfCoreTest, TableLargerThanPoolMatchesInMemoryDatabase) {
  for (const char* policy : {"lru", "'2q'"}) {
    SCOPED_TRACE(policy);
    const std::string dir =
        FreshDir(std::string("sgb_ooc_") + (policy[0] == 'l' ? "lru" : "2q"));
    auto disk = Database::Open(dir, TinyPool());
    ASSERT_TRUE(disk.ok()) << disk.status().ToString();
    Database memory;

    const std::string create =
        "CREATE TABLE pts (id INT, x DOUBLE, y DOUBLE)";
    ASSERT_TRUE(disk.value().Query(create).ok());
    ASSERT_TRUE(memory.Query(create).ok());
    ASSERT_TRUE(
        disk.value().Query(std::string("SET eviction = ") + policy).ok());

    // ~600 rows in multi-row statements: tens of pages against a 4-page
    // pool, so the INSERT path itself already evicts and writes back.
    Rng rng(0x00C0FFEE);
    int id = 0;
    for (size_t stmt = 0; stmt < 75; ++stmt) {
      std::string sql = "INSERT INTO pts VALUES ";
      for (size_t r = 0; r < 8; ++r) {
        const double cx = static_cast<double>(rng.NextBounded(5)) * 10.0;
        const double cy = static_cast<double>(rng.NextBounded(5)) * 10.0;
        char buf[128];
        std::snprintf(buf, sizeof(buf), "%s(%d, %.17g, %.17g)",
                      r == 0 ? "" : ", ", id++,
                      cx + rng.NextUniform(-1.0, 1.0),
                      cy + rng.NextUniform(-1.0, 1.0));
        sql += buf;
      }
      ASSERT_TRUE(disk.value().Query(sql).ok());
      ASSERT_TRUE(memory.Query(sql).ok());
    }

    // The table genuinely exceeds the pool.
    storage::PagedTablePtr paged = disk.value().storage()->Find("pts");
    ASSERT_NE(paged, nullptr);
    EXPECT_GT(paged->bytes(), TinyPool().buffer_pool_bytes * 4)
        << "grow the workload: the out-of-core gate is not exercised";

    for (const char* sql : {
             "SELECT * FROM pts",
             "SELECT count(*), sum(id), min(x), max(y) FROM pts",
             "SELECT count(*) FROM pts WHERE x < 25",
             "SELECT group_id, count(*) FROM pts GROUP BY x, y "
             "DISTANCE-TO-ANY L2 WITHIN 3.0",
             "SELECT group_id, count(*) FROM pts GROUP BY x, y "
             "DISTANCE-TO-ALL LINF WITHIN 4.0 ON-OVERLAP FORM-NEW-GROUP",
         }) {
      SCOPED_TRACE(sql);
      EXPECT_EQ(Csv(disk.value().Query(sql)), Csv(memory.Query(sql)));
    }

    // The sweep must have churned the pool, not just fit in it.
    const auto stats = disk.value().storage()->buffer_stats();
    EXPECT_GT(stats.evictions, 0u);
    EXPECT_LE(stats.resident_pages, stats.capacity_pages);

    // ANALYZE streams the paged table to the same statistics the in-memory
    // table gets (rows arrive in the same order)...
    ASSERT_TRUE(disk.value().Query("ANALYZE pts").ok());
    ASSERT_TRUE(memory.Query("ANALYZE pts").ok());
    const char* kStats = "SELECT * FROM system.stats";
    EXPECT_EQ(Csv(disk.value().Query(kStats)), Csv(memory.Query(kStats)));

    // ...and under a session budget smaller than the table it still runs,
    // its tracked peak (the rows in flight) inside the budget: it never
    // loads the table into memory.
    const size_t budget = paged->bytes() / 2;
    ASSERT_TRUE(disk.value()
                    .Query("SET memory_budget = " + std::to_string(budget))
                    .ok());
    ASSERT_TRUE(disk.value().Query("ANALYZE pts").ok());
    ASSERT_TRUE(disk.value().Query("SET memory_budget = 0").ok());
    auto logged = disk.value().Query(
        "SELECT status, peak_memory_bytes FROM system.query_log "
        "WHERE query = 'ANALYZE pts'");
    ASSERT_TRUE(logged.ok()) << logged.status().ToString();
    ASSERT_EQ(logged.value().NumRows(), 2u);
    const Row& governed = logged.value().rows()[1];
    EXPECT_EQ(governed[0].AsString(), "ok");
    EXPECT_GT(governed[1].AsInt(), 0);
    EXPECT_LE(governed[1].AsInt(), static_cast<int64_t>(budget))
        << "table bytes " << paged->bytes();
  }
}

TEST(PagedTableTest, RowsComeBackInInsertionOrderAcrossPages) {
  const std::string dir = FreshDir("sgb_paged_order");
  auto db = Database::Open(dir, TinyPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value().Query("CREATE TABLE seq (v INT)").ok());
  for (int v = 0; v < 200; v += 4) {
    char sql[128];
    std::snprintf(sql, sizeof(sql),
                  "INSERT INTO seq VALUES (%d), (%d), (%d), (%d)", v, v + 1,
                  v + 2, v + 3);
    ASSERT_TRUE(db.value().Query(sql).ok());
  }
  auto result = db.value().Query("SELECT v FROM seq");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().rows().size(), 200u);
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_EQ(result.value().rows()[i][0].AsInt(),
              static_cast<int64_t>(i));
  }

  // A restarted cursor streams the same pinned rows in the same order.
  auto pinned = db.value().storage()->Find("seq")->Pin();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  TableCursor& cursor = *pinned.value();
  ASSERT_EQ(cursor.rows(), 200u);
  ASSERT_TRUE(db.value().Query("INSERT INTO seq VALUES (200)").ok());
  for (int pass = 0; pass < 2; ++pass) {
    cursor.Restart();
    RowBatch batch(7);  // batches straddle page boundaries
    size_t next = 0;
    while (cursor.Next(&batch)) {
      Row row;
      for (size_t i = 0; i < batch.size(); ++i) {
        batch.TakeRow(i, &row);
        ASSERT_EQ(row[0].AsInt(), static_cast<int64_t>(next++));
      }
      batch.Clear();
    }
    EXPECT_EQ(next, 200u);
  }
}

TEST(PagedTableTest, DropTableUnlinksSegmentFile) {
  const std::string dir = FreshDir("sgb_paged_drop");
  auto db = Database::Open(dir, TinyPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value().Query("CREATE TABLE doomed (v INT)").ok());
  ASSERT_TRUE(db.value().Query("INSERT INTO doomed VALUES (1), (2)").ok());

  storage::PagedTablePtr table = db.value().storage()->Find("doomed");
  ASSERT_NE(table, nullptr);
  const std::string seg_path = table->file()->path();
  ASSERT_TRUE(std::filesystem::exists(seg_path));

  ASSERT_TRUE(db.value().Query("DROP TABLE doomed").ok());
  EXPECT_FALSE(db.value().Query("SELECT * FROM doomed").ok());
  // Our reference keeps the segment alive (a scan in flight would too)...
  EXPECT_TRUE(std::filesystem::exists(seg_path));
  table.reset();
  // ...and the file disappears with the last reference.
  EXPECT_FALSE(std::filesystem::exists(seg_path));

  // DROP of a missing table honors IF EXISTS.
  EXPECT_FALSE(db.value().Query("DROP TABLE doomed").ok());
  EXPECT_TRUE(db.value().Query("DROP TABLE IF EXISTS doomed").ok());
}

TEST(PagedTableTest, CreateTableConflictsAndIfNotExists) {
  const std::string dir = FreshDir("sgb_paged_create");
  auto db = Database::Open(dir, TinyPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value().Query("CREATE TABLE t (v INT)").ok());
  EXPECT_FALSE(db.value().Query("CREATE TABLE t (v INT)").ok());
  EXPECT_TRUE(db.value().Query("CREATE TABLE IF NOT EXISTS t (v INT)").ok());
  ASSERT_TRUE(db.value().Query("INSERT INTO t VALUES (7)").ok());
  EXPECT_EQ(db.value()
                .Query("SELECT count(*) FROM t")
                .value()
                .rows()[0][0]
                .AsInt(),
            1);
}

TEST(PagedTableTest, OversizedRowIsRejectedBeforeTouchingTheWal) {
  const std::string dir = FreshDir("sgb_paged_bigrow");
  auto db = Database::Open(dir, TinyPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value().Query("CREATE TABLE blobs (s TEXT)").ok());
  // A 256-byte page holds at most 244 record bytes; this cannot fit.
  const std::string big(400, 'x');
  auto result = db.value().Query("INSERT INTO blobs VALUES ('" + big + "')");
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument)
      << result.status().ToString();
  // The rejection is clean: the engine is not poisoned and keeps working.
  EXPECT_TRUE(db.value().Query("INSERT INTO blobs VALUES ('ok')").ok());
  EXPECT_EQ(db.value()
                .Query("SELECT count(*) FROM blobs")
                .value()
                .rows()[0][0]
                .AsInt(),
            1);
}

TEST(PagedTableTest, BufferPoolKnobsAndSystemTable) {
  const std::string dir = FreshDir("sgb_paged_knobs");
  auto db = Database::Open(dir, TinyPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value().Query("CREATE TABLE t (v INT)").ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(db.value().Query("INSERT INTO t VALUES (" +
                                 std::to_string(i) + ")").ok());
  }

  auto pool = db.value().Query(
      "SELECT policy, capacity_pages, page_size FROM system.buffer_pool");
  ASSERT_TRUE(pool.ok()) << pool.status().ToString();
  ASSERT_EQ(pool.value().rows().size(), 1u);
  EXPECT_EQ(pool.value().rows()[0][0].AsString(), "lru");
  EXPECT_EQ(pool.value().rows()[0][1].AsInt(), 4);
  EXPECT_EQ(pool.value().rows()[0][2].AsInt(), 256);

  ASSERT_TRUE(db.value().Query("SET eviction = '2q'").ok());
  ASSERT_TRUE(db.value().Query("SET buffer_pool_bytes = 2048").ok());
  pool = db.value().Query(
      "SELECT policy, capacity_pages FROM system.buffer_pool");
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool.value().rows()[0][0].AsString(), "2q");
  EXPECT_EQ(pool.value().rows()[0][1].AsInt(), 8);

  EXPECT_FALSE(db.value().Query("SET eviction = arc").ok());

  // Traffic counters move when a scan walks the table.
  ASSERT_TRUE(db.value().Query("SELECT count(*) FROM t").ok());
  auto counters = db.value().Query(
      "SELECT hits, misses, crashed FROM system.buffer_pool");
  ASSERT_TRUE(counters.ok());
  EXPECT_GT(counters.value().rows()[0][0].AsInt() +
                counters.value().rows()[0][1].AsInt(),
            0);
  EXPECT_EQ(counters.value().rows()[0][2].AsInt(), 0);
}

TEST(PagedTableTest, StorageKnobsRequireDiskBackedDatabase) {
  Database memory;
  for (const char* sql : {"SET eviction = lru", "SET buffer_pool_bytes = 4096",
                          "CHECKPOINT"}) {
    auto result = memory.Query(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_NE(result.status().ToString().find("disk-backed"),
              std::string::npos)
        << result.status().ToString();
  }
}

TEST(PagedTableTest, CheckpointStatementAndCloseBothPersist) {
  const std::string dir = FreshDir("sgb_paged_persist");
  {
    auto db = Database::Open(dir, TinyPool());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE(db.value().Query("CREATE TABLE t (v INT, s TEXT)").ok());
    ASSERT_TRUE(
        db.value().Query("INSERT INTO t VALUES (1, 'a'), (2, 'b')").ok());
    ASSERT_TRUE(db.value().Query("CHECKPOINT").ok());
    // Post-checkpoint inserts ride on the WAL until the close checkpoint.
    ASSERT_TRUE(db.value().Query("INSERT INTO t VALUES (3, 'c')").ok());
  }
  {
    auto db = Database::Open(dir, TinyPool());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(Csv(db.value().Query("SELECT * FROM t")), "v,s\n1,a\n2,b\n3,c\n");
    auto stats = db.value().Query(
        "SELECT checkpoints, wal_replayed FROM system.buffer_pool");
    ASSERT_TRUE(stats.ok());
    // The close checkpoint made the reopen replay nothing.
    EXPECT_EQ(stats.value().rows()[0][1].AsInt(), 0);
  }
}

TEST(PagedTableTest, SystemTablesReportPagedKind) {
  const std::string dir = FreshDir("sgb_paged_systables");
  auto db = Database::Open(dir, TinyPool());
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  ASSERT_TRUE(db.value().Query("CREATE TABLE disky (v INT)").ok());
  ASSERT_TRUE(db.value().Query("INSERT INTO disky VALUES (1), (2), (3)").ok());
  const std::string csv = Csv(db.value().Query(
      "SELECT name, kind, rows FROM system.tables WHERE name = 'disky'"));
  EXPECT_NE(csv.find("disky,paged,3"), std::string::npos) << csv;
}

}  // namespace
}  // namespace sgb::engine
