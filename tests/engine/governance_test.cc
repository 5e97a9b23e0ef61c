// Resource-governance and fault-tolerance tests for the engine facade:
// memory budgets, wall-clock timeouts, cooperative cancellation, the SET
// statement, and — via the fault-injection registry — every planted fault
// site fired at least once with the query surfacing a clean non-OK Status
// and the Database staying fully usable afterwards (docs/ROBUSTNESS.md).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/query_context.h"
#include "common/random.h"
#include "common/socket.h"
#include "core/sgb_all.h"
#include "engine/csv.h"
#include "engine/executor.h"
#include "engine/spill.h"
#include "obs/metrics.h"
#include "workload/checkin.h"
#include "workload/tpch.h"

namespace sgb::engine {
namespace {

constexpr char kSgbAnyQuery[] =
    "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.4";
constexpr char kSgbAllQuery[] =
    "SELECT count(*) FROM pts GROUP BY x, y "
    "DISTANCE-TO-ALL L2 WITHIN 0.4 ON-OVERLAP ELIMINATE";
constexpr char kSgbParallelQuery[] =
    "SELECT count(*) FROM pts GROUP BY x, y "
    "DISTANCE-TO-ANY L2 WITHIN 0.4 PARALLEL 4";
// Narrow result (count only): the group map dwarfs the materialized
// result, so a budget between the two forces the spill path yet leaves the
// per-partition retries plenty of headroom.
constexpr char kSpillAggQuery[] = "SELECT count(*) FROM ints GROUP BY k";

/// Clustered points in [0, extent)^2 so similarity grouping does real work.
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

/// Wide rows with ~1000 distinct keys: a plain hash aggregate over them
/// breaches a ~180 kB budget mid-build, which is what forces the spill
/// paths (and their fault sites) to engage.
void RegisterIntsTable(Database& db, size_t n = 1000) {
  auto table = std::make_shared<Table>(Schema({
      Column{"k", DataType::kInt64, ""},
      Column{"payload", DataType::kString, ""},
  }));
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(table
                    ->Append({Value::Int(static_cast<int64_t>(i)),
                              Value::Str(std::string(64, 'x'))})
                    .ok());
  }
  db.Register("ints", table);
}

/// SGB-All through the core on its R-tree reference tier (kGroupsIndex),
/// the path that still builds an R-tree over groups: 300 points form
/// enough groups to split its nodes.
Status GroupsIndexStatus() {
  Rng rng(7);
  std::vector<geom::Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back(geom::Point{rng.NextUniform(0, 10), rng.NextUniform(0, 10)});
  }
  core::SgbAllOptions options;
  options.epsilon = 0.4;
  options.on_overlap = core::OverlapClause::kEliminate;
  options.algorithm = core::SgbAllAlgorithm::kGroupsIndex;
  return core::SgbAll(pts, options).status();
}

/// Runs the aggregate under a budget that forces spilling; restores the
/// session knobs so the other fault cases see the default governance.
Status SpilledAggStatus(Database& db) {
  db.set_memory_budget_bytes(180000);
  db.set_spill_enabled(true);
  const Status status = db.Query(kSpillAggQuery).status();
  db.set_spill_enabled(false);
  db.set_memory_budget_bytes(0);
  return status;
}

class GovernanceTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Global().Reset(); }
  void TearDown() override { FaultRegistry::Global().Reset(); }
};

// ---- SET statement ------------------------------------------------------

TEST_F(GovernanceTest, SetStatementAdjustsSessionState) {
  Database db = PointsDb(10);
  auto result = db.Query("SET timeout = 5000");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().NumRows(), 1u);
  EXPECT_EQ(result.value().rows()[0][0].AsString(), "timeout = 5000");
  EXPECT_EQ(db.timeout_ms(), 5000);

  ASSERT_TRUE(db.Query("SET memory_budget = 1048576").ok());
  EXPECT_EQ(db.memory_budget_bytes(), 1048576u);

  ASSERT_TRUE(db.Query("SET parallel = 4").ok());
  EXPECT_EQ(db.default_sgb_dop(), 4);

  ASSERT_TRUE(db.Query("SET spill = 1").ok());
  EXPECT_TRUE(db.spill_enabled());
  ASSERT_TRUE(db.Query("SET spill = 0").ok());
  EXPECT_FALSE(db.spill_enabled());

  auto admission = db.Query("SET admission = queue");
  ASSERT_TRUE(admission.ok()) << admission.status().ToString();
  EXPECT_EQ(admission.value().rows()[0][0].AsString(), "admission = queue");
  EXPECT_EQ(db.admission_mode(), AdmissionMode::kQueue);
  ASSERT_TRUE(db.Query("SET admission = off").ok());
  EXPECT_EQ(db.admission_mode(), AdmissionMode::kOff);
  ASSERT_TRUE(db.Query("SET admission_budget = 4096").ok());
  EXPECT_EQ(db.admission_budget_bytes(), 4096u);

  // Zero removes the knob again.
  ASSERT_TRUE(db.Query("SET timeout = 0").ok());
  EXPECT_EQ(db.timeout_ms(), 0);

  // Identifier values are only meaningful for admission.
  EXPECT_EQ(db.Query("SET timeout = queue").status().code(),
            Status::Code::kInvalidArgument);
  EXPECT_EQ(db.Query("SET admission = sideways").status().code(),
            Status::Code::kInvalidArgument);
}

TEST_F(GovernanceTest, SetStatementRejectsUnknownKnob) {
  Database db;
  auto result = db.Query("SET warp_speed = 9");
  EXPECT_EQ(result.status().code(), Status::Code::kInvalidArgument);
  EXPECT_NE(result.status().message().find("warp_speed"), std::string::npos);
}

TEST_F(GovernanceTest, SetStatementRejectedByPrepare) {
  Database db;
  EXPECT_EQ(db.Prepare("SET timeout = 1").status().code(),
            Status::Code::kInvalidArgument);
}

// ---- Memory budget ------------------------------------------------------

TEST_F(GovernanceTest, MemoryBudgetBreachFailsWithResourceExhausted) {
  Database db = PointsDb(2000);
  ASSERT_TRUE(db.Query("SET memory_budget = 1024").ok());
  auto result = db.Query(kSgbAnyQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(result.status().message().find("memory budget"),
            std::string::npos)
      << result.status().ToString();

  // Lifting the budget makes the identical query succeed: nothing leaked,
  // nothing wedged.
  ASSERT_TRUE(db.Query("SET memory_budget = 0").ok());
  auto retry = db.Query(kSgbAnyQuery);
  EXPECT_TRUE(retry.ok()) << retry.status().ToString();
}

TEST_F(GovernanceTest, MemoryBudgetApiMatchesSetStatement) {
  Database db = PointsDb(2000);
  db.set_memory_budget_bytes(1024);
  EXPECT_EQ(db.Query(kSgbAnyQuery).status().code(),
            Status::Code::kResourceExhausted);
  db.set_memory_budget_bytes(0);
  EXPECT_TRUE(db.Query(kSgbAnyQuery).ok());
}

TEST_F(GovernanceTest, RepeatedBudgetBreachesDoNotLeakEngineAccounting) {
  // Every failed query must fully unwind its charges from the engine-global
  // tracker; otherwise repeated failures ratchet usage upward.
  Database db = PointsDb(2000);
  db.set_memory_budget_bytes(1024);
  const size_t before = MemoryTracker::EngineGlobal().usage_bytes();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(db.Query(kSgbAnyQuery).status().code(),
              Status::Code::kResourceExhausted);
  }
  EXPECT_EQ(MemoryTracker::EngineGlobal().usage_bytes(), before);
}

// ---- Timeout ------------------------------------------------------------

TEST_F(GovernanceTest, TimeoutFailsWithDeadlineExceeded) {
  // 30k points give the grouping easily >1ms of work; the deadline check
  // fires at the next point-stride and aborts long before completion.
  Database db = PointsDb(30000);
  ASSERT_TRUE(db.Query("SET timeout = 1").ok());
  auto result = db.Query(kSgbAnyQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded);

  // Removing the deadline restores normal service.
  ASSERT_TRUE(db.Query("SET timeout = 0").ok());
  EXPECT_TRUE(db.Query(kSgbAnyQuery).ok());
}

// ---- Cancellation -------------------------------------------------------

TEST_F(GovernanceTest, PreCancelledContextAbortsDeterministically) {
  Database db = PointsDb(100);
  auto plan = db.Prepare(kSgbAnyQuery);
  ASSERT_TRUE(plan.ok());
  QueryContext ctx;
  ctx.Cancel();
  plan.value()->SetQueryContext(&ctx);
  auto result = Materialize(*plan.value());
  EXPECT_EQ(result.status().code(), Status::Code::kCancelled);

  // Detached from the cancelled context, the same plan runs to completion.
  plan.value()->SetQueryContext(nullptr);
  EXPECT_TRUE(Materialize(*plan.value()).ok());
}

TEST_F(GovernanceTest, CancelFromAnotherThreadAbortsRunningQuery) {
  Database db = PointsDb(60000, 40.0);
  std::atomic<bool> done{false};
  Status status = Status::OK();
  std::thread runner([&] {
    status = db.Query(kSgbAnyQuery).status();
    done.store(true);
  });
  // Hammer Cancel until the query thread observes it; Cancel on an idle
  // Database is a harmless no-op, so the pre-registration window is safe.
  while (!done.load()) {
    db.Cancel();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  runner.join();
  EXPECT_EQ(status.code(), Status::Code::kCancelled) << status.ToString();

  // The Database survives: the next (un-cancelled) query succeeds.
  auto retry = db.Query("SELECT count(*) FROM pts");
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.value().rows()[0][0].AsInt(), 60000);
}

// ---- Observability ------------------------------------------------------

TEST_F(GovernanceTest, ExplainAnalyzeReportsPeakMemory) {
  Database db = PointsDb(500);
  auto text = db.ExplainAnalyze(kSgbAnyQuery);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text.value().find("peak_mem="), std::string::npos)
      << text.value();
  // A 500-point grouping charges real bytes; the peak cannot be zero.
  EXPECT_EQ(text.value().find("peak_mem=0 B"), std::string::npos)
      << text.value();

  // The EXPLAIN ANALYZE statement form flows through Query() and carries
  // the same annotation.
  auto viaQuery = db.Query(std::string("EXPLAIN ANALYZE ") + kSgbAnyQuery);
  ASSERT_TRUE(viaQuery.ok());
  bool found = false;
  for (const Row& row : viaQuery.value().rows()) {
    found |= row[0].AsString().find("peak_mem=") != std::string::npos;
  }
  EXPECT_TRUE(found);
}

TEST_F(GovernanceTest, GovernanceMetricsPublished) {
  auto& registry = obs::MetricsRegistry::Global();
  Database db = PointsDb(2000);
  ASSERT_TRUE(db.Query(kSgbAnyQuery).ok());
  EXPECT_GT(registry.GetGauge("mem.query.peak").value(), 0.0);
  EXPECT_GT(registry.GetGauge("mem.engine.peak").value(), 0.0);

  const uint64_t mem_before = registry.GetCounter("query.mem_exceeded").value();
  db.set_memory_budget_bytes(1024);
  ASSERT_FALSE(db.Query(kSgbAnyQuery).ok());
  EXPECT_EQ(registry.GetCounter("query.mem_exceeded").value(), mem_before + 1);
  db.set_memory_budget_bytes(0);

  const uint64_t timeout_before = registry.GetCounter("query.timeout").value();
  Database big = PointsDb(30000);
  big.set_timeout_ms(1);
  ASSERT_FALSE(big.Query(kSgbAnyQuery).ok());
  EXPECT_EQ(registry.GetCounter("query.timeout").value(), timeout_before + 1);
}

// ---- Fault-site coverage ------------------------------------------------

struct FaultCase {
  const char* site;
  Status::Code expected_code;
  std::function<Status(Database&)> trigger;
};

/// Opens (or creates) the disk-backed database at `dir` and runs `stmts`
/// in order, returning the first failure. Every call is a fresh Open, so
/// the disarmed re-run of a storage fault case exercises recovery of
/// whatever on-disk state the armed (crashed) run left behind.
Status StorageRun(const std::string& dir,
                  const std::vector<std::string>& stmts) {
  auto db = Database::Open(dir);
  if (!db.ok()) return db.status();
  for (const std::string& s : stmts) {
    auto result = db.value().Query(s);
    if (!result.ok()) return result.status();
  }
  return Status::OK();
}

TEST_F(GovernanceTest, EveryRegisteredFaultSiteFiresAndRecovers) {
  const std::string csv_path = ::testing::TempDir() + "/sgb_fault_io.csv";
  const std::vector<FaultCase> cases = {
      {"common.threadpool.submit", Status::Code::kInternal,
       [](Database& db) { return db.Query(kSgbParallelQuery).status(); }},
      {"engine.batch.alloc", Status::Code::kResourceExhausted,
       [](Database& db) { return db.Query(kSgbAnyQuery).status(); }},
      {"engine.table.append", Status::Code::kResourceExhausted,
       [](Database& db) { return db.Query(kSgbAnyQuery).status(); }},
      {"engine.sgb.build", Status::Code::kInternal,
       [](Database& db) { return db.Query(kSgbAnyQuery).status(); }},
      {"engine.csv.read", Status::Code::kIoError,
       [&csv_path](Database&) { return ReadCsvFile(csv_path).status(); }},
      {"engine.csv.write", Status::Code::kIoError,
       [&csv_path](Database& db) {
         auto pts = db.Query("SELECT * FROM pts");
         if (!pts.ok()) return pts.status();
         return WriteCsvFile(pts.value(), csv_path);
       }},
      {"index.grid.build", Status::Code::kInternal,
       [](Database& db) { return db.Query(kSgbParallelQuery).status(); }},
      {"index.grid.rehash", Status::Code::kInternal,
       [](Database& db) { return db.Query(kSgbParallelQuery).status(); }},
      {"core.group_grid.build", Status::Code::kInternal,
       [](Database& db) { return db.Query(kSgbAllQuery).status(); }},
      {"core.rtree.build", Status::Code::kInternal,
       [](Database&) { return GroupsIndexStatus(); }},
      {"index.rtree.split", Status::Code::kInternal,
       [](Database&) { return GroupsIndexStatus(); }},
      {"engine.spill.write", Status::Code::kIoError,
       [](Database& db) { return SpilledAggStatus(db); }},
      {"engine.spill.read", Status::Code::kIoError,
       [](Database& db) { return SpilledAggStatus(db); }},
      {"workload.checkin.generate", Status::Code::kInternal,
       [](Database&) {
         try {
           workload::GenerateCheckins(workload::BrightkiteLike(64, 1));
           return Status::OK();
         } catch (const QueryAbort& abort) {
           return abort.status();
         }
       }},
      {"workload.tpch.generate", Status::Code::kInternal,
       [](Database&) {
         workload::TpchConfig config;
         config.scale_factor = 0.005;
         try {
           workload::GenerateTpch(config);
           return Status::OK();
         } catch (const QueryAbort& abort) {
           return abort.status();
         }
       }},
      {"engine.append.insert", Status::Code::kResourceExhausted,
       [](Database& db) {
         auto create =
             db.Query("CREATE TABLE IF NOT EXISTS fault_rows (x INT)");
         if (!create.ok()) return create.status();
         return db.Query("INSERT INTO fault_rows VALUES (1), (2)").status();
       }},
      {"continuous.window_close", Status::Code::kInternal,
       // Each invocation builds a fresh continuous query, drives one
       // window to its close (where the armed fault fires as the INSERT's
       // status), and drops the query again so the streaming tracker
       // drains back to baseline either way. The epoch keeps event times
       // strictly increasing across the armed and disarmed runs.
       [epoch = 0.0](Database& db) mutable {
         auto setup = db.Query(
             "CREATE TABLE IF NOT EXISTS cq_rows "
             "(t DOUBLE, x DOUBLE, y DOUBLE)");
         if (!setup.ok()) return setup.status();
         auto cq = db.Query(
             "CREATE CONTINUOUS QUERY cq_fault AS SELECT count(*) "
             "FROM cq_rows GROUP BY x, y DISTANCE-TO-ANY L2 WITHIN 0.5 "
             "WINDOW TUMBLING 5 ON t");
         if (!cq.ok()) return cq.status();
         const double t0 = epoch;
         epoch += 100.0;
         const Status insert =
             db.Query("INSERT INTO cq_rows VALUES (" + std::to_string(t0) +
                      ", 1, 1), (" + std::to_string(t0 + 1) + ", 1.2, 1), (" +
                      std::to_string(t0 + 50) + ", 9, 9)")
                 .status();
         auto drop = db.Query("DROP CONTINUOUS QUERY cq_fault");
         if (!drop.ok()) return drop.status();
         return insert;
       }},
      // Storage sites (docs/STORAGE.md "Crash semantics"): the armed run
      // leaves the directory exactly as a power loss would; the disarmed
      // re-run reopens it, recovering through manifest + WAL replay.
      {"storage.wal.append", Status::Code::kIoError,
       [dir = ::testing::TempDir() + "/sgb_fault_wal_append"](Database&) {
         return StorageRun(dir, {"CREATE TABLE IF NOT EXISTS t (x INT)",
                                 "INSERT INTO t VALUES (1), (2)"});
       }},
      {"storage.wal.fsync", Status::Code::kIoError,
       [dir = ::testing::TempDir() + "/sgb_fault_wal_fsync"](Database&) {
         return StorageRun(dir, {"CREATE TABLE IF NOT EXISTS t (x INT)",
                                 "INSERT INTO t VALUES (1), (2)"});
       }},
      {"storage.page.write", Status::Code::kIoError,
       [dir = ::testing::TempDir() + "/sgb_fault_page_write"](Database&) {
         return StorageRun(dir, {"CREATE TABLE IF NOT EXISTS t (x INT)",
                                 "INSERT INTO t VALUES (1), (2)",
                                 "CHECKPOINT"});
       }},
      {"storage.manifest.write", Status::Code::kIoError,
       [dir = ::testing::TempDir() + "/sgb_fault_manifest"](Database&) {
         return StorageRun(dir, {"CREATE TABLE IF NOT EXISTS t (x INT)",
                                 "INSERT INTO t VALUES (1), (2)",
                                 "CHECKPOINT"});
       }},
      {"storage.page.read", Status::Code::kIoError,
       // Two-phase: the first call seeds pages + manifest write-only (the
       // armed read fault cannot fire there), then every call reopens the
       // directory — recovery and the scan both read pages from disk.
       [dir = ::testing::TempDir() + "/sgb_fault_page_read",
        seeded = false](Database&) mutable -> Status {
         if (!seeded) {
           const Status s =
               StorageRun(dir, {"CREATE TABLE IF NOT EXISTS t (x INT)",
                                "INSERT INTO t VALUES (1), (2)",
                                "CHECKPOINT"});
           if (!s.ok()) return s;
           seeded = true;
         }
         return StorageRun(dir, {"SELECT count(*) FROM t"});
       }},
      {"server.accept", Status::Code::kIoError,
       [](Database&) {
         auto listener = Listener::ListenTcp(0);
         if (!listener.ok()) return listener.status();
         auto client = ConnectTcp(listener.value().port());
         if (!client.ok()) return client.status();
         return listener.value().Accept().status();
       }},
      {"server.read", Status::Code::kIoError,
       [](Database&) {
         auto listener = Listener::ListenTcp(0);
         if (!listener.ok()) return listener.status();
         auto client = ConnectTcp(listener.value().port());
         if (!client.ok()) return client.status();
         SGB_RETURN_IF_ERROR(client.value().WriteAll("ping\n"));
         auto conn = listener.value().Accept();
         if (!conn.ok()) return conn.status();
         LineReader reader(&conn.value());
         std::string line;
         return reader.ReadLine(&line).status();
       }},
      {"server.write", Status::Code::kIoError,
       [](Database&) {
         auto listener = Listener::ListenTcp(0);
         if (!listener.ok()) return listener.status();
         auto client = ConnectTcp(listener.value().port());
         if (!client.ok()) return client.status();
         auto conn = listener.value().Accept();
         if (!conn.ok()) return conn.status();
         return conn.value().WriteAll("pong\n");
       }},
  };

  // The coverage check is bidirectional: every case names a planted site,
  // and every planted site has a case. A new fault site cannot land
  // without a recovery test riding along.
  const auto sites = FaultRegistry::Global().Sites();
  for (const FaultCase& c : cases) {
    EXPECT_NE(std::find(sites.begin(), sites.end(), c.site), sites.end())
        << "site not registered: " << c.site;
  }
  for (const auto& site : sites) {
    EXPECT_TRUE(std::any_of(cases.begin(), cases.end(),
                            [&](const FaultCase& c) { return site == c.site; }))
        << "registered fault site has no coverage case: " << site;
  }

  Database db = PointsDb(300);
  RegisterIntsTable(db);
  // Seed the CSV file so the read-fault trigger exercises a real read path.
  ASSERT_TRUE(
      WriteCsvFile(db.Query("SELECT * FROM pts").value(), csv_path).ok());
  const size_t engine_before = MemoryTracker::EngineGlobal().usage_bytes();

  for (const FaultCase& c : cases) {
    SCOPED_TRACE(c.site);
    FaultRegistry::Global().Reset();
    FaultRegistry::Global().ArmNthHit(c.site, 1);
    const Status faulted = c.trigger(db);
    EXPECT_FALSE(faulted.ok()) << "fault did not surface for " << c.site;
    EXPECT_EQ(faulted.code(), c.expected_code) << faulted.ToString();
    EXPECT_NE(faulted.message().find(c.site), std::string::npos)
        << faulted.ToString();
    EXPECT_GE(FaultRegistry::Global().Injected(c.site), 1u);
    EXPECT_GE(FaultRegistry::Global().Hits(c.site), 1u);
    // The abort unwound cleanly: no temp spill files survive it and the
    // engine-global accounting is back where it started.
    EXPECT_EQ(SpillFile::LiveFileCount(), 0u);
    EXPECT_EQ(MemoryTracker::EngineGlobal().usage_bytes(), engine_before);

    // Disarmed, the identical operation succeeds: the fault left no broken
    // state behind.
    FaultRegistry::Global().Reset();
    const Status clean = c.trigger(db);
    EXPECT_TRUE(clean.ok()) << c.site << ": " << clean.ToString();
    EXPECT_EQ(SpillFile::LiveFileCount(), 0u);
  }
}

TEST_F(GovernanceTest, ProbabilisticFaultsNeverCrashTheEngine) {
  // Blanket chaos pass: with every site failing 30% of the time, repeated
  // queries either succeed or return a clean Status — never crash, leak
  // engine accounting, or wedge the Database.
  Database db = PointsDb(400);
  for (const auto& site : FaultRegistry::Global().Sites()) {
    FaultRegistry::Global().ArmProbability(site, 0.3, 0xC0FFEE);
  }
  const size_t mem_before = MemoryTracker::EngineGlobal().usage_bytes();
  int failures = 0;
  for (int i = 0; i < 20; ++i) {
    const char* sql = (i % 2 == 0) ? kSgbAnyQuery : kSgbParallelQuery;
    auto result = db.Query(sql);
    if (!result.ok()) ++failures;
  }
  FaultRegistry::Global().Reset();
  EXPECT_GT(failures, 0);  // 30% per site over 20 queries must hit
  EXPECT_EQ(MemoryTracker::EngineGlobal().usage_bytes(), mem_before);
  EXPECT_TRUE(db.Query(kSgbAnyQuery).ok());
}

}  // namespace
}  // namespace sgb::engine
