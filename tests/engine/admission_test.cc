// Admission-control tests (docs/ROBUSTNESS.md): queries are gated at plan
// time on their estimated footprint against the engine headroom. Queue mode
// delays but never loses work; shed mode fails fast with ResourceExhausted;
// both publish their decisions as query.queued / query.shed counters.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "engine/executor.h"
#include "obs/metrics.h"

namespace sgb::engine {
namespace {

constexpr char kScanQuery[] = "SELECT count(*) FROM pts";

Database PointsDb(size_t n, uint64_t seed = 7) {
  Database db;
  auto pts = std::make_shared<Table>(Schema({
      Column{"x", DataType::kDouble, ""},
      Column{"y", DataType::kDouble, ""},
  }));
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(pts->Append({Value::Double(rng.NextUniform(0, 10)),
                             Value::Double(rng.NextUniform(0, 10))})
                    .ok());
  }
  db.Register("pts", pts);
  return db;
}

TEST(AdmissionTest, OffModeAdmitsEverything) {
  Database db = PointsDb(5000);
  db.set_admission_budget_bytes(1);  // absurdly small, but mode is off
  EXPECT_TRUE(db.Query(kScanQuery).ok());
}

TEST(AdmissionTest, ShedFailsFastWhenEstimateExceedsHeadroom) {
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t shed_before = registry.GetCounter("query.shed").value();

  Database db = PointsDb(5000);
  ASSERT_TRUE(db.Query("SET admission = shed").ok());
  ASSERT_TRUE(db.Query("SET admission_budget = 4096").ok());

  // A 5000-row scan estimates far above 4 kB: shed, with a clear status.
  auto result = db.Query(kScanQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kResourceExhausted);
  EXPECT_NE(result.status().message().find("admission"), std::string::npos)
      << result.status().ToString();
  EXPECT_EQ(registry.GetCounter("query.shed").value(), shed_before + 1);

  // Raising the headroom restores service on the identical query.
  ASSERT_TRUE(db.Query("SET admission_budget = 104857600").ok());
  EXPECT_TRUE(db.Query(kScanQuery).ok());
  // And turning admission off removes the gate entirely.
  ASSERT_TRUE(db.Query("SET admission = off").ok());
  ASSERT_TRUE(db.Query("SET admission_budget = 1").ok());
  EXPECT_TRUE(db.Query(kScanQuery).ok());
}

TEST(AdmissionTest, QueueShedsQueriesThatCanNeverFit) {
  // Even in queue mode, a query whose lone footprint exceeds the entire
  // headroom is shed: waiting for other queries to finish cannot help.
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t shed_before = registry.GetCounter("query.shed").value();
  Database db = PointsDb(5000);
  ASSERT_TRUE(db.Query("SET admission = queue").ok());
  ASSERT_TRUE(db.Query("SET admission_budget = 4096").ok());
  auto result = db.Query(kScanQuery);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), Status::Code::kResourceExhausted);
  EXPECT_EQ(registry.GetCounter("query.shed").value(), shed_before + 1);
}

TEST(AdmissionTest, QueuePreservesAllConcurrentResults) {
  auto& registry = obs::MetricsRegistry::Global();
  const uint64_t queued_before = registry.GetCounter("query.queued").value();

  // Headroom fits roughly one query at a time, so concurrent runs must
  // serialize through the queue — and every one of them must complete.
  // The query has to hold its admission slot long enough for the other
  // threads to reach the gate: a heavy SGB grouping runs for tens of
  // milliseconds while thread startup is microseconds, so with ~1.5 slots
  // for 8 threads the late arrivals reliably find the ledger full. SGB-All
  // (~10 ms here) rather than SGB-Any, whose grid groups these 4000 points
  // in about a millisecond.
  static constexpr char kHeavyQuery[] =
      "SELECT count(*) FROM pts GROUP BY x, y "
      "DISTANCE-TO-ALL L2 WITHIN 0.4 ON-OVERLAP JOIN-ANY";
  Database db = PointsDb(4000);
  auto reference = db.Query(kHeavyQuery);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const size_t reference_rows = reference.value().NumRows();

  const size_t estimate =
      db.Prepare(kHeavyQuery).value()->EstimateFootprintBytes();
  ASSERT_GT(estimate, 0u);
  db.set_admission_mode(AdmissionMode::kQueue);
  db.set_admission_budget_bytes(estimate + estimate / 2);

  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  std::atomic<int> ok_count{0};
  std::atomic<int> correct_count{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&db, &ok_count, &correct_count, reference_rows] {
      auto result = db.Query(kHeavyQuery);
      if (!result.ok()) return;
      ok_count.fetch_add(1);
      int64_t total = 0;
      for (const Row& row : result.value().rows()) total += row[0].AsInt();
      // Every point lands in exactly one group, so the per-group counts
      // must sum back to the input size.
      if (result.value().NumRows() == reference_rows && total == 4000) {
        correct_count.fetch_add(1);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(ok_count.load(), kThreads);
  EXPECT_EQ(correct_count.load(), kThreads);
  // With ~1.5 slots for 8 queries, at least one had to wait its turn.
  EXPECT_GT(registry.GetCounter("query.queued").value(), queued_before);
}

TEST(AdmissionTest, QueueTimesOutUnderSessionDeadline) {
  Database db = PointsDb(4000);
  const size_t estimate =
      db.Prepare(kScanQuery).value()->EstimateFootprintBytes();
  db.set_admission_mode(AdmissionMode::kQueue);
  db.set_admission_budget_bytes(estimate + estimate / 2);
  db.set_timeout_ms(50);

  // A long-running query holds the headroom while a second one queues; the
  // second must give up with DeadlineExceeded once the timeout lapses.
  std::atomic<bool> holder_started{false};
  std::thread holder([&db, &holder_started] {
    // Big SGB grouping: comfortably outlasts the 50ms window.
    holder_started.store(true);
    (void)db.Query(
        "SELECT count(*) FROM pts GROUP BY x, y "
        "DISTANCE-TO-ANY L2 WITHIN 0.4");
  });
  while (!holder_started.load()) std::this_thread::yield();
  // Give the holder a moment to pass admission and start executing.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  auto result = db.Query(kScanQuery);
  holder.join();
  if (!result.ok()) {
    // Queued past the deadline (the expected path when the holder was
    // still running); a success means the holder finished early — legal,
    // just not the interesting schedule.
    EXPECT_EQ(result.status().code(), Status::Code::kDeadlineExceeded)
        << result.status().ToString();
  }

  // The headroom ledger fully drained: a fresh query is admitted at once.
  db.set_timeout_ms(0);
  EXPECT_TRUE(db.Query(kScanQuery).ok());
}

TEST(AdmissionTest, FootprintEstimateGrowsWithInput) {
  Database small = PointsDb(100);
  Database big = PointsDb(10000);
  const size_t small_est =
      small.Prepare(kScanQuery).value()->EstimateFootprintBytes();
  const size_t big_est =
      big.Prepare(kScanQuery).value()->EstimateFootprintBytes();
  EXPECT_GT(big_est, small_est);
}

}  // namespace
}  // namespace sgb::engine
