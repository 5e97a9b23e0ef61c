// Differential fuzz harness for the SGB cores and the engine pipeline.
//
// Each case draws a seeded point set (uniform / clustered / adversarial
// duplicates / non-finite coordinates) and a random configuration
// ({L2, LInf} x {JOIN-ANY, ELIMINATE, FORM-NEW-GROUP} x dop {1, 4}), then
// cross-checks every implementation tier against the All-Pairs oracle:
// SGB-All {AllPairs, BoundsChecking, Indexed} and SGB-Any
// {AllPairs, Indexed}, serial and parallel, must produce bit-identical
// groupings. A separate pass drives the same grouping through the engine's
// batch pipeline at several RowBatch capacities and cross-checks the
// materialized tables.
//
// On a mismatch the failing input is minimized by greedy point removal and
// printed as a paste-able repro, so a fuzz failure in CI localizes itself.
//
// Knobs (environment):
//   SGB_FUZZ_CASES  number of cases per test (default 200)
//   SGB_FUZZ_SEED   master seed (default 20260806)

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <filesystem>

#include "common/fault_injection.h"
#include "common/random.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "engine/continuous.h"
#include "engine/csv.h"
#include "engine/executor.h"
#include "engine/spill.h"
#include "fuzz_generators.h"
#include "obs/metrics.h"
#include "storage/storage_engine.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

uint64_t EnvU64(const char* name, uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoull(value, nullptr, 10);
}

size_t FuzzCases() { return EnvU64("SGB_FUZZ_CASES", 200); }
uint64_t FuzzSeed() { return EnvU64("SGB_FUZZ_SEED", 20260806); }

/// RowBatch capacities the batch sweeps drive every plan at: one row per
/// batch, sizes that split column batches unevenly, and the default.
constexpr size_t kBatchCapacities[] = {1, 3, 7, 64, 1024};

/// Greedy delta-debugging: drop any point whose removal keeps the mismatch,
/// repeating until a pass removes nothing. `mismatch` returns true when the
/// divergence is still present on the candidate input.
template <typename MismatchFn>
std::vector<Point> Minimize(std::vector<Point> pts, MismatchFn mismatch) {
  bool shrunk = true;
  while (shrunk && pts.size() > 1) {
    shrunk = false;
    for (size_t i = 0; i < pts.size();) {
      std::vector<Point> candidate = pts;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (mismatch(candidate)) {
        pts = std::move(candidate);
        shrunk = true;
      } else {
        ++i;
      }
    }
  }
  return pts;
}

/// Both runs must succeed and agree exactly; reports a minimized repro
/// otherwise. Returns false on divergence so callers can stop early.
template <typename RunFn>
bool CheckAgainstOracle(const std::vector<Point>& pts,
                        const CaseConfig& config, const Grouping& oracle,
                        RunFn run, const char* variant) {
  auto result = run(pts);
  if (result.ok() && result.value().group_of == oracle.group_of) return true;

  auto mismatch = [&run, &config](const std::vector<Point>& candidate) {
    // Recompute the oracle on the shrunk input; any error counts as a
    // still-live divergence.
    auto fresh_oracle = SgbAll(candidate, AllOptions(
        config, SgbAllAlgorithm::kAllPairs, 1));
    auto fresh = run(candidate);
    if (!fresh_oracle.ok() || !fresh.ok()) return true;
    return fresh_oracle.value().group_of != fresh.value().group_of;
  };
  const auto minimal = Minimize(pts, mismatch);
  ADD_FAILURE() << variant << " diverges from the All-Pairs oracle\n"
                << (result.ok() ? "(grouping mismatch)"
                                : result.status().ToString())
                << "\n"
                << Repro(config, minimal);
  return false;
}

/// SGB-Any variant of the above (its own oracle).
template <typename RunFn>
bool CheckAnyAgainstOracle(const std::vector<Point>& pts,
                           const CaseConfig& config, const Grouping& oracle,
                           RunFn run, const char* variant) {
  auto result = run(pts);
  if (result.ok() && result.value().group_of == oracle.group_of) return true;

  auto mismatch = [&run, &config](const std::vector<Point>& candidate) {
    auto fresh_oracle = SgbAny(candidate, AnyOptions(
        config, SgbAnyAlgorithm::kAllPairs, 1));
    auto fresh = run(candidate);
    if (!fresh_oracle.ok() || !fresh.ok()) return true;
    return fresh_oracle.value().group_of != fresh.value().group_of;
  };
  const auto minimal = Minimize(pts, mismatch);
  ADD_FAILURE() << variant << " diverges from the All-Pairs oracle\n"
                << (result.ok() ? "(grouping mismatch)"
                                : result.status().ToString())
                << "\n"
                << Repro(config, minimal);
  return false;
}

/// Every grouping — even over garbage coordinates — must be well-formed:
/// one entry per point, ids dense below num_groups or kEliminated.
void ExpectValidShape(const Grouping& grouping, size_t n,
                      const CaseConfig& config) {
  ASSERT_EQ(grouping.group_of.size(), n) << config.ToText();
  for (const size_t g : grouping.group_of) {
    EXPECT_TRUE(g < grouping.num_groups || g == Grouping::kEliminated)
        << config.ToText();
  }
}

TEST(SgbFuzzTest, DifferentialCrossCheckAgainstAllPairsOracle) {
  Rng rng(FuzzSeed());
  const size_t cases = FuzzCases();
  size_t non_finite_cases = 0;
  for (size_t c = 0; c < cases; ++c) {
    const CaseConfig config = DrawConfig(rng);
    const size_t n = rng.NextBounded(121);  // includes the empty input
    const auto pts = GeneratePoints(rng, config.kind, n);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + config.ToText() +
                 " n=" + std::to_string(n));

    if (config.kind == PointKind::kNonFinite) {
      // NaN breaks the metric axioms, so the SGB-All tiers and the R-tree
      // SGB-Any tier may legitimately disagree; their contract is weaker —
      // never crash, always produce a well-formed grouping (serial only).
      // The grid follows the kernel's own NaN/±inf semantics, so SGB-Any's
      // grid runs must still equal the All-Pairs oracle exactly.
      ++non_finite_cases;
      std::vector<Grouping> all_tiers;
      for (const SgbAllAlgorithm algorithm :
           {SgbAllAlgorithm::kAllPairs, SgbAllAlgorithm::kBoundsChecking,
            SgbAllAlgorithm::kIndexed, SgbAllAlgorithm::kGroupsIndex}) {
        auto result = SgbAll(pts, AllOptions(config, algorithm, 1));
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        ExpectValidShape(result.value(), n, config);
        all_tiers.push_back(std::move(result).value());
      }
      // The group grid classifies exactly the groups Bounds-Checking
      // scans, NaN or not, so those two tiers still agree.
      EXPECT_EQ(all_tiers[2].group_of, all_tiers[1].group_of)
          << Repro(config, pts);
      auto points_index =
          SgbAny(pts, AnyOptions(config, SgbAnyAlgorithm::kPointsIndex, 1));
      ASSERT_TRUE(points_index.ok()) << points_index.status().ToString();
      ExpectValidShape(points_index.value(), n, config);

      auto any_oracle = SgbAny(pts, AnyOptions(
          config, SgbAnyAlgorithm::kAllPairs, 1));
      ASSERT_TRUE(any_oracle.ok()) << any_oracle.status().ToString();
      ExpectValidShape(any_oracle.value(), n, config);
      bool ok = true;
      for (const int dop : {1, 2, 4, 7}) {
        const std::string variant = "SgbAny/grid/dop" + std::to_string(dop);
        ok &= CheckAnyAgainstOracle(
            pts, config, any_oracle.value(),
            [&config, dop](const std::vector<Point>& input) {
              return SgbAny(input,
                            AnyOptions(config, SgbAnyAlgorithm::kIndexed, dop));
            },
            variant.c_str());
      }
      if (!ok) break;  // one minimized repro is enough
      continue;
    }

    // SGB-All: All-Pairs is the oracle; every tier and dop must match it.
    auto all_oracle = SgbAll(pts, AllOptions(
        config, SgbAllAlgorithm::kAllPairs, 1));
    ASSERT_TRUE(all_oracle.ok()) << all_oracle.status().ToString();
    ExpectValidShape(all_oracle.value(), n, config);
    bool ok = true;
    for (const SgbAllAlgorithm algorithm :
         {SgbAllAlgorithm::kBoundsChecking, SgbAllAlgorithm::kIndexed,
          SgbAllAlgorithm::kGroupsIndex}) {
      for (const int dop : {1, 4}) {
        const std::string variant =
            std::string("SgbAll/") + ToString(algorithm) + "/dop" +
            std::to_string(dop);
        ok &= CheckAgainstOracle(
            pts, config, all_oracle.value(),
            [&config, algorithm, dop](const std::vector<Point>& input) {
              return SgbAll(input, AllOptions(config, algorithm, dop));
            },
            variant.c_str());
      }
    }
    ok &= CheckAgainstOracle(
        pts, config, all_oracle.value(),
        [&config](const std::vector<Point>& input) {
          return SgbAll(input,
                        AllOptions(config, SgbAllAlgorithm::kAllPairs, 4));
        },
        "SgbAll/AllPairs/dop4");

    // SGB-Any: same pattern with its own oracle.
    auto any_oracle = SgbAny(pts, AnyOptions(
        config, SgbAnyAlgorithm::kAllPairs, 1));
    ASSERT_TRUE(any_oracle.ok()) << any_oracle.status().ToString();
    ExpectValidShape(any_oracle.value(), n, config);
    for (const SgbAnyAlgorithm algorithm :
         {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed,
          SgbAnyAlgorithm::kPointsIndex}) {
      for (const int dop : {1, 4}) {
        if (algorithm == SgbAnyAlgorithm::kAllPairs && dop == 1) continue;
        const std::string variant =
            std::string("SgbAny/") + ToString(algorithm) + "/dop" +
            std::to_string(dop);
        ok &= CheckAnyAgainstOracle(
            pts, config, any_oracle.value(),
            [&config, algorithm, dop](const std::vector<Point>& input) {
              return SgbAny(input, AnyOptions(config, algorithm, dop));
            },
            variant.c_str());
      }
    }
    if (!ok) break;  // one minimized repro is enough
  }
  EXPECT_GT(non_finite_cases, 0u)
      << "fuzz sweep never drew the non-finite generator; raise "
         "SGB_FUZZ_CASES";
}

// The batch pipeline must be a pure chunking of the row pipeline: driving
// the same plan with different RowBatch capacities cannot change the
// result table.
TEST(SgbFuzzTest, BatchSizesProduceIdenticalResults) {
  using engine::Column;
  using engine::Database;
  using engine::DataType;
  using engine::Row;
  using engine::RowBatch;
  using engine::Schema;
  using engine::Table;
  using engine::Value;

  Rng rng(FuzzSeed() ^ 0xBA7C4);
  const size_t cases = std::max<size_t>(FuzzCases() / 8, 8);
  for (size_t c = 0; c < cases; ++c) {
    CaseConfig config = DrawConfig(rng);
    if (config.kind == PointKind::kNonFinite) config.kind = PointKind::kUniform;
    const size_t n = 1 + rng.NextBounded(120);
    const auto pts = GeneratePoints(rng, config.kind, n);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + config.ToText() +
                 " n=" + std::to_string(n));

    Database db;
    auto table = std::make_shared<Table>(Schema({
        Column{"x", DataType::kDouble, ""},
        Column{"y", DataType::kDouble, ""},
    }));
    for (const Point& p : pts) {
      ASSERT_TRUE(
          table->Append({Value::Double(p.x), Value::Double(p.y)}).ok());
    }
    db.Register("pts", table);

    char sql[256];
    std::snprintf(sql, sizeof(sql),
                  "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY "
                  "%s WITHIN %.17g",
                  config.metric == Metric::kL2 ? "L2" : "LINF",
                  config.epsilon);

    auto reference = db.Query(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string want = engine::WriteCsvToString(reference.value());

    for (const size_t capacity : kBatchCapacities) {
      auto plan = db.Prepare(sql);
      ASSERT_TRUE(plan.ok());
      Table got(plan.value()->schema());
      plan.value()->Open();
      RowBatch batch(capacity);
      while (plan.value()->NextBatch(&batch)) {
        for (size_t i = 0; i < batch.size(); ++i) {
          Row row;
          batch.TakeRow(i, &row);
          ASSERT_TRUE(got.Append(std::move(row)).ok());
        }
      }
      EXPECT_EQ(engine::WriteCsvToString(got), want)
          << "batch capacity " << capacity;
    }
  }
}

// The spill dimension of the differential harness: every case also runs
// under a budget tight enough to force the SGB drain out of core, and the
// spilled grouping must be bit-identical to the in-memory oracle — across
// batch capacities 1/3/7/64/1024, exactly like the in-memory sweep above.
TEST(SgbFuzzTest, SpilledExecutionMatchesInMemoryOracle) {
  using engine::Column;
  using engine::Database;
  using engine::DataType;
  using engine::Row;
  using engine::RowBatch;
  using engine::Schema;
  using engine::Table;
  using engine::Value;

  Rng rng(FuzzSeed() ^ 0x5B111ULL);
  const size_t cases = std::max<size_t>(FuzzCases() / 8, 8);
  size_t spilled_cases = 0;
  for (size_t c = 0; c < cases; ++c) {
    CaseConfig config = DrawConfig(rng);
    if (config.kind == PointKind::kNonFinite) config.kind = PointKind::kUniform;
    const size_t n = 60 + rng.NextBounded(90);
    const auto pts = GeneratePoints(rng, config.kind, n);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + config.ToText() +
                 " n=" + std::to_string(n));

    Database db;
    auto table = std::make_shared<Table>(Schema({
        Column{"x", DataType::kDouble, ""},
        Column{"y", DataType::kDouble, ""},
    }));
    for (const Point& p : pts) {
      ASSERT_TRUE(
          table->Append({Value::Double(p.x), Value::Double(p.y)}).ok());
    }
    db.Register("pts", table);

    char sql[256];
    std::snprintf(sql, sizeof(sql),
                  "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY "
                  "%s WITHIN %.17g",
                  config.metric == Metric::kL2 ? "L2" : "LINF",
                  config.epsilon);

    // In-memory oracle, and the peak it actually charged.
    auto reference = db.Query(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string want = engine::WriteCsvToString(reference.value());
    const size_t peak = static_cast<size_t>(
        obs::MetricsRegistry::Global().GetGauge("mem.query.peak").value());
    ASSERT_GT(peak, 0u);
    // Any budget strictly below the peak makes the plain run breach, but the
    // spilled run can only evict buffered rows — the point coordinates and
    // the retained result groups must stay resident. When a tiny epsilon
    // makes nearly every point its own group, that resident floor approaches
    // points + results, which can exceed half the peak; 7/8 clears the floor
    // in every regime while still forcing the drain out of core.
    const size_t budget = peak - peak / 8;

    // A budget below the in-memory peak must make the plain run fail...
    db.set_memory_budget_bytes(budget);
    auto budgeted = db.Query(sql);
    ASSERT_FALSE(budgeted.ok()) << "budget " << budget << " did not bite";
    ASSERT_EQ(budgeted.status().code(), Status::Code::kResourceExhausted)
        << budgeted.status().ToString();

    // ...and the spill-enabled run must recover it bit-identically, at
    // every batch capacity.
    for (const size_t capacity : kBatchCapacities) {
      auto plan = db.Prepare(sql);
      ASSERT_TRUE(plan.ok());
      QueryContext ctx(budget);
      SpillConfig spill;
      spill.enabled = true;
      ctx.set_spill(spill);
      plan.value()->SetQueryContext(&ctx);
      Table got(plan.value()->schema());
      Status run = Status::OK();
      try {
        plan.value()->Open();
        RowBatch batch(capacity);
        while (plan.value()->NextBatch(&batch)) {
          for (size_t i = 0; i < batch.size(); ++i) {
            Row row;
            batch.TakeRow(i, &row);
            ASSERT_TRUE(got.Append(std::move(row)).ok());
          }
        }
      } catch (const QueryAbort& abort) {
        run = abort.status();
      }
      ASSERT_TRUE(run.ok()) << "batch capacity " << capacity << ": "
                            << run.ToString();
      EXPECT_EQ(engine::WriteCsvToString(got), want)
          << "batch capacity " << capacity;
      if (ctx.spill_events() > 0) ++spilled_cases;
      plan.value()->SetQueryContext(nullptr);
    }
    EXPECT_EQ(engine::SpillFile::LiveFileCount(), 0u);
    db.set_memory_budget_bytes(0);
  }
  // The sweep is only meaningful if the budget actually forced spilling.
  EXPECT_GT(spilled_cases, 0u);
}

// The cost-model dimension of the differential harness: tier selection is
// a pure performance decision, so whatever tier the planner's cost model
// picks from ANALYZE statistics, the grouping must stay bit-identical to
// the forced All-Pairs reference (docs/PLANNER.md).
TEST(SgbFuzzTest, AutoChosenTiersMatchForcedAllPairs) {
  using engine::Column;
  using engine::Database;
  using engine::DataType;
  using engine::Schema;
  using engine::Table;
  using engine::Value;

  Rng rng(FuzzSeed() ^ 0xC057);
  const size_t cases = std::max<size_t>(FuzzCases() / 8, 8);
  for (size_t c = 0; c < cases; ++c) {
    CaseConfig config = DrawConfig(rng);
    if (config.kind == PointKind::kNonFinite) config.kind = PointKind::kUniform;
    const size_t n = 20 + rng.NextBounded(100);
    const auto pts = GeneratePoints(rng, config.kind, n);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + config.ToText() +
                 " n=" + std::to_string(n));

    Database db;
    auto table = std::make_shared<Table>(Schema({
        Column{"x", DataType::kDouble, ""},
        Column{"y", DataType::kDouble, ""},
    }));
    for (const Point& p : pts) {
      ASSERT_TRUE(
          table->Append({Value::Double(p.x), Value::Double(p.y)}).ok());
    }
    db.Register("pts", table);
    ASSERT_TRUE(db.Query("ANALYZE pts").ok());

    const bool any = rng.NextBounded(2) == 0;
    char sql[256];
    std::snprintf(sql, sizeof(sql),
                  "SELECT group_id, count(*) FROM pts GROUP BY x, y "
                  "DISTANCE-TO-%s %s WITHIN %.17g",
                  any ? "ANY" : "ALL",
                  config.metric == Metric::kL2 ? "L2" : "LINF",
                  config.epsilon);

    ASSERT_TRUE(db.Query("SET sgb_tier = all_pairs").ok());
    auto reference = db.Query(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string want = engine::WriteCsvToString(reference.value());

    ASSERT_TRUE(db.Query("SET sgb_tier = auto").ok());
    auto chosen = db.Query(sql);
    ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
    EXPECT_EQ(engine::WriteCsvToString(chosen.value()), want)
        << "auto-chosen tier diverges from forced All-Pairs";
  }
}

// The observability dimension of the differential harness: tracing, the
// query log, and the slow-query flag are bystanders — enabling all of them
// must leave every grouping bit-identical to the untraced run
// (docs/OBSERVABILITY.md).
TEST(SgbFuzzTest, TracedExecutionMatchesUntraced) {
  using engine::Column;
  using engine::Database;
  using engine::DataType;
  using engine::Schema;
  using engine::Table;
  using engine::Value;

  Rng rng(FuzzSeed() ^ 0x0B5E);
  const size_t cases = std::max<size_t>(FuzzCases() / 8, 8);
  for (size_t c = 0; c < cases; ++c) {
    CaseConfig config = DrawConfig(rng);
    if (config.kind == PointKind::kNonFinite) config.kind = PointKind::kUniform;
    const size_t n = 1 + rng.NextBounded(120);
    const auto pts = GeneratePoints(rng, config.kind, n);
    SCOPED_TRACE("case " + std::to_string(c) + ": " + config.ToText() +
                 " n=" + std::to_string(n));

    Database db;
    auto table = std::make_shared<Table>(Schema({
        Column{"x", DataType::kDouble, ""},
        Column{"y", DataType::kDouble, ""},
    }));
    for (const Point& p : pts) {
      ASSERT_TRUE(
          table->Append({Value::Double(p.x), Value::Double(p.y)}).ok());
    }
    db.Register("pts", table);

    char sql[256];
    std::snprintf(sql, sizeof(sql),
                  "SELECT count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY "
                  "%s WITHIN %.17g PARALLEL %d",
                  config.metric == Metric::kL2 ? "L2" : "LINF",
                  config.epsilon, 1 + static_cast<int>(rng.NextBounded(4)));

    auto reference = db.Query(sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    const std::string want = engine::WriteCsvToString(reference.value());

    ASSERT_TRUE(db.Query("SET trace = 1").ok());
    ASSERT_TRUE(db.Query("SET slow_query_micros = 1").ok());
    auto traced = db.Query(sql);
    ASSERT_TRUE(traced.ok()) << traced.status().ToString();
    EXPECT_EQ(engine::WriteCsvToString(traced.value()), want)
        << "SET trace = 1 changed the result";
    EXPECT_GT(db.trace_log().event_count(), 0u);
  }
}

// The streaming dimension of the differential harness
// (docs/STREAMING.md): each case draws a random window schedule (tumbling
// or sliding, random size/advance) and feeds a random point stream as
// randomized multi-row INSERT batches through a CREATE CONTINUOUS QUERY.
// An independent simulation of the documented window semantics (covering
// windows, closed-window-only lateness, watermark-driven closes at
// statement end) predicts exactly which windows close with which rows,
// and every predicted close is re-derived from the serial All-Pairs core
// over the window's canonical (t, x, y) order — with the engine's own
// content-derived arbitration keys for SGB-All — then compared against
// the stream's published close records. Each close's per-arrival deltas
// are predicted by a brute-force O(n²) replay of the documented
// definitions ("Delta events") and compared kind, point and count alike.
// A mismatch is greedily minimized by row removal and printed as a
// paste-able repro.
TEST(SgbFuzzTest, StreamingClosesMatchAllPairsOracle) {
  using engine::ContinuousQueryManager;
  using engine::Database;
  using engine::DeltaBatch;

  struct StreamRow {
    size_t batch = 0;  ///< which INSERT statement carries the row
    double t = 0;
    double x = 0;
    double y = 0;
  };
  struct DeltaRec {
    std::string kind;
    int64_t point = -1;
    int64_t groups = 0;
    bool operator==(const DeltaRec&) const = default;
  };
  struct CloseRec {
    double start = 0;
    double end = 0;
    size_t rows = 0;
    size_t groups = 0;
    size_t eliminated = 0;
    std::vector<DeltaRec> deltas;
    bool operator==(const CloseRec&) const = default;
  };

  Rng rng(FuzzSeed() ^ 0x57AE);
  const size_t cases = std::max<size_t>(FuzzCases() / 8, 8);
  size_t total_closes = 0;
  for (size_t c = 0; c < cases; ++c) {
    CaseConfig config = DrawConfig(rng);
    if (config.kind == PointKind::kNonFinite) config.kind = PointKind::kUniform;
    const bool any_kind = rng.NextBounded(2) == 0;
    const int dop = rng.NextBounded(2) == 0 ? 1 : 4;
    const double size = static_cast<double>(2 + rng.NextBounded(9));
    const bool sliding = rng.NextBounded(2) == 0;
    const double advance =
        sliding ? static_cast<double>(
                      1 + rng.NextBounded(static_cast<uint64_t>(size)))
                : size;

    const size_t n = 20 + rng.NextBounded(60);
    const auto pts = GeneratePoints(rng, config.kind, n);
    std::vector<StreamRow> rows;
    rows.reserve(n + 1);
    size_t batch = 0;
    size_t left_in_batch = 1 + rng.NextBounded(8);
    for (size_t i = 0; i < n; ++i) {
      if (left_in_batch == 0) {
        ++batch;
        left_in_batch = 1 + rng.NextBounded(8);
      }
      --left_in_batch;
      rows.push_back({batch, rng.NextUniform(0, 30), pts[i].x, pts[i].y});
    }
    // Flush sentinel: far enough out that the watermark passes every real
    // window (its own window stays open, so it never appears in a close).
    rows.push_back({batch + 1, 1000.0, 500.0, 500.0});

    char clause[192];
    std::snprintf(clause, sizeof(clause),
                  "DISTANCE-TO-%s %s WITHIN %.17g%s%s PARALLEL %d "
                  "WINDOW %s",
                  any_kind ? "ANY" : "ALL",
                  config.metric == Metric::kL2 ? "L2" : "LINF",
                  config.epsilon, any_kind ? "" : " ON-OVERLAP ",
                  any_kind ? "" : ToString(config.clause), dop,
                  sliding ? "SLIDING" : "TUMBLING");
    char window[96];
    if (sliding) {
      std::snprintf(window, sizeof(window), " %.17g ADVANCE %.17g ON t",
                    size, advance);
    } else {
      std::snprintf(window, sizeof(window), " %.17g ON t", size);
    }
    const std::string cq_sql =
        "CREATE CONTINUOUS QUERY fz AS SELECT count(*) FROM stream "
        "GROUP BY x, y " + std::string(clause) + window;
    SCOPED_TRACE("case " + std::to_string(c) + ": " + cq_sql);

    // Drives the rows through a fresh engine as per-batch INSERT
    // statements and returns the published close records.
    auto run = [&cq_sql](const std::vector<StreamRow>& input)
        -> Result<std::vector<CloseRec>> {
      Database db;
      SGB_RETURN_IF_ERROR(
          db.Query("CREATE TABLE stream (t DOUBLE, x DOUBLE, y DOUBLE)")
              .status());
      SGB_RETURN_IF_ERROR(db.Query(cq_sql).status());
      std::vector<CloseRec> closes;
      auto sub = db.continuous().Subscribe(
          "fz", [&closes](const DeltaBatch& b) {
            CloseRec rec{b.window_start, b.window_end, b.rows,
                         b.num_groups, b.eliminated, {}};
            for (const engine::GroupDelta& d : b.deltas) {
              rec.deltas.push_back(DeltaRec{d.kind, d.point, d.groups});
            }
            closes.push_back(std::move(rec));
            return true;
          });
      SGB_RETURN_IF_ERROR(sub.status());
      for (size_t i = 0; i < input.size();) {
        const size_t stmt = input[i].batch;
        const size_t first = i;
        std::string sql = "INSERT INTO stream VALUES ";
        char literal[128];
        while (i < input.size() && input[i].batch == stmt) {
          std::snprintf(literal, sizeof(literal),
                        "%s(%.17g, %.17g, %.17g)", i == first ? "" : ", ",
                        input[i].t, input[i].x, input[i].y);
          sql += literal;
          ++i;
        }
        SGB_RETURN_IF_ERROR(db.Query(sql).status());
      }
      return closes;
    };

    // Independent prediction: simulate the window bookkeeping row by row,
    // then re-derive every close from the serial All-Pairs core.
    // A row as it reached one window: its arrival sequence number is its
    // position in the whole stream (every row here is numeric).
    struct Arrival {
      StreamRow row;
      int64_t seq = 0;
    };
    // Per-arrival deltas (docs/STREAMING.md "Delta events"), brute force:
    // replay the window's rows in arrival order; each arrival counts the
    // distinct components, over the window's earlier arrivals, that its
    // ε-neighbours belong to, then joins the components it links to.
    // SGB-Any links ε-neighbours; SGB-All links 3ε-L∞ neighbours.
    auto replay_deltas = [&](const std::vector<Arrival>& in_window) {
      const size_t m = in_window.size();
      std::vector<size_t> parent(m);
      std::iota(parent.begin(), parent.end(), size_t{0});
      auto find = [&parent](size_t a) {
        while (parent[a] != a) a = parent[a] = parent[parent[a]];
        return a;
      };
      std::vector<DeltaRec> deltas;
      for (size_t i = 0; i < m; ++i) {
        const Point p{in_window[i].row.x, in_window[i].row.y};
        std::vector<size_t> touched;
        std::vector<size_t> linked;
        for (size_t j = 0; j < i; ++j) {
          const Point q{in_window[j].row.x, in_window[j].row.y};
          if (geom::Similar(p, q, config.metric, config.epsilon)) {
            touched.push_back(find(j));
          }
          const bool link =
              any_kind ? geom::Similar(p, q, config.metric, config.epsilon)
                       : geom::Similar(p, q, Metric::kLInf,
                                       3.0 * config.epsilon);
          if (link) linked.push_back(j);
        }
        std::sort(touched.begin(), touched.end());
        const size_t count = static_cast<size_t>(
            std::unique(touched.begin(), touched.end()) - touched.begin());
        for (const size_t j : linked) parent[find(j)] = find(i);
        deltas.push_back(DeltaRec{count == 0   ? "group_formed"
                                  : count == 1 ? "member_added"
                                               : "groups_merged",
                                  in_window[i].seq,
                                  static_cast<int64_t>(count)});
      }
      return deltas;
    };

    auto expect = [&](const std::vector<StreamRow>& input)
        -> std::vector<CloseRec> {
      std::map<int64_t, std::vector<Arrival>> open;
      int64_t next_unclosed = std::numeric_limits<int64_t>::min();
      bool has_watermark = false;
      double watermark = 0;
      std::vector<CloseRec> closes;
      auto oracle = [&](const std::vector<Arrival>& in_window,
                        double start, double end) {
        std::vector<StreamRow> sorted;
        for (const Arrival& a : in_window) sorted.push_back(a.row);
        std::stable_sort(sorted.begin(), sorted.end(),
                         [](const StreamRow& a, const StreamRow& b) {
                           if (a.t != b.t) return a.t < b.t;
                           if (a.x != b.x) return a.x < b.x;
                           return a.y < b.y;
                         });
        std::vector<Point> wpts;
        std::vector<uint64_t> keys;
        for (const StreamRow& r : sorted) {
          wpts.push_back({r.x, r.y});
          keys.push_back(engine::ArrivalKey(r.t, r.x, r.y));
        }
        Grouping grouping;
        if (any_kind) {
          SgbAnyOptions options;
          options.epsilon = config.epsilon;
          options.metric = config.metric;
          grouping = SgbAny(wpts, options).value();
        } else {
          SgbAllOptions options;
          options.epsilon = config.epsilon;
          options.metric = config.metric;
          options.on_overlap = config.clause;
          options.arbitration_keys = keys;
          grouping = SgbAll(wpts, options).value();
        }
        CloseRec rec{start, end, sorted.size(), grouping.num_groups,
                     grouping.NumEliminated(), replay_deltas(in_window)};
        rec.deltas.push_back(DeltaRec{"window_closed", -1,
                                      static_cast<int64_t>(rec.groups)});
        closes.push_back(std::move(rec));
      };
      for (size_t i = 0; i < input.size();) {
        const size_t stmt = input[i].batch;
        double stmt_max = -std::numeric_limits<double>::infinity();
        for (; i < input.size() && input[i].batch == stmt; ++i) {
          const StreamRow& r = input[i];
          const auto floor_div = [](double v, double d) {
            return static_cast<int64_t>(std::floor(v / d));
          };
          const int64_t i_max = floor_div(r.t, advance);
          const int64_t i_min = floor_div(r.t - size, advance) + 1;
          for (int64_t w = i_min; w <= i_max; ++w) {
            const double start = static_cast<double>(w) * advance;
            if (r.t < start || r.t >= start + size) continue;
            // Late rows — w < next_unclosed — are dropped, matching the
            // closed-window-only lateness rule.
            if (w >= next_unclosed) {
              open[w].push_back(Arrival{r, static_cast<int64_t>(i)});
            }
          }
          stmt_max = std::max(stmt_max, r.t);
        }
        if (!has_watermark || stmt_max > watermark) {
          has_watermark = true;
          watermark = std::max(watermark, stmt_max);
        }
        while (!open.empty()) {
          const auto it = open.begin();
          const double start = static_cast<double>(it->first) * advance;
          if (!(has_watermark && start + size <= watermark)) break;
          oracle(it->second, start, start + size);
          next_unclosed = it->first + 1;
          open.erase(it);
        }
      }
      return closes;
    };

    auto got = run(rows);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    total_closes += got.value().size();
    if (got.value() == expect(rows)) continue;

    // Divergence: greedily shrink the stream while it still diverges,
    // then print the minimal stream as a repro.
    auto mismatch = [&](const std::vector<StreamRow>& candidate) {
      auto fresh = run(candidate);
      if (!fresh.ok()) return true;
      return fresh.value() != expect(candidate);
    };
    std::vector<StreamRow> minimal = rows;
    bool shrunk = true;
    while (shrunk && minimal.size() > 1) {
      shrunk = false;
      for (size_t i = 0; i < minimal.size();) {
        std::vector<StreamRow> candidate = minimal;
        candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
        if (mismatch(candidate)) {
          minimal = std::move(candidate);
          shrunk = true;
        } else {
          ++i;
        }
      }
    }
    std::string repro = "repro: " + cq_sql + "\nstream = {  // batch, t, x, y\n";
    char buf[160];
    for (const StreamRow& r : minimal) {
      std::snprintf(buf, sizeof(buf), "  {%zu, %.17g, %.17g, %.17g},\n",
                    r.batch, r.t, r.x, r.y);
      repro += buf;
    }
    repro += "};";
    ADD_FAILURE() << "streaming closes diverge from the All-Pairs oracle\n"
                  << repro;
    break;  // one minimized repro is enough
  }
  // The sweep is only meaningful if windows actually closed.
  EXPECT_GT(total_closes, 0u);
}

// The storage dimension of the differential harness (docs/STORAGE.md):
// each case draws a random schedule of INSERT / SELECT / CHECKPOINT steps
// against a disk-backed database with a 4-page buffer pool, plus one CRASH
// step that arms a WAL or page fault site at a random upcoming hit. After
// the kill the directory is reopened and the recovered table — contents
// and an SGB grouping — must match an in-memory oracle holding exactly the
// durable statements. Only the two deterministic sites are drawn
// (`storage.wal.append` commits nothing, `storage.page.write` fires after
// the WAL fsync so an in-flight INSERT always survives);
// recovery_test.cc covers the indeterminate `storage.wal.fsync` with its
// dual-oracle accept. A divergence is greedily minimized by step removal
// and printed as a paste-able schedule.
TEST(SgbFuzzTest, CrashSchedulesRecoverToInMemoryOracle) {
  using engine::Database;

  struct Step {
    enum Kind { kInsert, kSelect, kCheckpoint, kCrash } kind = kInsert;
    std::string sql;        // kInsert / kSelect
    std::string site;       // kCrash
    uint64_t nth = 1;       // kCrash
  };

  storage::StorageOptions options;
  options.page_size = 256;
  options.buffer_pool_bytes = 4 * 256;

  const auto fresh_dir = [](const std::string& name) {
    const std::string dir = ::testing::TempDir() + "/" + name;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
  };

  // Applies the schedule (one CRASH arms the site; poisoned statements
  // just fail), reopens, and returns the recovered contents + grouping.
  // `durable` collects the INSERTs the oracle must contain; `fired`
  // reports whether the armed fault actually injected.
  const auto run = [&](const std::vector<Step>& steps, const std::string& dir,
                       std::vector<std::string>* durable, bool* fired)
      -> Result<std::pair<std::string, std::string>> {
    durable->clear();
    *fired = false;
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    {
      auto db = Database::Open(dir, options);
      if (!db.ok()) return db.status();
      SGB_RETURN_IF_ERROR(
          db.value().Query("CREATE TABLE pts (x DOUBLE, y DOUBLE)").status());
      for (const Step& step : steps) {
        switch (step.kind) {
          case Step::kInsert: {
            auto result = db.value().Query(step.sql);
            // A crashed INSERT failed *after* its WAL commit when the
            // page-write site fired (the WAL frame is fsynced first), so
            // it is durable; any other failure here is a poisoned refusal.
            if (result.ok() ||
                result.status().ToString().find("storage.page.write") !=
                    std::string::npos) {
              durable->push_back(step.sql);
            }
            break;
          }
          case Step::kSelect:
          case Step::kCheckpoint: {
            const char* sql = step.kind == Step::kSelect
                                  ? "SELECT count(*) FROM pts"
                                  : "CHECKPOINT";
            (void)db.value().Query(sql);  // failures poison or are refused
            break;
          }
          case Step::kCrash:
            FaultRegistry::Global().ArmNthHit(step.site, step.nth);
            break;
        }
      }
      for (const Step& step : steps) {
        if (step.kind == Step::kCrash &&
            FaultRegistry::Global().Injected(step.site) > 0) {
          *fired = true;
        }
      }
      FaultRegistry::Global().Reset();
    }
    auto db = Database::Open(dir, options);
    if (!db.ok()) return db.status();
    auto rows = db.value().Query("SELECT * FROM pts");
    if (!rows.ok()) return rows.status();
    auto sgb = db.value().Query(
        "SELECT group_id, count(*) FROM pts GROUP BY x, y DISTANCE-TO-ANY "
        "L2 WITHIN 2.0");
    if (!sgb.ok()) return sgb.status();
    return std::make_pair(engine::WriteCsvToString(rows.value()),
                          engine::WriteCsvToString(sgb.value()));
  };

  const auto oracle = [](const std::vector<std::string>& durable)
      -> std::pair<std::string, std::string> {
    Database db;
    EXPECT_TRUE(
        db.Query("CREATE TABLE pts (x DOUBLE, y DOUBLE)").ok());
    for (const std::string& sql : durable) {
      EXPECT_TRUE(db.Query(sql).ok()) << sql;
    }
    return {engine::WriteCsvToString(db.Query("SELECT * FROM pts").value()),
            engine::WriteCsvToString(
                db.Query("SELECT group_id, count(*) FROM pts GROUP BY x, y "
                         "DISTANCE-TO-ANY L2 WITHIN 2.0")
                    .value())};
  };

  Rng rng(FuzzSeed() ^ 0xD15C);
  const size_t cases = std::max<size_t>(FuzzCases() / 16, 6);
  size_t crashes_fired = 0;
  for (size_t c = 0; c < cases; ++c) {
    std::vector<Step> steps;
    const size_t n = 8 + rng.NextBounded(18);
    // Early in the schedule, so statements remain for the kill to land on.
    const size_t crash_at = rng.NextBounded(1 + n / 3);
    for (size_t i = 0; i < n; ++i) {
      if (i == crash_at) {
        Step crash;
        crash.kind = Step::kCrash;
        crash.site = rng.NextBounded(2) == 0 ? "storage.wal.append"
                                             : "storage.page.write";
        crash.nth = 1 + rng.NextBounded(10);
        steps.push_back(crash);
        continue;
      }
      const uint64_t dice = rng.NextBounded(10);
      Step step;
      if (dice < 6) {
        step.kind = Step::kInsert;
        std::string sql = "INSERT INTO pts VALUES ";
        const size_t rows = 1 + rng.NextBounded(5);
        for (size_t r = 0; r < rows; ++r) {
          char buf[96];
          std::snprintf(buf, sizeof(buf), "%s(%.17g, %.17g)",
                        r == 0 ? "" : ", ",
                        static_cast<double>(rng.NextBounded(6)) +
                            rng.NextUniform(0.0, 1.0),
                        static_cast<double>(rng.NextBounded(6)) +
                            rng.NextUniform(0.0, 1.0));
          sql += buf;
        }
        step.sql = sql;
      } else if (dice < 8) {
        step.kind = Step::kSelect;
      } else {
        step.kind = Step::kCheckpoint;
      }
      steps.push_back(step);
    }
    SCOPED_TRACE("case " + std::to_string(c));

    const std::string dir =
        fresh_dir("sgb_fuzz_crash_" + std::to_string(c));
    std::vector<std::string> durable;
    bool fired = false;
    auto got = run(steps, dir, &durable, &fired);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    if (fired) ++crashes_fired;
    if (got.value() == oracle(durable)) continue;

    // Divergence: shrink the schedule while the recovered state still
    // disagrees with the oracle, then print it.
    auto mismatch = [&](const std::vector<Step>& candidate) {
      std::vector<std::string> d;
      bool f = false;
      auto fresh = run(candidate, dir, &d, &f);
      if (!fresh.ok()) return true;
      return fresh.value() != oracle(d);
    };
    std::vector<Step> minimal = steps;
    bool shrunk = true;
    while (shrunk && minimal.size() > 1) {
      shrunk = false;
      for (size_t i = 0; i < minimal.size();) {
        std::vector<Step> candidate = minimal;
        candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
        if (mismatch(candidate)) {
          minimal = std::move(candidate);
          shrunk = true;
        } else {
          ++i;
        }
      }
    }
    std::string repro = "schedule = {\n";
    for (const Step& s : minimal) {
      switch (s.kind) {
        case Step::kInsert:
          repro += "  " + s.sql + ";\n";
          break;
        case Step::kSelect:
          repro += "  SELECT count(*) FROM pts;\n";
          break;
        case Step::kCheckpoint:
          repro += "  CHECKPOINT;\n";
          break;
        case Step::kCrash:
          repro += "  -- CRASH " + s.site + " nth=" +
                   std::to_string(s.nth) + "\n";
          break;
      }
    }
    repro += "};";
    ADD_FAILURE()
        << "recovered state diverges from the in-memory oracle\n" << repro;
    break;  // one minimized repro is enough
  }
  // The sweep is only meaningful if kills actually interrupted work.
  EXPECT_GT(crashes_fired, 0u);
}

}  // namespace
}  // namespace sgb::core
