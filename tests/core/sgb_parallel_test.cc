// Differential tests for the partition-parallel SGB paths: for every
// metric, ON-OVERLAP policy and degree of parallelism, the parallel result
// must equal the serial (dop=1) reference exactly — not just set-equal —
// which is the semantics guarantee docs/PARALLELISM.md makes.

#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "geom/point.h"
#include "index/grid_partition.h"
#include "index/union_find.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

/// Clustered points with inter-cluster stragglers: many independent
/// ε-components of varying size, plus enough density that groups overlap
/// and every ON-OVERLAP policy is exercised.
std::vector<Point> ClusteredPoints(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> points;
  points.reserve(n);
  const size_t clusters = 1 + n / 24;
  std::vector<Point> centers;
  centers.reserve(clusters);
  for (size_t c = 0; c < clusters; ++c) {
    centers.push_back(
        Point{rng.NextUniform(0.0, 50.0), rng.NextUniform(0.0, 50.0)});
  }
  for (size_t i = 0; i < n; ++i) {
    if (rng.NextDouble() < 0.1) {  // straggler
      points.push_back(
          Point{rng.NextUniform(0.0, 50.0), rng.NextUniform(0.0, 50.0)});
      continue;
    }
    const Point& c = centers[rng.NextBounded(centers.size())];
    points.push_back(Point{c.x + rng.NextGaussian(0.0, 0.7),
                           c.y + rng.NextGaussian(0.0, 0.7)});
  }
  return points;
}

struct Config {
  Metric metric;
  OverlapClause clause;
  int dop;
};

std::vector<Config> AllConfigs() {
  std::vector<Config> configs;
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const OverlapClause clause :
         {OverlapClause::kJoinAny, OverlapClause::kEliminate,
          OverlapClause::kFormNewGroup}) {
      for (const int dop : {2, 8}) {
        configs.push_back(Config{metric, clause, dop});
      }
    }
  }
  return configs;
}

TEST(SgbAllParallelTest, MatchesSerialAcrossPoliciesMetricsAndDop) {
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const std::vector<Point> points = ClusteredPoints(400, seed);
    for (const Config& cfg : AllConfigs()) {
      SgbAllOptions options;
      options.epsilon = 0.8;
      options.metric = cfg.metric;
      options.on_overlap = cfg.clause;
      options.degree_of_parallelism = 1;
      const auto serial = SgbAll(points, options);
      ASSERT_TRUE(serial.ok());

      options.degree_of_parallelism = cfg.dop;
      SgbAllStats stats;
      const auto parallel = SgbAll(points, options, &stats);
      ASSERT_TRUE(parallel.ok());

      EXPECT_EQ(serial.value().group_of, parallel.value().group_of)
          << "seed=" << seed << " metric=" << static_cast<int>(cfg.metric)
          << " clause=" << ToString(cfg.clause) << " dop=" << cfg.dop;
      EXPECT_EQ(serial.value().num_groups, parallel.value().num_groups);
      EXPECT_GT(stats.parallel_partitions, 0u);
      EXPECT_EQ(stats.workers.size(), static_cast<size_t>(cfg.dop));
    }
  }
}

TEST(SgbAllParallelTest, AllAlgorithmTiersAgreeUnderParallelism) {
  const std::vector<Point> points = ClusteredPoints(300, 7);
  SgbAllOptions options;
  options.epsilon = 0.8;
  options.on_overlap = OverlapClause::kFormNewGroup;
  options.degree_of_parallelism = 4;
  options.algorithm = SgbAllAlgorithm::kAllPairs;
  const auto a = SgbAll(points, options);
  options.algorithm = SgbAllAlgorithm::kBoundsChecking;
  const auto b = SgbAll(points, options);
  options.algorithm = SgbAllAlgorithm::kIndexed;
  const auto c = SgbAll(points, options);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  EXPECT_EQ(a.value().group_of, b.value().group_of);
  EXPECT_EQ(b.value().group_of, c.value().group_of);
}

TEST(SgbAllParallelTest, ParallelRunsAreDeterministic) {
  const std::vector<Point> points = ClusteredPoints(500, 99);
  SgbAllOptions options;
  options.epsilon = 0.8;
  options.on_overlap = OverlapClause::kJoinAny;
  options.degree_of_parallelism = 8;
  const auto first = SgbAll(points, options);
  const auto second = SgbAll(points, options);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value().group_of, second.value().group_of);
}

TEST(SgbAllParallelTest, AutoDopMatchesSerial) {
  const std::vector<Point> points = ClusteredPoints(250, 5);
  SgbAllOptions options;
  options.epsilon = 0.8;
  options.degree_of_parallelism = 1;
  const auto serial = SgbAll(points, options);
  options.degree_of_parallelism = 0;  // auto
  const auto parallel = SgbAll(points, options);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial.value().group_of, parallel.value().group_of);
}

TEST(SgbAllParallelTest, SmallInputsFallBackToSerial) {
  const std::vector<Point> points = ClusteredPoints(20, 3);
  SgbAllOptions options;
  options.epsilon = 0.8;
  options.degree_of_parallelism = 8;
  SgbAllStats stats;
  const auto r = SgbAll(points, options, &stats);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(stats.parallel_partitions, 0u);
  EXPECT_TRUE(stats.workers.empty());
}

TEST(SgbAllParallelTest, NegativeDopIsRejected) {
  SgbAllOptions options;
  options.degree_of_parallelism = -1;
  const std::vector<Point> points = {{0, 0}};
  EXPECT_FALSE(SgbAll(points, options).ok());
}

TEST(SgbAnyParallelTest, MatchesSerialAcrossMetricsAndDop) {
  for (const uint64_t seed : {11u, 22u, 33u}) {
    const std::vector<Point> points = ClusteredPoints(400, seed);
    for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
      for (const int dop : {2, 8}) {
        SgbAnyOptions options;
        options.epsilon = 0.8;
        options.metric = metric;
        options.degree_of_parallelism = 1;
        const auto serial = SgbAny(points, options);
        ASSERT_TRUE(serial.ok());

        options.degree_of_parallelism = dop;
        SgbAnyStats stats;
        const auto parallel = SgbAny(points, options, &stats);
        ASSERT_TRUE(parallel.ok());

        EXPECT_EQ(serial.value().group_of, parallel.value().group_of)
            << "seed=" << seed << " metric=" << static_cast<int>(metric)
            << " dop=" << dop;
        EXPECT_EQ(serial.value().num_groups, parallel.value().num_groups);
        EXPECT_GT(stats.parallel_partitions, 0u);
      }
    }
  }
}

TEST(SgbAnyParallelTest, AutoDopMatchesSerial) {
  const std::vector<Point> points = ClusteredPoints(250, 5);
  SgbAnyOptions options;
  options.epsilon = 0.8;
  options.degree_of_parallelism = 1;
  const auto serial = SgbAny(points, options);
  options.degree_of_parallelism = 0;
  const auto parallel = SgbAny(points, options);
  ASSERT_TRUE(serial.ok() && parallel.ok());
  EXPECT_EQ(serial.value().group_of, parallel.value().group_of);
}

TEST(SgbAnyParallelTest, NegativeDopIsRejected) {
  SgbAnyOptions options;
  options.degree_of_parallelism = -1;
  const std::vector<Point> points = {{0, 0}};
  EXPECT_FALSE(SgbAny(points, options).ok());
}

TEST(GridPartitionTest, UnionMatchesBruteForceComponents) {
  for (const uint64_t seed : {1u, 2u}) {
    const std::vector<Point> points = ClusteredPoints(300, seed);
    const double radius = 0.9;

    index::UnionFind brute(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (geom::Similar(points[i], points[j], Metric::kL2, radius)) {
          brute.Union(i, j);
        }
      }
    }

    std::vector<index::GridPartitionStats> stats;
    const index::GridComponents components = index::SimilarityComponents(
        points, Metric::kL2, radius, 4, ThreadPool::Default(), &stats);

    EXPECT_EQ(components.num_components, brute.NumSets());
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        EXPECT_EQ(components.component_of[i] == components.component_of[j],
                  brute.Connected(i, j))
            << "pair (" << i << ", " << j << ")";
      }
    }
    // Every point is scanned by exactly one worker.
    size_t scanned = 0;
    for (const auto& w : stats) scanned += w.points;
    EXPECT_EQ(scanned, points.size());
  }
}

}  // namespace
}  // namespace sgb::core
