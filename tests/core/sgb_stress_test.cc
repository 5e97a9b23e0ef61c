// Randomized stress tests: larger inputs, many seeds, adversarial
// configurations — everything here checks invariants rather than golden
// values, so failures localize real defects in the filter-refine machinery.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/random.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

std::vector<Point> HotspotCloud(size_t n, size_t hotspots, double stddev,
                                double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> centers;
  for (size_t i = 0; i < hotspots; ++i) {
    centers.push_back({rng.NextUniform(0, extent),
                       rng.NextUniform(0, extent)});
  }
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const Point& c = centers[rng.NextBounded(hotspots)];
    pts.push_back({rng.NextGaussian(c.x, stddev),
                   rng.NextGaussian(c.y, stddev)});
  }
  return pts;
}

class SeedSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SeedSweepTest, TiersAgreeOnDenseHotspots) {
  const uint64_t seed = GetParam();
  const auto pts = HotspotCloud(600, 5, 0.3, 4.0, seed);
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const OverlapClause clause :
         {OverlapClause::kJoinAny, OverlapClause::kEliminate,
          OverlapClause::kFormNewGroup}) {
      SgbAllOptions options;
      options.epsilon = 0.5;
      options.metric = metric;
      options.on_overlap = clause;
      options.seed = seed;

      options.algorithm = SgbAllAlgorithm::kAllPairs;
      auto naive = SgbAll(pts, options);
      options.algorithm = SgbAllAlgorithm::kIndexed;
      auto indexed = SgbAll(pts, options);
      ASSERT_TRUE(naive.ok());
      ASSERT_TRUE(indexed.ok());
      ASSERT_EQ(naive.value().group_of, indexed.value().group_of)
          << "metric=" << (metric == Metric::kL2 ? "L2" : "LInf")
          << " clause=" << ToString(clause) << " seed=" << seed;
    }
  }
}

TEST_P(SeedSweepTest, AnyTiersAgreeOnDenseHotspots) {
  const uint64_t seed = GetParam();
  const auto pts = HotspotCloud(800, 4, 0.4, 5.0, seed);
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    SgbAnyOptions options;
    options.epsilon = 0.35;
    options.metric = metric;
    options.algorithm = SgbAnyAlgorithm::kAllPairs;
    auto naive = SgbAny(pts, options);
    options.algorithm = SgbAnyAlgorithm::kIndexed;
    auto indexed = SgbAny(pts, options);
    options.algorithm = SgbAnyAlgorithm::kPointsIndex;
    auto points_index = SgbAny(pts, options);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(indexed.ok());
    ASSERT_TRUE(points_index.ok());
    EXPECT_EQ(naive.value().group_of, indexed.value().group_of);
    EXPECT_EQ(naive.value().group_of, points_index.value().group_of);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweepTest,
                         ::testing::Values(1, 7, 23, 99, 1234, 777777));

TEST(SgbAllStressTest, DuplicateHeavyInput) {
  // Many exact duplicates exercise degenerate rectangles and hulls.
  Rng rng(5);
  std::vector<Point> pts;
  for (int i = 0; i < 40; ++i) {
    const Point p{rng.NextUniform(0, 3), rng.NextUniform(0, 3)};
    const int copies = static_cast<int>(rng.NextBounded(12)) + 1;
    for (int c = 0; c < copies; ++c) pts.push_back(p);
  }
  for (const OverlapClause clause :
       {OverlapClause::kJoinAny, OverlapClause::kEliminate,
        OverlapClause::kFormNewGroup}) {
    SgbAllOptions options;
    options.epsilon = 0.4;
    options.on_overlap = clause;
    options.algorithm = SgbAllAlgorithm::kAllPairs;
    auto naive = SgbAll(pts, options);
    options.algorithm = SgbAllAlgorithm::kIndexed;
    auto indexed = SgbAll(pts, options);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(indexed.ok());
    EXPECT_EQ(naive.value().group_of, indexed.value().group_of);
    // Clique invariant still holds.
    const auto groups = indexed.value().GroupsAsLists();
    for (const auto& g : groups) {
      for (const size_t a : g) {
        for (const size_t b : g) {
          ASSERT_TRUE(geom::Similar(pts[a], pts[b], options.metric,
                                    options.epsilon));
        }
      }
    }
  }
}

TEST(SgbAllStressTest, CollinearPointsExerciseDegenerateHulls) {
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) pts.push_back({i * 0.07, 0.0});
  SgbAllOptions options;
  options.epsilon = 0.2;
  options.metric = Metric::kL2;
  options.algorithm = SgbAllAlgorithm::kAllPairs;
  auto naive = SgbAll(pts, options);
  options.algorithm = SgbAllAlgorithm::kIndexed;
  auto indexed = SgbAll(pts, options);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(naive.value().group_of, indexed.value().group_of);
}

TEST(SgbAllStressTest, NegativeAndLargeCoordinates) {
  Rng rng(11);
  std::vector<Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.NextUniform(-1e6, 1e6), rng.NextUniform(-1e6, 1e6)});
  }
  // Add a dense pocket far from the origin.
  for (int i = 0; i < 100; ++i) {
    pts.push_back({-5e5 + rng.NextGaussian(0, 10),
                   7e5 + rng.NextGaussian(0, 10)});
  }
  SgbAllOptions options;
  options.epsilon = 50.0;
  options.on_overlap = OverlapClause::kEliminate;
  options.algorithm = SgbAllAlgorithm::kAllPairs;
  auto naive = SgbAll(pts, options);
  options.algorithm = SgbAllAlgorithm::kIndexed;
  auto indexed = SgbAll(pts, options);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(naive.value().group_of, indexed.value().group_of);
}

TEST(SgbAnyStressTest, GridChainsMergeIntoStripes) {
  // A lattice where only horizontal neighbours touch: rows become groups.
  std::vector<Point> pts;
  const int cols = 30;
  const int rows = 10;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      pts.push_back({c * 1.0, r * 5.0});
    }
  }
  SgbAnyOptions options;
  options.epsilon = 1.0;
  options.metric = Metric::kL2;
  const auto result = SgbAny(pts, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_groups, static_cast<size_t>(rows));
  const auto sizes = result.value().GroupSizes();
  for (const size_t s : sizes) EXPECT_EQ(s, static_cast<size_t>(cols));
}

TEST(SgbAllStressTest, FormNewGroupPlacesEveryPointAcrossManyRounds) {
  // Rings of points around shared centers generate repeated overlap pulls.
  Rng rng(3);
  std::vector<Point> pts;
  for (int ring = 0; ring < 6; ++ring) {
    const Point c{ring * 1.5, 0.0};
    for (int k = 0; k < 60; ++k) {
      const double angle = rng.NextUniform(0, 2 * M_PI);
      const double radius = rng.NextUniform(0, 1.1);
      pts.push_back({c.x + radius * std::cos(angle),
                     c.y + radius * std::sin(angle)});
    }
  }
  SgbAllOptions options;
  options.epsilon = 0.8;
  options.metric = Metric::kL2;
  options.on_overlap = OverlapClause::kFormNewGroup;
  SgbAllStats stats;
  const auto result = SgbAll(pts, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().NumEliminated(), 0u);
  size_t placed = 0;
  for (const size_t g : result.value().group_of) {
    placed += g != Grouping::kEliminated ? 1 : 0;
  }
  EXPECT_EQ(placed, pts.size());
  EXPECT_GT(stats.regroup_rounds, 0u);
}

}  // namespace
}  // namespace sgb::core
