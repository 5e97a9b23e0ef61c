#include "core/sgb_any.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "common/random.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

TEST(SgbAnyTest, EmptyAndSingle) {
  const auto empty = SgbAny({}, SgbAnyOptions{});
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().num_groups, 0u);

  const std::vector<Point> one = {{5, 5}};
  const auto single = SgbAny(one, SgbAnyOptions{});
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single.value().num_groups, 1u);
}

TEST(SgbAnyTest, RejectsInvalidEpsilon) {
  SgbAnyOptions options;
  options.epsilon = -0.5;
  EXPECT_FALSE(SgbAny({}, options).ok());
  options.epsilon = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(SgbAny({}, options).ok());
}

TEST(SgbAnyTest, OrderInsensitiveGroupSizes) {
  // SGB-Any is connectivity-based, so permuting the input must not change
  // the partition (unlike SGB-All).
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 120; ++i) {
    pts.push_back({rng.NextUniform(0, 20), rng.NextUniform(0, 20)});
  }
  SgbAnyOptions options;
  options.epsilon = 1.2;
  const auto forward = SgbAny(pts, options);
  std::vector<Point> reversed(pts.rbegin(), pts.rend());
  const auto backward = SgbAny(reversed, options);
  ASSERT_TRUE(forward.ok());
  ASSERT_TRUE(backward.ok());
  auto sizes_fwd = forward.value().GroupSizes();
  auto sizes_bwd = backward.value().GroupSizes();
  std::sort(sizes_fwd.begin(), sizes_fwd.end());
  std::sort(sizes_bwd.begin(), sizes_bwd.end());
  EXPECT_EQ(sizes_fwd, sizes_bwd);
}

TEST(SgbAnyTest, L2WindowCornersAreVerified) {
  // Two points in the L∞ window corner but beyond the L2 radius must stay
  // separate under L2 and merge under L∞ (VerifyPoints in Procedure 8).
  const std::vector<Point> pts = {{0, 0}, {0.9, 0.9}};
  SgbAnyOptions options;
  options.epsilon = 1.0;
  options.metric = Metric::kL2;
  const auto l2 = SgbAny(pts, options);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(l2.value().num_groups, 2u);

  options.metric = Metric::kLInf;
  const auto linf = SgbAny(pts, options);
  ASSERT_TRUE(linf.ok());
  EXPECT_EQ(linf.value().num_groups, 1u);
}

TEST(SgbAnyTest, StatsCountMergesAndQueries) {
  const std::vector<Point> pts = {{0, 0}, {10, 10}, {5, 5}, {2.5, 2.5},
                                  {7.5, 7.5}};
  SgbAnyOptions options;
  options.epsilon = 3.6;  // L2: adjacent diagonal points are ~3.54 apart
  options.algorithm = SgbAnyAlgorithm::kPointsIndex;
  SgbAnyStats stats;
  const auto result = SgbAny(pts, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_groups, 1u);
  EXPECT_EQ(stats.index_window_queries, pts.size());
  EXPECT_GE(stats.group_merges, 4u);  // n-1 merges to connect 5 points
}

TEST(SgbAnyTest, GridStatsCountMergesWithoutWindowQueries) {
  const std::vector<Point> pts = {{0, 0}, {10, 10}, {5, 5}, {2.5, 2.5},
                                  {7.5, 7.5}};
  SgbAnyOptions options;
  options.epsilon = 3.6;
  options.algorithm = SgbAnyAlgorithm::kIndexed;
  SgbAnyStats stats;
  const auto result = SgbAny(pts, options, &stats);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_groups, 1u);
  EXPECT_EQ(stats.index_window_queries, 0u);
  EXPECT_EQ(stats.group_merges, 4u);  // n-1 merges to connect 5 points
  // Cells are 3.6/√2 ≈ 2.55 wide: (0, 0) and (2.5, 2.5) share a clique
  // cell and merge without a union call; the other three links are
  // cell-pair unions found by the kernels.
  EXPECT_EQ(stats.union_operations, 3u);
  EXPECT_GT(stats.distance_computations, 0u);
}

TEST(SgbAnyTest, GroupIdsAreDenseAndInputOrdered) {
  const std::vector<Point> pts = {{0, 0}, {50, 50}, {0.5, 0}, {50.5, 50}};
  SgbAnyOptions options;
  options.epsilon = 1.0;
  const auto result = SgbAny(pts, options);
  ASSERT_TRUE(result.ok());
  // First appearance order: point 0 -> group 0, point 1 -> group 1.
  EXPECT_EQ(result.value().group_of,
            (std::vector<size_t>{0, 1, 0, 1}));
}

}  // namespace
}  // namespace sgb::core
