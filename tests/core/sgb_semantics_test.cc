// Reproduces the worked semantics examples of the paper: the ON-OVERLAP
// outcomes of Example 1 / Figure 2 (query answers {3,2}, {2,2}, {2,2,1})
// and the SGB-Any merge of Example 2 (answer {5}).

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/sgb_all.h"
#include "core/sgb_any.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

/// Figure 2's five points (arrival order a1..a5), arranged so that with
/// ε = 3 and L∞: {a1,a2} and {a3,a4} form groups, and a5 is within ε of
/// every member of both.
std::vector<Point> Figure2Points() {
  return {{3, 6}, {4, 7}, {8, 6}, {9, 7}, {6, 6.5}};
}

std::vector<size_t> SortedSizes(const Grouping& grouping) {
  std::vector<size_t> sizes = grouping.GroupSizes();
  std::sort(sizes.begin(), sizes.end(), std::greater<size_t>());
  return sizes;
}

class Figure2Test : public ::testing::TestWithParam<SgbAllAlgorithm> {};

TEST_P(Figure2Test, JoinAnyAnswersThreeTwo) {
  SgbAllOptions options;
  options.epsilon = 3;
  options.metric = Metric::kLInf;
  options.on_overlap = OverlapClause::kJoinAny;
  options.algorithm = GetParam();
  const auto result = SgbAll(Figure2Points(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SortedSizes(result.value()), (std::vector<size_t>{3, 2}));
  EXPECT_EQ(result.value().NumEliminated(), 0u);
}

TEST_P(Figure2Test, EliminateAnswersTwoTwo) {
  SgbAllOptions options;
  options.epsilon = 3;
  options.metric = Metric::kLInf;
  options.on_overlap = OverlapClause::kEliminate;
  options.algorithm = GetParam();
  const auto result = SgbAll(Figure2Points(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SortedSizes(result.value()), (std::vector<size_t>{2, 2}));
  EXPECT_EQ(result.value().NumEliminated(), 1u);
  // The dropped point is a5, the overlapping arrival.
  EXPECT_EQ(result.value().group_of[4], Grouping::kEliminated);
}

TEST_P(Figure2Test, FormNewGroupAnswersTwoTwoOne) {
  SgbAllOptions options;
  options.epsilon = 3;
  options.metric = Metric::kLInf;
  options.on_overlap = OverlapClause::kFormNewGroup;
  options.algorithm = GetParam();
  const auto result = SgbAll(Figure2Points(), options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SortedSizes(result.value()), (std::vector<size_t>{2, 2, 1}));
  // a5 sits alone in the newly formed group.
  const auto groups = result.value().GroupsAsLists();
  bool found_singleton_a5 = false;
  for (const auto& g : groups) {
    if (g.size() == 1 && g[0] == 4) found_singleton_a5 = true;
  }
  EXPECT_TRUE(found_singleton_a5);
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, Figure2Test,
                         ::testing::Values(SgbAllAlgorithm::kAllPairs,
                                           SgbAllAlgorithm::kBoundsChecking,
                                           SgbAllAlgorithm::kIndexed),
                         [](const auto& info) {
                           switch (info.param) {
                             case SgbAllAlgorithm::kAllPairs:
                               return "AllPairs";
                             case SgbAllAlgorithm::kBoundsChecking:
                               return "BoundsChecking";
                             default:
                               return "Indexed";
                           }
                         });

TEST(Figure2AnyTest, MergeAnswersFive) {
  // Example 2: a5 is within ε of members of both groups, so the groups
  // merge and the query answer is {5}.
  SgbAnyOptions options;
  options.epsilon = 3;
  options.metric = Metric::kLInf;
  for (const auto algorithm :
       {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed,
        SgbAnyAlgorithm::kPointsIndex}) {
    options.algorithm = algorithm;
    const auto result = SgbAny(Figure2Points(), options);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().num_groups, 1u);
    EXPECT_EQ(result.value().GroupSizes(), (std::vector<size_t>{5}));
  }
}

TEST(Figure1AnyTest, ChainOfPointsFormsOneGroup) {
  // Figure 1b: points connected through intermediaries form one group
  // even though the endpoints are far apart.
  const std::vector<Point> chain = {{0, 0}, {2.5, 0}, {5, 0}, {7.5, 0},
                                    {10, 0}, {12.5, 0}};
  SgbAnyOptions options;
  options.epsilon = 3;
  options.metric = Metric::kL2;
  const auto result = SgbAny(chain, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().num_groups, 1u);

  // Breaking the chain splits the group.
  std::vector<Point> broken = chain;
  broken[3] = {100, 0};
  const auto split = SgbAny(broken, options);
  ASSERT_TRUE(split.ok());
  EXPECT_EQ(split.value().num_groups, 3u);  // {0,1,2}, {4,5}, {100}
}

TEST(Figure1AllTest, CliqueInvariantHolds) {
  // Figure 1a: every pair inside an SGB-All group satisfies ξδ,ε.
  const std::vector<Point> pts = {{1, 5}, {2, 4}, {3, 5.5}, {2.5, 3},
                                  {1.5, 2.5}, {5, 2}, {5.5, 3.5}};
  SgbAllOptions options;
  options.epsilon = 3;
  options.metric = Metric::kLInf;
  const auto result = SgbAll(pts, options);
  ASSERT_TRUE(result.ok());
  for (const auto& group : result.value().GroupsAsLists()) {
    for (const size_t i : group) {
      for (const size_t j : group) {
        EXPECT_TRUE(geom::Similar(pts[i], pts[j], options.metric,
                                  options.epsilon));
      }
    }
  }
}

TEST(OverlapProcessingTest, EliminatePullsOverlappedMembersOut) {
  // ProcessOverlap (Section 6.2.2): a new point within ε of *some* members
  // of a group deletes those members under ELIMINATE.
  const std::vector<Point> pts = {{0, 0}, {2, 0}, {4, 0}};
  SgbAllOptions options;
  options.epsilon = 2;
  options.metric = Metric::kLInf;
  options.on_overlap = OverlapClause::kEliminate;
  const auto result = SgbAll(pts, options);
  ASSERT_TRUE(result.ok());
  // {p0,p1} group; p2 overlaps via p1 only: p1 is eliminated, p2 starts a
  // new group.
  EXPECT_EQ(result.value().group_of[1], Grouping::kEliminated);
  EXPECT_EQ(result.value().num_groups, 2u);
  EXPECT_EQ(SortedSizes(result.value()), (std::vector<size_t>{1, 1}));
}

TEST(OverlapProcessingTest, FormNewGroupRegroupsPulledMembers) {
  const std::vector<Point> pts = {{0, 0}, {2, 0}, {4, 0}};
  SgbAllOptions options;
  options.epsilon = 2;
  options.metric = Metric::kLInf;
  options.on_overlap = OverlapClause::kFormNewGroup;
  const auto result = SgbAll(pts, options);
  ASSERT_TRUE(result.ok());
  // p1 is pulled into S' and re-grouped alone in the next round.
  EXPECT_EQ(result.value().NumEliminated(), 0u);
  EXPECT_EQ(SortedSizes(result.value()), (std::vector<size_t>{1, 1, 1}));
}

TEST(OverlapProcessingTest, JoinAnyLeavesOverlappedMembersAlone) {
  const std::vector<Point> pts = {{0, 0}, {2, 0}, {4, 0}};
  SgbAllOptions options;
  options.epsilon = 2;
  options.metric = Metric::kLInf;
  options.on_overlap = OverlapClause::kJoinAny;
  const auto result = SgbAll(pts, options);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(SortedSizes(result.value()), (std::vector<size_t>{2, 1}));
}

}  // namespace
}  // namespace sgb::core
