// Parameterized property tests over the SGB invariants:
//  * SGB-All: every output group is a clique under ξδ,ε; the three
//    algorithm tiers produce identical groupings (same seed).
//  * SGB-Any: the grouping equals the connected components of the
//    ε-neighbour graph (checked against a BFS reference), for both tiers.
//  * Conservation: grouped + eliminated = n.

#include <gtest/gtest.h>

#include <deque>
#include <tuple>
#include <vector>

#include "common/random.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

std::vector<Point> UniformCloud(size_t n, double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.NextUniform(0, extent), rng.NextUniform(0, extent)});
  }
  return pts;
}

std::vector<Point> ClusteredCloud(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  const int num_centers = 8;
  std::vector<Point> centers;
  for (int c = 0; c < num_centers; ++c) {
    centers.push_back({rng.NextUniform(0, 30), rng.NextUniform(0, 30)});
  }
  for (size_t i = 0; i < n; ++i) {
    const Point& c = centers[rng.NextBounded(num_centers)];
    pts.push_back({rng.NextGaussian(c.x, 0.8), rng.NextGaussian(c.y, 0.8)});
  }
  return pts;
}

using AllParam = std::tuple<Metric, OverlapClause, double, bool>;

class SgbAllPropertyTest : public ::testing::TestWithParam<AllParam> {};

TEST_P(SgbAllPropertyTest, CliqueInvariantAndTierEquivalence) {
  const auto [metric, clause, epsilon, clustered] = GetParam();
  const std::vector<Point> pts =
      clustered ? ClusteredCloud(250, 5) : UniformCloud(250, 12.0, 5);

  SgbAllOptions options;
  options.metric = metric;
  options.on_overlap = clause;
  options.epsilon = epsilon;
  options.seed = 99;

  std::vector<Grouping> results;
  for (const auto algorithm :
       {SgbAllAlgorithm::kAllPairs, SgbAllAlgorithm::kBoundsChecking,
        SgbAllAlgorithm::kIndexed, SgbAllAlgorithm::kGroupsIndex}) {
    options.algorithm = algorithm;
    auto result = SgbAll(pts, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    results.push_back(std::move(result).value());
  }

  // Tier equivalence: identical assignment, not just identical sizes.
  EXPECT_EQ(results[0].group_of, results[1].group_of)
      << "all-pairs vs bounds-checking";
  EXPECT_EQ(results[0].group_of, results[2].group_of)
      << "all-pairs vs indexed";
  EXPECT_EQ(results[0].num_groups, results[2].num_groups);
  EXPECT_EQ(results[0].group_of, results[3].group_of)
      << "all-pairs vs groups-index";

  // Clique invariant.
  const Grouping& g = results[0];
  for (const auto& group : g.GroupsAsLists()) {
    EXPECT_FALSE(group.empty());
    for (size_t a = 0; a < group.size(); ++a) {
      for (size_t b = a + 1; b < group.size(); ++b) {
        ASSERT_TRUE(
            geom::Similar(pts[group[a]], pts[group[b]], metric, epsilon))
            << "points " << group[a] << " and " << group[b]
            << " share a group but violate the similarity predicate";
      }
    }
  }

  // Conservation.
  size_t placed = 0;
  for (const size_t gid : g.group_of) {
    placed += gid != Grouping::kEliminated ? 1 : 0;
  }
  EXPECT_EQ(placed + g.NumEliminated(), pts.size());
  if (clause != OverlapClause::kEliminate) {
    EXPECT_EQ(g.NumEliminated(), 0u);
  }
}

std::string AllParamName(const ::testing::TestParamInfo<AllParam>& info) {
  const auto [metric, clause, epsilon, clustered] = info.param;
  std::string name = metric == Metric::kL2 ? "L2" : "LInf";
  switch (clause) {
    case OverlapClause::kJoinAny:
      name += "JoinAny";
      break;
    case OverlapClause::kEliminate:
      name += "Eliminate";
      break;
    case OverlapClause::kFormNewGroup:
      name += "FormNew";
      break;
  }
  name += epsilon < 0.5 ? "EpsSmall" : (epsilon < 2 ? "EpsMid" : "EpsBig");
  name += clustered ? "Clustered" : "Uniform";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SgbAllPropertyTest,
    ::testing::Combine(
        ::testing::Values(Metric::kL2, Metric::kLInf),
        ::testing::Values(OverlapClause::kJoinAny, OverlapClause::kEliminate,
                          OverlapClause::kFormNewGroup),
        ::testing::Values(0.4, 1.0, 2.5), ::testing::Bool()),
    AllParamName);

/// BFS reference for connected components of the ε-graph.
std::vector<size_t> ReferenceComponents(const std::vector<Point>& pts,
                                        Metric metric, double epsilon) {
  const size_t n = pts.size();
  constexpr size_t kUnset = static_cast<size_t>(-1);
  std::vector<size_t> label(n, kUnset);
  size_t next = 0;
  for (size_t s = 0; s < n; ++s) {
    if (label[s] != kUnset) continue;
    const size_t mine = next++;
    std::deque<size_t> frontier = {s};
    label[s] = mine;
    while (!frontier.empty()) {
      const size_t u = frontier.front();
      frontier.pop_front();
      for (size_t v = 0; v < n; ++v) {
        if (label[v] == kUnset &&
            geom::Similar(pts[u], pts[v], metric, epsilon)) {
          label[v] = mine;
          frontier.push_back(v);
        }
      }
    }
  }
  return label;
}

using AnyParam = std::tuple<Metric, double, bool>;

class SgbAnyPropertyTest : public ::testing::TestWithParam<AnyParam> {};

TEST_P(SgbAnyPropertyTest, MatchesConnectedComponents) {
  const auto [metric, epsilon, clustered] = GetParam();
  const std::vector<Point> pts =
      clustered ? ClusteredCloud(300, 21) : UniformCloud(300, 15.0, 21);

  const std::vector<size_t> reference =
      ReferenceComponents(pts, metric, epsilon);

  SgbAnyOptions options;
  options.metric = metric;
  options.epsilon = epsilon;
  for (const auto algorithm :
       {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed,
        SgbAnyAlgorithm::kPointsIndex}) {
    options.algorithm = algorithm;
    auto result = SgbAny(pts, options);
    ASSERT_TRUE(result.ok());
    // BFS labels components in first-appearance order too, so the labels
    // must match exactly.
    EXPECT_EQ(result.value().group_of, reference)
        << "algorithm " << ToString(algorithm);
  }
}

std::string AnyParamName(const ::testing::TestParamInfo<AnyParam>& info) {
  const auto [metric, epsilon, clustered] = info.param;
  std::string name = metric == Metric::kL2 ? "L2" : "LInf";
  name += epsilon < 0.5 ? "EpsSmall" : (epsilon < 1.5 ? "EpsMid" : "EpsBig");
  name += clustered ? "Clustered" : "Uniform";
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SgbAnyPropertyTest,
    ::testing::Combine(::testing::Values(Metric::kL2, Metric::kLInf),
                       ::testing::Values(0.3, 0.8, 2.0), ::testing::Bool()),
    AnyParamName);

TEST(SgbAllMaximalityTest, NoSingletonCanJoinAnExistingEarlierGroup) {
  // Weak maximality check consistent with the streaming semantics: when a
  // point ends up alone under JOIN-ANY, it must not be within ε of every
  // member of any group formed *before* it was processed. We verify the
  // final state: a singleton's point may not satisfy ξδ,ε against all
  // members of any other group (otherwise JOIN-ANY would have joined it —
  // removals never happen under JOIN-ANY).
  const std::vector<Point> pts = UniformCloud(200, 10.0, 8);
  SgbAllOptions options;
  options.epsilon = 0.8;
  options.on_overlap = OverlapClause::kJoinAny;
  options.algorithm = SgbAllAlgorithm::kIndexed;
  const auto result = SgbAll(pts, options);
  ASSERT_TRUE(result.ok());
  const auto groups = result.value().GroupsAsLists();
  for (size_t s = 0; s < groups.size(); ++s) {
    if (groups[s].size() != 1) continue;
    const Point& lone = pts[groups[s][0]];
    for (size_t other = 0; other < s; ++other) {
      bool joins_all = true;
      for (const size_t m : groups[other]) {
        joins_all =
            joins_all && geom::Similar(lone, pts[m], options.metric,
                                       options.epsilon);
      }
      EXPECT_FALSE(joins_all)
          << "singleton group " << s << " could have joined group " << other;
    }
  }
}

}  // namespace
}  // namespace sgb::core
