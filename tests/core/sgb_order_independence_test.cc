// Order-independence property tests. Similarity grouping should be a
// function of the input *set*, not the input *order* (the algebraic
// well-definedness requirement studied for similarity grouping/joins in
// arXiv:1412.4303):
//
//  * SGB-Any partitions by ε-connectivity, so its grouping is fully
//    order-independent on every input — we verify by re-running under many
//    seeded permutations and comparing canonicalized partitions.
//  * SGB-All's insertion-order-driven group formation is order-sensitive on
//    general inputs *by design* (the paper's Section 4 semantics); its
//    order-independent regime is well-separated cliques (diameter <= ε,
//    inter-clique separation > 3ε), where every overlap clause must
//    reproduce exactly the cliques under any permutation.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/random.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

/// A grouping over permuted points, mapped back to original point ids and
/// canonicalized: sorted member lists, sorted by first member. Two runs
/// agree on the partition iff their canonical forms are equal. Eliminated
/// points are collected separately (order canonical too).
struct CanonicalPartition {
  std::vector<std::vector<size_t>> groups;
  std::vector<size_t> eliminated;

  bool operator==(const CanonicalPartition&) const = default;
};

CanonicalPartition Canonicalize(const Grouping& grouping,
                                const std::vector<size_t>& perm) {
  CanonicalPartition out;
  out.groups.resize(grouping.num_groups);
  for (size_t i = 0; i < grouping.group_of.size(); ++i) {
    const size_t g = grouping.group_of[i];
    const size_t original_id = perm[i];
    if (g == Grouping::kEliminated) {
      out.eliminated.push_back(original_id);
    } else {
      out.groups[g].push_back(original_id);
    }
  }
  for (auto& group : out.groups) std::sort(group.begin(), group.end());
  std::sort(out.groups.begin(), out.groups.end());
  std::sort(out.eliminated.begin(), out.eliminated.end());
  return out;
}

std::vector<size_t> IdentityPerm(size_t n) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), size_t{0});
  return perm;
}

/// Fisher-Yates with the library Rng, so shuffles reproduce across runs.
std::vector<size_t> ShuffledPerm(size_t n, Rng& rng) {
  std::vector<size_t> perm = IdentityPerm(n);
  for (size_t i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
  }
  return perm;
}

std::vector<Point> Apply(const std::vector<Point>& pts,
                         const std::vector<size_t>& perm) {
  std::vector<Point> out(pts.size());
  for (size_t i = 0; i < perm.size(); ++i) out[i] = pts[perm[i]];
  return out;
}

std::vector<Point> UniformCloud(size_t n, double extent, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  pts.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    pts.push_back({rng.NextUniform(0, extent), rng.NextUniform(0, extent)});
  }
  return pts;
}

/// Cliques of diameter <= eps whose centers sit > 3*eps apart (grid
/// placement with spacing 5*eps), plus a few exact duplicates.
std::vector<Point> SeparatedCliques(size_t cliques, size_t per_clique,
                                    double eps, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  const size_t side = static_cast<size_t>(std::ceil(std::sqrt(
      static_cast<double>(cliques))));
  for (size_t c = 0; c < cliques; ++c) {
    const double cx = static_cast<double>(c % side) * 5.0 * eps;
    const double cy = static_cast<double>(c / side) * 5.0 * eps;
    for (size_t k = 0; k < per_clique; ++k) {
      // Radius eps/2 about the center bounds the diameter by eps (L2 and
      // LInf alike).
      const double angle = rng.NextUniform(0, 6.28318530717958647692);
      const double radius = rng.NextUniform(0, eps / 2);
      pts.push_back({cx + radius * std::cos(angle),
                     cy + radius * std::sin(angle)});
    }
    pts.push_back(pts.back());  // exact duplicate inside the clique
  }
  return pts;
}

class OrderIndependenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OrderIndependenceTest, SgbAnyPartitionIsPermutationInvariant) {
  const uint64_t seed = GetParam();
  const auto pts = UniformCloud(250, 6.0, seed);
  Rng rng(seed ^ 0x9E3779B97F4A7C15ULL);
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const SgbAnyAlgorithm algorithm :
         {SgbAnyAlgorithm::kAllPairs, SgbAnyAlgorithm::kIndexed,
        SgbAnyAlgorithm::kPointsIndex}) {
      SgbAnyOptions options;
      options.epsilon = 0.45;
      options.metric = metric;
      options.algorithm = algorithm;
      auto base = SgbAny(pts, options);
      ASSERT_TRUE(base.ok());
      const auto want = Canonicalize(base.value(), IdentityPerm(pts.size()));
      for (int round = 0; round < 5; ++round) {
        const auto perm = ShuffledPerm(pts.size(), rng);
        auto shuffled = SgbAny(Apply(pts, perm), options);
        ASSERT_TRUE(shuffled.ok());
        EXPECT_EQ(Canonicalize(shuffled.value(), perm), want)
            << "algorithm=" << ToString(algorithm) << " round=" << round;
      }
    }
  }
}

TEST_P(OrderIndependenceTest, SgbAnyParallelMatchesSerialUnderPermutation) {
  const uint64_t seed = GetParam();
  const auto pts = UniformCloud(300, 8.0, seed);
  SgbAnyOptions serial;
  serial.epsilon = 0.5;
  auto base = SgbAny(pts, serial);
  ASSERT_TRUE(base.ok());
  const auto want = Canonicalize(base.value(), IdentityPerm(pts.size()));

  Rng rng(seed + 1);
  SgbAnyOptions parallel = serial;
  parallel.degree_of_parallelism = 4;
  for (int round = 0; round < 3; ++round) {
    const auto perm = ShuffledPerm(pts.size(), rng);
    auto shuffled = SgbAny(Apply(pts, perm), parallel);
    ASSERT_TRUE(shuffled.ok());
    EXPECT_EQ(Canonicalize(shuffled.value(), perm), want) << round;
  }
}

TEST_P(OrderIndependenceTest, SgbAllRecoversSeparatedCliquesInAnyOrder) {
  const uint64_t seed = GetParam();
  constexpr double kEps = 0.4;
  constexpr size_t kCliques = 12;
  const auto pts = SeparatedCliques(kCliques, 6, kEps, seed);

  // Ground truth: each clique (including its duplicate point) is one group;
  // nothing is eliminated, under every clause and metric.
  Rng rng(seed ^ 0xABCD);
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const OverlapClause clause :
         {OverlapClause::kJoinAny, OverlapClause::kEliminate,
          OverlapClause::kFormNewGroup}) {
      SgbAllOptions options;
      options.epsilon = kEps;
      options.metric = metric;
      options.on_overlap = clause;
      options.seed = seed;
      auto base = SgbAll(pts, options);
      ASSERT_TRUE(base.ok());
      const auto want = Canonicalize(base.value(), IdentityPerm(pts.size()));
      ASSERT_EQ(want.groups.size(), kCliques);
      ASSERT_TRUE(want.eliminated.empty());

      for (int round = 0; round < 4; ++round) {
        const auto perm = ShuffledPerm(pts.size(), rng);
        auto shuffled = SgbAll(Apply(pts, perm), options);
        ASSERT_TRUE(shuffled.ok());
        EXPECT_EQ(Canonicalize(shuffled.value(), perm), want)
            << "clause=" << ToString(clause) << " round=" << round;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OrderIndependenceTest,
                         ::testing::Values(1u, 2u, 3u, 7u, 42u));

}  // namespace
}  // namespace sgb::core
