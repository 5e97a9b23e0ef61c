// Property test of the clique-cell grid (index::SimilarityComponents):
// on every input — cell-edge coordinates, pairs exactly ε apart, exact
// duplicates, ±0.0, ε = 0, clamped and huge-magnitude coordinates, NaN and
// ±inf — its component labels must equal, bit for bit, the labels of the
// All-Pairs scan with the same kernel, under both metrics and at every
// degree of parallelism.

#include "index/grid_partition.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "geom/kernels.h"
#include "index/union_find.h"

namespace sgb::index {
namespace {

using geom::Metric;
using geom::Point;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// The All-Pairs oracle: every point against its prefix through the block
/// kernel, components labeled by first appearance.
std::vector<size_t> AllPairsLabels(const std::vector<Point>& pts,
                                   Metric metric, double epsilon) {
  UnionFind forest(pts.size());
  geom::PointColumns cols;
  cols.Assign(pts);
  geom::BlockSimilarity sim(metric, epsilon);
  std::vector<uint64_t> mask(geom::KernelMaskWords(pts.size()));
  for (size_t i = 0; i < pts.size(); ++i) {
    sim.Match(pts[i], cols.xs(), cols.ys(), i, mask.data());
    geom::ForEachSetBit(mask.data(), i,
                        [&](size_t j) { forest.Union(i, j); });
  }
  std::vector<size_t> labels(pts.size());
  std::vector<size_t> label_of_root(pts.size(), pts.size());
  size_t next = 0;
  for (size_t i = 0; i < pts.size(); ++i) {
    const size_t root = forest.Find(i);
    if (label_of_root[root] == pts.size()) label_of_root[root] = next++;
    labels[i] = label_of_root[root];
  }
  return labels;
}

/// The nominal cell width (the grid widens it only for tiny ε under L2).
double NominalWidth(Metric metric, double epsilon) {
  const double w = epsilon * (1.0 - 0x1p-20);
  return metric == Metric::kL2 ? w / std::sqrt(2.0) : w;
}

std::string MetricName(Metric metric) {
  return metric == Metric::kL2 ? "L2" : "LInf";
}

/// Runs the grid at dop 1, 2, 4 and 7 and compares each with the oracle.
void ExpectMatchesAllPairs(const std::vector<Point>& pts, Metric metric,
                           double epsilon, const std::string& what) {
  const std::vector<size_t> want = AllPairsLabels(pts, metric, epsilon);
  size_t want_components = 0;
  for (const size_t label : want) {
    want_components = std::max(want_components, label + 1);
  }
  for (const size_t dop : {1u, 2u, 4u, 7u}) {
    std::vector<GridPartitionStats> stats;
    const GridComponents got = SimilarityComponents(
        pts, metric, epsilon, dop, ThreadPool::Default(), &stats);
    EXPECT_EQ(got.component_of, want)
        << what << " metric=" << MetricName(metric) << " eps=" << epsilon
        << " dop=" << dop;
    EXPECT_EQ(got.num_components, want_components) << what;
    ASSERT_EQ(stats.size(), dop);
    size_t scanned = 0;
    for (const GridPartitionStats& w : stats) scanned += w.points;
    EXPECT_EQ(scanned, pts.size()) << what << " dop=" << dop;
  }
}

TEST(CliqueGridTest, PointsOnCellEdges) {
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    const double eps = 0.5;
    const double w = NominalWidth(metric, eps);
    std::vector<Point> pts;
    for (int i = -6; i <= 6; ++i) {
      for (int j = -6; j <= 6; j += 3) {
        const double x = i * w;
        const double y = j * w;
        pts.push_back({x, y});
        pts.push_back({std::nextafter(x, -kInf), y});
        pts.push_back({x, std::nextafter(y, kInf)});
      }
    }
    ExpectMatchesAllPairs(pts, metric, eps, "cell edges");
  }
}

TEST(CliqueGridTest, PairsExactlyEpsilonApart) {
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const double eps : {0.5, 0.1, 3.0}) {
      const double w = NominalWidth(metric, eps);
      // Along an axis and along the diagonal, starting on cell boundaries,
      // so each pair straddles one or two boundaries; every pair is its
      // own island, ten ε apart from the next.
      std::vector<Point> pts;
      const double diag =
          metric == Metric::kL2 ? eps / std::sqrt(2.0) : eps;
      for (int k = 0; k < 8; ++k) {
        const double base = 10.0 * eps * k + k * w;
        pts.push_back({base, 0.0});
        pts.push_back({base + eps, 0.0});
        pts.push_back({0.0, base});
        pts.push_back({0.0, base + eps});
        pts.push_back({base, base});
        pts.push_back({base + diag, base + diag});
        pts.push_back({base, -base});
        pts.push_back({base + eps, -base - eps});
        pts.push_back({-base, base});
        pts.push_back({-base - std::nextafter(eps, kInf), base});
      }
      ExpectMatchesAllPairs(pts, metric, eps, "exactly eps apart");
    }
  }
}

TEST(CliqueGridTest, DuplicatesAndSignedZeros) {
  std::vector<Point> pts;
  for (int i = 0; i < 40; ++i) {
    pts.push_back({0.0, 0.0});
    pts.push_back({-0.0, 0.0});
    pts.push_back({0.0, -0.0});
    pts.push_back({-0.0, -0.0});
    pts.push_back({1.25, 1.25});
    pts.push_back({0.4 * (i % 5), 0.7});
  }
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const double eps : {0.0, 0.3, 0.4, 1.0}) {
      ExpectMatchesAllPairs(pts, metric, eps, "duplicates and ±0");
    }
  }
}

TEST(CliqueGridTest, EpsilonZeroGroupsEqualCoordinates) {
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 300; ++i) {
    // A coarse lattice: many exact duplicates among distinct neighbours.
    pts.push_back({0.25 * static_cast<double>(rng.NextBounded(6)),
                   0.25 * static_cast<double>(rng.NextBounded(6))});
  }
  // Coordinates so small that their squared differences underflow: the L2
  // kernel accepts them at ε = 0 although they differ.
  pts.push_back({1e-170, 0.0});
  pts.push_back({2e-170, 0.0});
  pts.push_back({0.0, 3e-170});
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    ExpectMatchesAllPairs(pts, metric, 0.0, "eps = 0");
  }
}

TEST(CliqueGridTest, ClampedAndHugeMagnitudeCoordinates) {
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    const double eps = 0.5;
    const double w = NominalWidth(metric, eps);
    std::vector<Point> pts;
    // Around the clique bound and the clamp, |x/w| ~ 2^30, where floor(x/w)
    // rounds; and far beyond it, where every point shares a border cell.
    for (const double scale : {0x1p29, 0x1p30, 0x1p31, 0x1p40}) {
      const double x0 = scale * w;
      for (int k = 0; k < 12; ++k) {
        pts.push_back({x0 + 0.3 * k, 1.0});
        pts.push_back({-x0 - 0.3 * k, 0.1 * k});
        pts.push_back({0.2 * k, x0 + eps * k});
      }
    }
    for (const double big : {1e300, 1.7e308, -1.7e308}) {
      pts.push_back({big, 0.0});
      pts.push_back({big, 0.25});
      pts.push_back({0.0, big});
    }
    ExpectMatchesAllPairs(pts, metric, eps, "clamped");
  }
}

TEST(CliqueGridTest, NonFiniteCoordinates) {
  Rng rng(11);
  const double specials[] = {kNaN, kInf, -kInf};
  std::vector<Point> pts;
  for (int i = 0; i < 200; ++i) {
    Point p{rng.NextUniform(0, 4), rng.NextUniform(0, 4)};
    if (rng.NextBounded(4) == 0) p.x = specials[rng.NextBounded(3)];
    if (rng.NextBounded(4) == 0) p.y = specials[rng.NextBounded(3)];
    pts.push_back(p);
  }
  pts.push_back({kNaN, kNaN});
  pts.push_back({kInf, 1.0});
  pts.push_back({kInf, 1.2});
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const double eps : {0.0, 0.3, 1.0}) {
      ExpectMatchesAllPairs(pts, metric, eps, "non-finite");
    }
  }
}

TEST(CliqueGridTest, ExtremeEpsilons) {
  Rng rng(5);
  std::vector<Point> pts;
  for (int i = 0; i < 150; ++i) {
    pts.push_back({rng.NextUniform(-1, 1), rng.NextUniform(-1, 1)});
  }
  for (int i = 0; i < 50; ++i) {
    pts.push_back({rng.NextUniform(-1, 1) * 1e-160,
                   rng.NextUniform(-1, 1) * 1e-160});
  }
  pts.push_back({1e308, -1e308});
  pts.push_back({-1e308, 1e308});
  // ε² underflows (tiny ε) or overflows (huge ε) under L2.
  for (const double eps : {5e-324, 1e-200, 1e-160, 1e-150, 1e154, 1e200,
                           1e308}) {
    for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
      ExpectMatchesAllPairs(pts, metric, eps, "extreme eps");
    }
  }
}

TEST(CliqueGridTest, RandomMixturesMatchAllPairs) {
  const double specials[] = {kNaN, kInf, -kInf, 0.0, -0.0, 1e300};
  for (uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    const Metric metric =
        rng.NextBounded(2) == 0 ? Metric::kL2 : Metric::kLInf;
    const double eps_choices[] = {0.0, 0.05, 0.3, 0.7, 2.0};
    const double eps = eps_choices[rng.NextBounded(5)];
    const size_t n = 1 + rng.NextBounded(250);
    std::vector<Point> pts;
    for (size_t i = 0; i < n; ++i) {
      Point p;
      switch (rng.NextBounded(3)) {
        case 0:  // uniform
          p = {rng.NextUniform(0, 6), rng.NextUniform(0, 6)};
          break;
        case 1:  // lattice: duplicates and exact ε multiples
          p = {0.35 * static_cast<double>(rng.NextBounded(10)),
               0.35 * static_cast<double>(rng.NextBounded(10))};
          break;
        default:  // a tight cluster
          p = {rng.NextGaussian(3, 0.2), rng.NextGaussian(3, 0.2)};
          break;
      }
      if (rng.NextBounded(12) == 0) p.x = specials[rng.NextBounded(6)];
      if (rng.NextBounded(12) == 0) p.y = specials[rng.NextBounded(6)];
      pts.push_back(p);
    }
    ExpectMatchesAllPairs(pts, metric, eps,
                          "random seed=" + std::to_string(seed));
  }
}

TEST(CliqueGridTest, EmptyInput) {
  std::vector<GridPartitionStats> stats;
  const GridComponents got = SimilarityComponents(
      {}, Metric::kL2, 1.0, 3, ThreadPool::Default(), &stats);
  EXPECT_TRUE(got.component_of.empty());
  EXPECT_EQ(got.num_components, 0u);
  EXPECT_EQ(stats.size(), 3u);
}

}  // namespace
}  // namespace sgb::index
