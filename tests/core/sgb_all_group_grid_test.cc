// Edge cases of SGB-All's group grid (the kIndexed tier's Groups_IX,
// index::GroupGrid): cell boundaries, pairs at exactly ε, duplicates,
// non-finite and huge coordinates, cell-index overflow and ε = 0. On every
// input the grid tier must group exactly as Bounds-Checking (the same
// exact test over every group) and as the R-tree reference tier, for all
// three ON-OVERLAP clauses, both metrics, and dop 1 and 4.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/random.h"
#include "core/sgb_all.h"

namespace sgb::core {
namespace {

using geom::Metric;
using geom::Point;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Grouping RunTier(const std::vector<Point>& pts, double eps, Metric metric,
                 OverlapClause clause, SgbAllAlgorithm algorithm, int dop,
                 SgbAllStats* stats = nullptr) {
  SgbAllOptions o;
  o.epsilon = eps;
  o.metric = metric;
  o.on_overlap = clause;
  o.algorithm = algorithm;
  o.degree_of_parallelism = dop;
  auto result = SgbAll(pts, o, stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value() : Grouping{};
}

/// Bounds-Checking at dop 1 is the reference; the grid and the R-tree
/// must reproduce it label for label at dop 1 and 4.
void ExpectTiersAgree(const std::vector<Point>& pts, double eps) {
  for (const Metric metric : {Metric::kL2, Metric::kLInf}) {
    for (const OverlapClause clause :
         {OverlapClause::kJoinAny, OverlapClause::kEliminate,
          OverlapClause::kFormNewGroup}) {
      const Grouping want = RunTier(pts, eps, metric, clause,
                                    SgbAllAlgorithm::kBoundsChecking, 1);
      for (const SgbAllAlgorithm algorithm :
           {SgbAllAlgorithm::kIndexed, SgbAllAlgorithm::kGroupsIndex,
            SgbAllAlgorithm::kBoundsChecking}) {
        for (const int dop : {1, 4}) {
          SCOPED_TRACE(std::string(ToString(algorithm)) + " " +
                       (metric == Metric::kL2 ? "L2 " : "LINF ") +
                       ToString(clause) + " dop=" + std::to_string(dop));
          const Grouping got =
              RunTier(pts, eps, metric, clause, algorithm, dop);
          EXPECT_EQ(got.num_groups, want.num_groups);
          EXPECT_EQ(got.group_of, want.group_of);
        }
      }
    }
  }
}

/// Points within `spread` of the lattice nodes k·step (k in [-3, 3]),
/// each also copied one ulp away on either side of both axes; shuffled.
std::vector<Point> LatticeWithUlps(double step, double spread,
                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts;
  for (int kx = -3; kx <= 3; ++kx) {
    for (int ky = -3; ky <= 3; ++ky) {
      const double x = kx * step + rng.NextUniform(-spread, spread);
      const double y = ky * step + rng.NextUniform(-spread, spread);
      for (const double dx : {-kInf, 0.0, kInf}) {
        for (const double dy : {-kInf, 0.0, kInf}) {
          pts.push_back(Point{dx == 0.0 ? x : std::nextafter(x, dx),
                              dy == 0.0 ? y : std::nextafter(y, dy)});
        }
      }
    }
  }
  // Interleave so groups form across the boundaries, not one node at a
  // time.
  for (size_t i = pts.size(); i > 1; --i) {
    std::swap(pts[i - 1], pts[rng.NextBounded(i)]);
  }
  return pts;
}

TEST(SgbAllGroupGridTest, PointsOnCellBoundariesAndOneUlpAway) {
  // 2ε = 1 and 2ε = 0.2 (not exact in binary): nodes sit on cell edges.
  ExpectTiersAgree(LatticeWithUlps(1.0, 0.0, 1), 0.5);
  ExpectTiersAgree(LatticeWithUlps(0.2, 0.0, 2), 0.1);
  // Half-cell lattice with jitter: groups straddle the edges.
  ExpectTiersAgree(LatticeWithUlps(0.5, 0.05, 3), 0.5);
  ExpectTiersAgree(LatticeWithUlps(0.1, 0.01, 4), 0.1);
}

TEST(SgbAllGroupGridTest, PairsAtExactlyEpsilon) {
  for (const double eps : {0.25, 0.1, 0.3}) {
    std::vector<Point> pts;
    for (int i = -4; i <= 4; ++i) {
      for (int j = -4; j <= 4; ++j) pts.push_back(Point{i * eps, j * eps});
    }
    // Diagonal neighbours exactly ε apart under L2 (3-4-5 triangles).
    for (int i = 0; i < 6; ++i) {
      pts.push_back(Point{i * 0.6 * eps, i * 0.8 * eps});
    }
    ExpectTiersAgree(pts, eps);
  }
}

TEST(SgbAllGroupGridTest, Duplicates) {
  Rng rng(5);
  std::vector<Point> pts;
  for (int c = 0; c < 12; ++c) {
    const Point p{rng.NextUniform(0, 3), rng.NextUniform(0, 3)};
    for (int k = 0; k < 1 + c % 5; ++k) pts.push_back(p);
  }
  for (size_t i = pts.size(); i > 1; --i) {
    std::swap(pts[i - 1], pts[rng.NextBounded(i)]);
  }
  ExpectTiersAgree(pts, 0.4);
  ExpectTiersAgree(std::vector<Point>(30, Point{1.0, -2.0}), 0.4);
}

TEST(SgbAllGroupGridTest, NonFiniteCoordinates) {
  Rng rng(6);
  std::vector<Point> pts;
  for (int i = 0; i < 80; ++i) {
    pts.push_back(Point{rng.NextUniform(0, 4), rng.NextUniform(0, 4)});
  }
  const double specials[] = {kNaN, kInf, -kInf};
  for (const double s : specials) {
    pts.push_back(Point{s, 1.0});
    pts.push_back(Point{s, 1.2});
    pts.push_back(Point{2.0, s});
    pts.push_back(Point{s, s});
    pts.push_back(Point{s, -s});
  }
  for (size_t i = pts.size(); i > 1; --i) {
    std::swap(pts[i - 1], pts[rng.NextBounded(i)]);
  }
  ExpectTiersAgree(pts, 0.5);
}

TEST(SgbAllGroupGridTest, HugeCoordinates) {
  Rng rng(7);
  std::vector<Point> near_1e300;
  for (int i = 0; i < 60; ++i) {
    near_1e300.push_back(Point{1e300 + rng.NextUniform(0, 4e299),
                               -1e300 - rng.NextUniform(0, 4e299)});
  }
  // ε comparable to the coordinates: the cells hold them.
  ExpectTiersAgree(near_1e300, 1e299);
  // Cell indices beyond ±2³¹: every group overflows.
  ExpectTiersAgree(near_1e300, 1.0);

  // Next to the largest double the probe window's bound overflows.
  const double top = std::numeric_limits<double>::max();
  std::vector<Point> at_top;
  for (int i = 0; i < 40; ++i) {
    at_top.push_back(Point{top - rng.NextUniform(0, 1e307),
                           -top + rng.NextUniform(0, 1e307)});
  }
  ExpectTiersAgree(at_top, 1e306);
  ExpectTiersAgree(at_top, 1e300);
}

TEST(SgbAllGroupGridTest, EpsilonTinyRelativeToCoordinates) {
  // 1e6 / 2e-9 is beyond 2³¹: the cell index overflows, yet groups form.
  Rng rng(8);
  std::vector<Point> pts;
  for (int i = 0; i < 80; ++i) {
    pts.push_back(Point{1e6 + rng.NextBounded(6) * 4e-10,
                        -1e6 + rng.NextBounded(6) * 4e-10});
  }
  ExpectTiersAgree(pts, 1e-9);
  // ε below half an ulp of the coordinates: only equal points match.
  ExpectTiersAgree(pts, 1e-20);
}

TEST(SgbAllGroupGridTest, EpsilonZero) {
  Rng rng(9);
  std::vector<Point> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back(Point{static_cast<double>(rng.NextBounded(4)),
                        static_cast<double>(rng.NextBounded(4))});
  }
  pts.push_back(Point{-0.0, 0.0});
  pts.push_back(Point{0.0, -0.0});
  ExpectTiersAgree(pts, 0.0);
}

TEST(SgbAllGroupGridTest, GridProbesFewerGroupsThanTheScan) {
  // On spread-out data the grid classifies only nearby groups: far fewer
  // rectangle tests than Bounds-Checking's scan of every group.
  Rng rng(10);
  std::vector<Point> pts;
  for (int i = 0; i < 3000; ++i) {
    pts.push_back(Point{rng.NextUniform(0, 30), rng.NextUniform(0, 30)});
  }
  SgbAllStats grid;
  SgbAllStats scan;
  const Grouping a = RunTier(pts, 0.3, Metric::kL2, OverlapClause::kJoinAny,
                             SgbAllAlgorithm::kIndexed, 1, &grid);
  const Grouping b = RunTier(pts, 0.3, Metric::kL2, OverlapClause::kJoinAny,
                             SgbAllAlgorithm::kBoundsChecking, 1, &scan);
  EXPECT_EQ(a.group_of, b.group_of);
  EXPECT_EQ(grid.index_window_queries, pts.size());
  EXPECT_LT(grid.rectangle_tests * 50, scan.rectangle_tests);
}

}  // namespace
}  // namespace sgb::core
