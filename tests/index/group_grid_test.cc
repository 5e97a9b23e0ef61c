#include "index/group_grid.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/query_context.h"
#include "common/random.h"

namespace sgb::index {
namespace {

using geom::Point;
using geom::Rect;

std::vector<size_t> Sorted(std::vector<size_t> ids) {
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::vector<size_t> ProbeIds(const GroupGrid& grid, const Point& p) {
  std::vector<size_t> ids;
  EXPECT_TRUE(grid.Probe(p, &ids));
  return Sorted(std::move(ids));
}

/// A box at most `eps` wide per axis, like a group's member MBR.
Rect RandomBox(Rng& rng, double extent, double eps) {
  const Point lo{rng.NextUniform(-extent, extent),
                 rng.NextUniform(-extent, extent)};
  return Rect{lo, {lo.x + rng.NextUniform(0, eps),
                   lo.y + rng.NextUniform(0, eps)}};
}

TEST(GroupGridTest, ProbeListsEveryBoxTheWindowIntersects) {
  Rng rng(1);
  const double eps = 0.3;
  GroupGrid grid;
  grid.Reset(eps);
  std::vector<Rect> boxes;
  for (size_t gid = 0; gid < 400; ++gid) {
    boxes.push_back(RandomBox(rng, 5, eps));
    grid.Insert(boxes.back(), gid);
  }
  // Move half the boxes and retire a quarter; the grid must follow.
  std::vector<bool> alive(boxes.size(), true);
  for (size_t gid = 0; gid < boxes.size(); gid += 2) {
    const Rect moved = RandomBox(rng, 5, eps);
    grid.Move(boxes[gid], moved, gid);
    boxes[gid] = moved;
  }
  for (size_t gid = 0; gid < boxes.size(); gid += 4) {
    grid.Remove(boxes[gid], gid);
    alive[gid] = false;
  }
  for (int probe = 0; probe < 2000; ++probe) {
    const Point p{rng.NextUniform(-6, 6), rng.NextUniform(-6, 6)};
    const std::vector<size_t> got = ProbeIds(grid, p);
    for (size_t gid = 0; gid < boxes.size(); ++gid) {
      const bool listed = std::binary_search(got.begin(), got.end(), gid);
      if (!alive[gid]) {
        EXPECT_FALSE(listed) << "retired group " << gid;
      } else if (boxes[gid].Intersects(Rect::Around(p, eps))) {
        EXPECT_TRUE(listed) << "group " << gid << " missed";
      }
    }
    // Cells are 2ε wide: a probe lists only boxes within about 3ε.
    for (const size_t gid : got) {
      EXPECT_TRUE(boxes[gid].Intersects(Rect::Around(p, 4 * eps)));
    }
  }
}

TEST(GroupGridTest, BoxesOnCellEdgesAndWindowsTouchingThem) {
  // 2ε = 1: integer coordinates are cell edges.
  GroupGrid grid;
  grid.Reset(0.5);
  grid.Insert(Rect{{1.0, 1.0}, {1.0, 1.0}}, 0);
  grid.Insert(Rect{{std::nextafter(2.0, 0.0), 0.0}, {2.0, 0.5}}, 1);
  auto lists = [&grid](const Point& p, size_t gid) {
    const std::vector<size_t> ids = ProbeIds(grid, p);
    return std::binary_search(ids.begin(), ids.end(), gid);
  };
  // Windows whose edge is exactly the box's edge (or corner).
  EXPECT_TRUE(lists(Point{0.5, 0.5}, 0));
  EXPECT_TRUE(lists(Point{1.5, 1.5}, 0));
  EXPECT_TRUE(lists(Point{2.5, 0.0}, 1));
  EXPECT_TRUE(lists(Point{1.5, 1.0}, 1));
  EXPECT_TRUE(lists(Point{std::nextafter(1.0, 0.0), -0.5}, 1));
  EXPECT_TRUE(ProbeIds(grid, Point{-0.6, 3.6}).empty());
}

TEST(GroupGridTest, OverflowListHoldsWhatNoCellCan) {
  const double kInf = std::numeric_limits<double>::infinity();
  GroupGrid grid;
  grid.Reset(0.5);
  grid.Insert(Rect{{kInf, 1.0}, {kInf, 1.0}}, 0);  // non-finite MBR
  grid.Insert(Rect{{1e15, 0.0}, {1e15, 0.0}}, 1);  // cell beyond 2^31
  grid.Insert(Rect{{0.0, 0.0}, {0.1, 0.1}}, 2);
  // Every probe lists the overflow list; only nearby probes list group 2.
  EXPECT_EQ(ProbeIds(grid, Point{50, 50}), (std::vector<size_t>{0, 1}));
  EXPECT_EQ(ProbeIds(grid, Point{0, 0}), (std::vector<size_t>{0, 1, 2}));
  // Moving into and out of the overflow list.
  grid.Move(Rect{{1e15, 0.0}, {1e15, 0.0}}, Rect{{50, 50}, {50, 50}}, 1);
  grid.Move(Rect{{0.0, 0.0}, {0.1, 0.1}}, Rect{{1e15, 0.0}, {1e15, 0.0}},
            2);
  EXPECT_EQ(ProbeIds(grid, Point{50, 50}), (std::vector<size_t>{0, 1, 2}));
  EXPECT_EQ(ProbeIds(grid, Point{0, 0}), (std::vector<size_t>{0, 2}));

  // A non-finite probe cannot be bounded: the caller scans every group.
  std::vector<size_t> ids;
  EXPECT_FALSE(grid.Probe(Point{std::nan(""), 0.0}, &ids));
  EXPECT_FALSE(grid.Probe(Point{0.0, -kInf}, &ids));
  EXPECT_TRUE(ids.empty());

  // ε = 0 has no cell width: every group overflows.
  grid.Reset(0.0);
  grid.Insert(Rect{{3.0, 3.0}, {3.0, 3.0}}, 0);
  grid.Insert(Rect{{-9.0, 2.0}, {-9.0, 2.0}}, 1);
  EXPECT_EQ(ProbeIds(grid, Point{3, 3}), (std::vector<size_t>{0, 1}));
}

TEST(GroupGridTest, ResetForgetsGroupsAndKeepsTheArrays) {
  Rng rng(2);
  GroupGrid grid;
  grid.Reset(0.2);
  for (size_t gid = 0; gid < 1000; ++gid) {
    grid.Insert(RandomBox(rng, 10, 0.2), gid);
  }
  const size_t bytes = grid.bytes();
  EXPECT_GT(bytes, 0u);
  for (int round = 0; round < 3; ++round) {
    grid.Reset(0.2);
    EXPECT_TRUE(ProbeIds(grid, Point{0, 0}).empty());
    grid.Insert(Rect{{0, 0}, {0, 0}}, 0);
    EXPECT_EQ(ProbeIds(grid, Point{0, 0}), (std::vector<size_t>{0}));
  }
  EXPECT_EQ(grid.bytes(), bytes);
}

TEST(GroupGridTest, ChargesItsArraysToTheQueryBudget) {
  Rng rng(3);
  QueryContext ctx;
  {
    GroupGrid grid(&ctx);
    grid.Reset(0.2);
    for (size_t gid = 0; gid < 1000; ++gid) {
      grid.Insert(RandomBox(rng, 10, 0.2), gid);
    }
    EXPECT_GT(grid.bytes(), 0u);
    EXPECT_EQ(ctx.memory().usage_bytes(), grid.bytes());
  }
  EXPECT_EQ(ctx.memory().usage_bytes(), 0u);

  // A budget too small for the arrays aborts the build.
  QueryContext tight(4096);
  GroupGrid grid(&tight);
  grid.Reset(0.2);
  EXPECT_THROW(
      {
        for (size_t gid = 0; gid < 1000; ++gid) {
          grid.Insert(RandomBox(rng, 10, 0.2), gid);
        }
      },
      QueryAbort);
  EXPECT_LE(tight.memory().usage_bytes(), 4096u);
}

}  // namespace
}  // namespace sgb::index
