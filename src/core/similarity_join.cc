#include "core/similarity_join.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "geom/kernels.h"
#include "geom/rect.h"
#include "index/rtree.h"

namespace sgb::core {

using geom::Metric;
using geom::Point;
using geom::Rect;

namespace {

Status ValidateEpsilon(double epsilon) {
  if (!(epsilon >= 0.0) || !std::isfinite(epsilon)) {
    return Status::InvalidArgument(
        "similarity join: epsilon must be finite and >= 0");
  }
  return Status::OK();
}

std::vector<JoinPair> JoinNestedLoop(std::span<const Point> left,
                                     std::span<const Point> right,
                                     double epsilon, Metric metric,
                                     SimilarityJoinStats* stats) {
  std::vector<JoinPair> out;
  // Block scan of each left point against the whole right side as SoA
  // columns; ForEachSetBit emits pairs in ascending r, the same output
  // order (and the same |L|x|R| distance count) as the scalar loop.
  geom::PointColumns cols;
  cols.Assign(right);
  geom::BlockSimilarity sim(metric, epsilon);
  std::vector<uint64_t> mask(geom::KernelMaskWords(right.size()));
  for (size_t l = 0; l < left.size(); ++l) {
    if (stats != nullptr) stats->distance_computations += right.size();
    sim.Match(left[l], cols.xs(), cols.ys(), right.size(), mask.data());
    geom::ForEachSetBit(mask.data(), right.size(),
                        [&](size_t r) { out.push_back(JoinPair{l, r}); });
  }
  geom::PublishKernelCounts(sim.calls(), sim.pairs());
  return out;
}

std::vector<JoinPair> JoinIndexed(std::span<const Point> left,
                                  std::span<const Point> right,
                                  double epsilon, Metric metric,
                                  SimilarityJoinStats* stats) {
  // Build on the smaller side, probe with the larger; swap results back.
  const bool build_right = right.size() <= left.size();
  std::span<const Point> build = build_right ? right : left;
  std::span<const Point> probe = build_right ? left : right;

  index::RTree tree;
  for (size_t i = 0; i < build.size(); ++i) tree.Insert(build[i], i);

  // Hoists ε² out of the per-candidate L2 verification.
  const geom::SimilarityPredicate similar(metric, epsilon);
  std::vector<JoinPair> out;
  for (size_t p = 0; p < probe.size(); ++p) {
    if (stats != nullptr) ++stats->window_queries;
    tree.Search(Rect::Around(probe[p], epsilon),
                [&](const Rect& r, uint64_t id) {
                  const Point q{r.lo.x, r.lo.y};
                  if (metric == Metric::kL2) {
                    if (stats != nullptr) ++stats->distance_computations;
                    if (!similar(probe[p], q)) {
                      return;
                    }
                  }
                  out.push_back(build_right
                                    ? JoinPair{p, static_cast<size_t>(id)}
                                    : JoinPair{static_cast<size_t>(id), p});
                });
  }
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    return a.left != b.left ? a.left < b.left : a.right < b.right;
  });
  return out;
}

}  // namespace

Result<std::vector<JoinPair>> SimilarityJoin(
    std::span<const Point> left, std::span<const Point> right,
    double epsilon, Metric metric, SimilarityJoinAlgorithm algorithm,
    SimilarityJoinStats* stats) {
  SGB_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  if (algorithm == SimilarityJoinAlgorithm::kNestedLoop) {
    return JoinNestedLoop(left, right, epsilon, metric, stats);
  }
  return JoinIndexed(left, right, epsilon, metric, stats);
}

Result<std::vector<JoinPair>> SimilaritySelfJoin(
    std::span<const Point> points, double epsilon, Metric metric,
    SimilarityJoinAlgorithm algorithm, SimilarityJoinStats* stats) {
  SGB_RETURN_IF_ERROR(ValidateEpsilon(epsilon));
  std::vector<JoinPair> out;
  if (algorithm == SimilarityJoinAlgorithm::kNestedLoop) {
    // Block scan of point i against the SoA suffix (i, n); bit b maps back
    // to j = i + 1 + b, keeping the scalar loop's pair order and count.
    geom::PointColumns cols;
    cols.Assign(points);
    geom::BlockSimilarity sim(metric, epsilon);
    std::vector<uint64_t> mask(geom::KernelMaskWords(points.size()));
    for (size_t i = 0; i < points.size(); ++i) {
      const size_t suffix = points.size() - i - 1;
      if (stats != nullptr) stats->distance_computations += suffix;
      sim.Match(points[i], cols.xs() + i + 1, cols.ys() + i + 1, suffix,
                mask.data());
      geom::ForEachSetBit(mask.data(), suffix, [&](size_t b) {
        out.push_back(JoinPair{i, i + 1 + b});
      });
    }
    geom::PublishKernelCounts(sim.calls(), sim.pairs());
    return out;
  }
  // Streaming variant of the SGB-Any access pattern: probe processed
  // points, then insert — yields each unordered pair exactly once.
  index::RTree tree;
  const geom::SimilarityPredicate similar(metric, epsilon);
  for (size_t i = 0; i < points.size(); ++i) {
    if (stats != nullptr) ++stats->window_queries;
    tree.Search(Rect::Around(points[i], epsilon),
                [&](const Rect& r, uint64_t id) {
                  const Point q{r.lo.x, r.lo.y};
                  if (metric == Metric::kL2) {
                    if (stats != nullptr) ++stats->distance_computations;
                    if (!similar(points[i], q)) {
                      return;
                    }
                  }
                  out.push_back(JoinPair{static_cast<size_t>(id), i});
                });
    tree.Insert(points[i], i);
  }
  std::sort(out.begin(), out.end(), [](const JoinPair& a, const JoinPair& b) {
    return a.left != b.left ? a.left < b.left : a.right < b.right;
  });
  return out;
}

struct SimilaritySearch::Impl {
  index::RTree tree;
};

SimilaritySearch::SimilaritySearch(std::span<const Point> points)
    : points_(points.begin(), points.end()),
      impl_(std::make_shared<Impl>()) {
  for (size_t i = 0; i < points_.size(); ++i) {
    impl_->tree.Insert(points_[i], i);
  }
}

std::vector<size_t> SimilaritySearch::RangeQuery(const Point& q,
                                                 double epsilon,
                                                 Metric metric) const {
  std::vector<size_t> out;
  impl_->tree.Search(Rect::Around(q, epsilon),
                     [&](const Rect&, uint64_t id) {
                       if (geom::Similar(q, points_[id], metric, epsilon)) {
                         out.push_back(static_cast<size_t>(id));
                       }
                     });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> SimilaritySearch::Knn(const Point& q, size_t k) const {
  if (k == 0 || points_.empty()) return {};
  k = std::min(k, points_.size());

  // Expanding-radius search: grow the window until it holds >= k verified
  // points AND the k-th distance fits inside the window radius (so no
  // closer point can hide outside the window).
  double radius = 1e-9;
  // Seed the radius with a small sample's spread to avoid dozens of empty
  // rounds on wide data.
  for (size_t i = 0; i < std::min<size_t>(points_.size(), 8); ++i) {
    radius = std::max(radius, geom::DistanceL2(q, points_[i]) / 4.0);
  }
  while (true) {
    std::vector<std::pair<double, size_t>> found;
    impl_->tree.Search(Rect::Around(q, radius),
                       [&](const Rect&, uint64_t id) {
                         found.push_back(
                             {geom::DistanceL2Squared(q, points_[id]),
                              static_cast<size_t>(id)});
                       });
    if (found.size() >= k) {
      std::sort(found.begin(), found.end());
      const double kth = std::sqrt(found[k - 1].first);
      if (kth <= radius) {
        std::vector<size_t> out;
        out.reserve(k);
        for (size_t i = 0; i < k; ++i) out.push_back(found[i].second);
        return out;
      }
      radius = kth;  // one more pass with the exact covering radius
      continue;
    }
    radius *= 2.0;
  }
}

}  // namespace sgb::core
