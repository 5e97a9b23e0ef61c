#include "core/sgb_any.h"

#include <cmath>

#include "common/query_context.h"
#include "common/thread_pool.h"
#include "geom/kernels.h"
#include "geom/rect.h"
#include "index/grid_partition.h"
#include "index/rtree.h"
#include "index/union_find.h"
#include "obs/metrics.h"

namespace sgb::core {

namespace {

using geom::Metric;
using geom::Point;
using geom::Rect;

/// Minimum input size for the parallel path: below this the partitioning
/// overhead dominates any possible speedup.
constexpr size_t kMinParallelPoints = 64;

/// Points processed between governance checks in the All-Pairs and R-tree
/// loops (the grid checks once per cell instead).
constexpr size_t kAbortCheckStride = 64;

Grouping LabelComponents(std::span<const Point> points,
                         index::UnionFind& forest) {
  Grouping result;
  result.group_of.assign(points.size(), Grouping::kEliminated);
  std::vector<size_t> label_of_root(points.size(), Grouping::kEliminated);
  for (size_t i = 0; i < points.size(); ++i) {
    const size_t root = forest.Find(i);
    if (label_of_root[root] == Grouping::kEliminated) {
      label_of_root[root] = result.num_groups++;
    }
    result.group_of[i] = label_of_root[root];
  }
  return result;
}

Grouping RunAllPairs(std::span<const Point> points,
                     const SgbAnyOptions& options, SgbAnyStats* stats) {
  index::UnionFind forest(points.size());
  // Block kernels scan point i against the SoA prefix [0, i); ForEachSetBit
  // enumerates matches in ascending j, the same union order as the
  // historical scalar double loop.
  geom::PointColumns cols;
  cols.Assign(points);
  geom::BlockSimilarity sim(options.metric, options.epsilon);
  std::vector<uint64_t> mask(geom::KernelMaskWords(points.size()));
  for (size_t i = 0; i < points.size(); ++i) {
    if (options.query_ctx != nullptr && i % kAbortCheckStride == 0) {
      ThrowIfAborted(options.query_ctx);
    }
    if (stats != nullptr) stats->distance_computations += i;
    sim.Match(points[i], cols.xs(), cols.ys(), i, mask.data());
    geom::ForEachSetBit(mask.data(), i, [&](size_t j) {
      if (stats != nullptr) {
        ++stats->union_operations;
        if (!forest.Connected(i, j)) ++stats->group_merges;
      }
      forest.Union(i, j);
    });
  }
  if (stats != nullptr) {
    stats->kernel_calls += sim.calls();
    stats->kernel_pairs += sim.pairs();
  }
  return LabelComponents(points, forest);
}

/// Procedure 8 (FindCandidateGroups) + Procedure 9 (ProcessGroupingANY),
/// fused: the window query yields the ε-neighbours among processed points;
/// each verified neighbour's group is merged with the new point's via
/// union-find, which realizes new-group creation, single-group join, and
/// multi-group merge uniformly. The paper's reference tier (kPointsIndex).
Grouping RunPointsIndex(std::span<const Point> points,
                        const SgbAnyOptions& options, SgbAnyStats* stats) {
  index::UnionFind forest(points.size());
  index::RTree points_ix;
  // Hoists ε² out of the per-neighbour L2 verification.
  const geom::SimilarityPredicate similar(options.metric, options.epsilon);
  for (size_t i = 0; i < points.size(); ++i) {
    if (options.query_ctx != nullptr && i % kAbortCheckStride == 0) {
      ThrowIfAborted(options.query_ctx);
    }
    const Point& p = points[i];
    if (stats != nullptr) ++stats->index_window_queries;
    const Rect window = Rect::Around(p, options.epsilon);
    points_ix.Search(window, [&](const Rect& r, uint64_t id) {
      const Point q{r.lo.x, r.lo.y};  // points are degenerate rects
      if (options.metric == Metric::kL2) {
        // VerifyPoints: the ε-window is the L∞ ball; L2 needs a check.
        if (stats != nullptr) ++stats->distance_computations;
        if (!similar(p, q)) return;
      }
      if (stats != nullptr) {
        ++stats->union_operations;
        if (!forest.Connected(i, id)) ++stats->group_merges;
      }
      forest.Union(i, static_cast<size_t>(id));
    });
    points_ix.Insert(p, i);
  }
  return LabelComponents(points, forest);
}

/// SGB-Any over the clique-cell grid: the components of the ε-neighbour
/// graph, labeled by first appearance. SGB-Any is exactly "connected
/// components of the ε-neighbour graph", an order-insensitive result, so
/// this reproduces the All-Pairs grouping bit-for-bit at every degree of
/// parallelism (docs/PARALLELISM.md).
Grouping RunGrid(std::span<const Point> points, const SgbAnyOptions& options,
                 SgbAnyStats* stats, size_t dop) {
  std::vector<index::GridPartitionStats> grid_stats;
  index::GridComponents components = index::SimilarityComponents(
      points, options.metric, options.epsilon, dop, ThreadPool::Default(),
      &grid_stats, options.query_ctx);
  size_t partitions = 0;
  for (const index::GridPartitionStats& w : grid_stats) {
    stats->distance_computations += w.distance_computations;
    stats->union_operations += w.union_operations + w.boundary_edges;
    stats->kernel_calls += w.kernel_calls;
    stats->kernel_pairs += w.kernel_pairs;
    if (w.cells > 0) ++partitions;
    if (dop > 1) {
      SgbWorkerStats worker;
      worker.points = w.points;
      worker.distance_computations = w.distance_computations;
      stats->workers.push_back(worker);
    }
  }
  if (dop > 1) stats->parallel_partitions = partitions;
  // A clique cell merges its points without a union call; group_merges is
  // the number of merges the components imply.
  stats->group_merges += points.size() - components.num_components;
  Grouping result;
  result.group_of = std::move(components.component_of);
  result.num_groups = components.num_components;
  return result;
}

}  // namespace

Result<Grouping> SgbAny(std::span<const Point> points,
                        const SgbAnyOptions& options, SgbAnyStats* stats) {
  if (!(options.epsilon >= 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "SGB-Any: similarity threshold epsilon must be finite and >= 0");
  }
  if (options.degree_of_parallelism < 0) {
    return Status::InvalidArgument(
        "SGB-Any: degree_of_parallelism must be >= 0 (0 = auto)");
  }
  // As in SgbAll: counters always reach the global registry, with the
  // caller's struct as the optional per-invocation view.
  SgbAnyStats local;
  if (stats == nullptr) stats = &local;
  const size_t dop = ThreadPool::ResolveDop(options.degree_of_parallelism);
  // Below kMinParallelPoints the partitioning overhead dominates; the
  // R-tree reference tier is always serial.
  const bool parallel = dop > 1 && points.size() >= kMinParallelPoints &&
                        options.algorithm != SgbAnyAlgorithm::kPointsIndex;
  Result<Grouping> result = [&]() -> Result<Grouping> {
    try {
      // Bookkeeping charge: union-find forest + labeling, O(n) words.
      ScopedMemoryCharge bookkeeping(options.query_ctx,
                                     points.size() * sizeof(size_t) * 2);
      switch (options.algorithm) {
        case SgbAnyAlgorithm::kAllPairs:
          return parallel ? RunGrid(points, options, stats, dop)
                          : RunAllPairs(points, options, stats);
        case SgbAnyAlgorithm::kIndexed:
          return RunGrid(points, options, stats, parallel ? dop : 1);
        case SgbAnyAlgorithm::kPointsIndex:
          return RunPointsIndex(points, options, stats);
      }
      return Status::Internal("SGB-Any: unknown algorithm");
    } catch (const QueryAbort& abort) {
      // Governance aborts from the serial loops or (rethrown) ParallelFor
      // workers surface as the core's Status.
      return abort.status();
    }
  }();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("sgb.any.invocations").Add(1);
  registry.GetCounter("sgb.any.points").Add(points.size());
  registry.GetCounter("sgb.any.distance_computations")
      .Add(stats->distance_computations);
  registry.GetCounter("sgb.any.index_window_queries")
      .Add(stats->index_window_queries);
  registry.GetCounter("sgb.any.union_operations")
      .Add(stats->union_operations);
  registry.GetCounter("sgb.any.group_merges").Add(stats->group_merges);
  geom::PublishKernelCounts(stats->kernel_calls, stats->kernel_pairs);
  if (parallel) {
    registry.GetCounter("sgb.any.parallel_runs").Add(1);
    registry.GetCounter("sgb.any.parallel_partitions")
        .Add(stats->parallel_partitions);
  }
  return result;
}

}  // namespace sgb::core
