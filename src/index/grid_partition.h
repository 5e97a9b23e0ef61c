#ifndef SGB_INDEX_GRID_PARTITION_H_
#define SGB_INDEX_GRID_PARTITION_H_

#include <cstddef>
#include <span>
#include <vector>

#include "geom/point.h"

namespace sgb {
class ThreadPool;
class QueryContext;
}

namespace sgb::index {

/// Per-worker-slot counters from one SimilarityComponents run.
struct GridPartitionStats {
  size_t points = 0;                 ///< points scanned by this slot
  size_t cells = 0;                  ///< grid cells owned by this slot
  size_t distance_computations = 0;  ///< similarity predicate evaluations
  size_t union_operations = 0;       ///< similar pairs unioned in-partition
  size_t boundary_edges = 0;         ///< similar pairs deferred to the merge
  size_t kernel_calls = 0;           ///< block-kernel calls by this slot
  size_t kernel_pairs = 0;           ///< point pairs those calls evaluated
};

/// Connected components of an ε-neighbour graph, labeled 0, 1, 2, ... in
/// order of first appearance in the input.
struct GridComponents {
  std::vector<size_t> component_of;  ///< one label per input point
  size_t num_components = 0;
};

/// The ε-neighbour substrate of SGB-Any (at every dop) and of SGB-All's
/// independent-component decomposition: a sorted clique-cell grid.
///
/// Every point with finite coordinates gets a grid cell of width
/// ε/√2·(1−δ) under L2 and ε·(1−δ) under L∞ (δ = 2⁻²⁰), so a cell's
/// diagonal, resp. side, is shorter than ε. The point indices are sorted by
/// cell into one contiguous SoA; a cell is a [begin, end) range of it. A
/// cell whose points' bounding box is itself within ε (checked with the
/// predicate's own arithmetic, so the check is exact) is a clique: it is
/// one union-find node and costs no distance computation. Each cell then
/// looks at its forward neighbours within two cells (the reach the width
/// implies): a pair of cells whose bounding boxes are more than ε apart, or
/// that is already connected, is skipped; otherwise the block kernels scan
/// one cell against the other and the first match unions the two cells.
/// Cells that are not cliques (clamped, huge-magnitude or ε = 0 cells) are
/// scanned pairwise in x order, and points with a non-finite coordinate
/// are matched against every other point, so the components are exactly
/// those of the pairwise kernel scan (SGB-Any's All-Pairs tier) for every
/// input. docs/PARALLELISM.md has the argument.
///
/// At dop > 1 the sorted cells are split into contiguous ranges balanced
/// by point count; a worker finds and unions only cells of its own range,
/// and similar cell pairs across a seam become boundary edges merged
/// sequentially at the end. At dop 1 everything runs on the calling
/// thread. The labels are the same at every dop.
///
/// `worker_stats`, when non-null, is resized to `dop` and filled with the
/// per-slot breakdown (the EXPLAIN ANALYZE per-partition counters).
/// Requires radius >= 0; an infinite radius (SGB-All's 3ε overflowing)
/// puts every finite point in one clique cell.
///
/// `ctx`, when non-null, is the governing query: the grid build charges its
/// arrays against the context's memory budget, the scan checks for
/// cancellation/deadline per cell, and a governance failure propagates as a
/// QueryAbort exception out of this call (rethrown from workers by
/// ParallelFor). The "index.grid.build" fault site fires at entry and
/// "index.grid.rehash" where the cell array grows.
GridComponents SimilarityComponents(
    std::span<const geom::Point> points, geom::Metric metric, double radius,
    size_t dop, ThreadPool& pool,
    std::vector<GridPartitionStats>* worker_stats,
    QueryContext* ctx = nullptr);

}  // namespace sgb::index

#endif  // SGB_INDEX_GRID_PARTITION_H_
