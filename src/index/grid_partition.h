#ifndef SGB_INDEX_GRID_PARTITION_H_
#define SGB_INDEX_GRID_PARTITION_H_

#include <algorithm>
#include <compare>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/kernels.h"
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

/// The sorted clique-cell layout of one point set: the ε-neighbour
/// substrate of SGB-Any (at every dop), of SGB-All's independent-component
/// decomposition, and of the streaming close replay
/// (core/arrival_replay.h).
///
/// Every point with finite coordinates gets a grid cell of width
/// ε/√2·(1−δ) under L2 and ε·(1−δ) under L∞ (δ = 2⁻²⁰), so a cell's
/// diagonal, resp. side, is shorter than ε. The point indices are sorted by
/// cell into one contiguous SoA; a cell is a [begin, end) range of it. A
/// cell whose points' bounding box is itself within ε (checked with the
/// predicate's own arithmetic, so the check is exact) is a clique: it is
/// one union-find node and costs no distance computation. A clique cell
/// keeps its points in input order; any other cell (clamped,
/// huge-magnitude or ε = 0 cells) keeps them in x order. The points with a
/// non-finite coordinate follow the last cell, in input order: the
/// kernel's NaN and infinity semantics follow no cell geometry. Points that
/// match lie at most kReach cells apart on each axis.
///
/// Building fires the "index.grid.rehash" fault site where the cell array
/// grows, as a QueryAbort exception.
class CliqueGrid {
 public:
  /// Positions, input indices and forest nodes are 32-bit: the grid's
  /// arrays stay small enough to charge against tight query budgets.
  using Index = uint32_t;

  /// Neighbour cells scanned on each axis. The width guarantees that
  /// points three cells apart (at least 2w(1 − 2⁻²²) apart) never match.
  static constexpr int32_t kReach = 2;

  struct CellKey {
    int32_t cx;
    int32_t cy;
    friend auto operator<=>(const CellKey&, const CellKey&) = default;
  };

  struct Cell {
    CellKey key;
    Index begin = 0;  ///< range [begin, end) of the sorted SoA
    Index end = 0;
    Index node = 0;   ///< first union-find node (the only one if a clique)
    bool clique = false;
    double lo_x = 0, hi_x = 0, lo_y = 0, hi_y = 0;  ///< points' bounding box
  };

  /// Requires radius >= 0 and fewer than 2³² points.
  CliqueGrid(std::span<const geom::Point> points, geom::Metric metric,
             double radius);

  size_t size() const { return xs_.size(); }
  size_t num_cells() const { return cells_.size(); }
  size_t num_nodes() const { return num_nodes_; }
  /// SoA positions [finite_points(), size()) hold the non-finite points.
  size_t finite_points() const { return finite_points_; }
  const Cell& cell(size_t k) const { return cells_[k]; }
  const double* xs() const { return xs_.data(); }
  const double* ys() const { return ys_.data(); }
  size_t input_of(size_t pos) const { return input_of_[pos]; }
  size_t node_of_input(size_t i) const { return node_of_input_[i]; }
  size_t NodeAt(size_t pos) const { return node_of_input_[input_of_[pos]]; }
  const geom::BlockSimilarity& similarity() const { return sim_; }

  /// Whether a pair with these axis distances matches, in the predicate's
  /// own arithmetic.
  bool Within(double dx, double dy) const {
    return sim_.scalar().metric() == geom::Metric::kL2
               ? dx * dx + dy * dy <= sim_.scalar().epsilon_sq()
               : std::max(dx, dy) <= sim_.scalar().epsilon();
  }

  /// Whether the bounding boxes are farther apart than the predicate
  /// accepts. Rounding is monotone, so then no cross pair matches either.
  bool Apart(const Cell& a, const Cell& b) const {
    const double gx = std::max({0.0, b.lo_x - a.hi_x, a.lo_x - b.hi_x});
    const double gy = std::max({0.0, b.lo_y - a.hi_y, a.lo_y - b.hi_y});
    return !Within(gx, gy);
  }

  /// The cells that may hold a point matching one of cell k's: cell k
  /// itself, then the cells within kReach cells on both axes whose
  /// bounding box is not Apart from cell k's. In CSR form: cell k's
  /// neighbours are `cells[offsets[k] .. offsets[k + 1])`.
  void NeighbourCells(std::vector<Index>* offsets,
                      std::vector<Index>* cells) const;

 private:
  void Build(std::span<const geom::Point> points);

  geom::BlockSimilarity sim_;
  double width_;
  std::vector<Cell> cells_;
  Index num_nodes_ = 0;
  Index finite_points_ = 0;
  // Sorted SoA: finite points cell by cell, then the non-finite ones.
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<Index> input_of_;       ///< SoA position -> input position
  std::vector<Index> node_of_input_;  ///< input position -> forest node
};

/// The connected components of the ε-neighbour graph over a CliqueGrid.
/// Each cell looks at its forward neighbours within kReach cells: a pair of
/// cells whose bounding boxes are more than ε apart, or that is already
/// connected, is skipped; otherwise the block kernels scan one cell against
/// the other and the first match unions the two cells. Cells that are not
/// cliques are scanned pairwise in x order, and points with a non-finite
/// coordinate are matched against every other point, so the components are
/// exactly those of the pairwise kernel scan (SGB-Any's All-Pairs tier) for
/// every input. docs/PARALLELISM.md has the argument.
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
/// ParallelFor). The "index.grid.build" fault site fires at entry, and
/// the grid build fires "index.grid.rehash".
GridComponents SimilarityComponents(
    std::span<const geom::Point> points, geom::Metric metric, double radius,
    size_t dop, ThreadPool& pool,
    std::vector<GridPartitionStats>* worker_stats,
    QueryContext* ctx = nullptr);

}  // namespace sgb::index

#endif  // SGB_INDEX_GRID_PARTITION_H_
