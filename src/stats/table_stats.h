#ifndef SGB_STATS_TABLE_STATS_H_
#define SGB_STATS_TABLE_STATS_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "engine/table_source.h"

namespace sgb::stats {

/// Per-column summary collected by ANALYZE: null count, numeric min/max,
/// and a distinct-count estimate from a bounded KMV (k-minimum-values)
/// hash sketch. Strings participate in NDV and null counts but have no
/// numeric range.
struct ColumnStats {
  std::string name;
  uint64_t null_count = 0;
  bool has_range = false;  ///< min/max hold at least one finite numeric
  double min = 0.0;
  double max = 0.0;
  uint64_t ndv = 0;  ///< estimated distinct non-null values
};

/// Bounded distinct-count sketch: keeps the k smallest mixed 64-bit hashes
/// seen. Below capacity the estimate is exact; at capacity it is the
/// classic KMV estimator (k-1) / kth-minimum-normalized.
class DistinctSketch {
 public:
  static constexpr size_t kCapacity = 1024;

  void Add(uint64_t raw_hash);
  uint64_t Estimate() const;

 private:
  std::vector<uint64_t> hashes_;  ///< sorted ascending, distinct, <= kCapacity
};

/// 64-bit finalizer (splitmix64) applied to engine hashes before sketching;
/// std::hash on integers is near-identity on common stdlibs, which would
/// wreck order statistics.
uint64_t MixHash(uint64_t h);

/// Equi-width 2-D grid density histogram over the table's first two numeric
/// columns (the "point" columns of the check-in workloads). Drives
/// ε-selectivity estimation: expected ε-close pair counts and expected
/// similarity-group counts, the inputs to SGB tier selection.
class GridHistogram {
 public:
  static constexpr int kGrid = 24;  ///< kGrid x kGrid cells

  /// Fixes the bounding box. Degenerate extents (max == min) collapse that
  /// axis to a single cell and estimation treats the data as 1-D (or 0-D).
  void SetBounds(double min_x, double max_x, double min_y, double max_y);
  void Add(double x, double y);

  uint64_t total() const { return total_; }
  size_t OccupiedCells() const;

  double min_x() const { return min_x_; }
  double max_x() const { return max_x_; }
  double min_y() const { return min_y_; }
  double max_y() const { return max_y_; }
  const std::vector<uint64_t>& counts() const { return counts_; }

  /// Expected number of unordered point pairs within `epsilon` under the
  /// given metric ("l2", "l1", or "linf"), assuming uniform density within
  /// each cell. `scale` multiplies every cell count (incremental row-count
  /// refresh scales densities without re-scanning).
  double EstimatePairs(double epsilon, const std::string& metric,
                       double scale = 1.0) const;

 private:
  int cells_x_ = kGrid;
  int cells_y_ = kGrid;
  double min_x_ = 0, max_x_ = 0, min_y_ = 0, max_y_ = 0;
  double cell_w_ = 0, cell_h_ = 0;  ///< 0 on a degenerate axis
  uint64_t total_ = 0;
  std::vector<uint64_t> counts_;
};

/// Everything ANALYZE knows about one table. Stored in the Catalog (shared,
/// immutable snapshots — refreshes swap in a new copy) and exposed through
/// the system.stats virtual table.
struct TableStats {
  std::string table;
  uint64_t row_count = 0;      ///< live rows (refreshed on INSERT deltas)
  uint64_t analyzed_rows = 0;  ///< rows scanned by the last ANALYZE
  uint64_t avg_row_bytes = 0;  ///< mean materialized row footprint
  std::vector<ColumnStats> columns;

  /// Histogram over columns grid_col_x/grid_col_y (the first two numeric
  /// columns); absent when the table has fewer than two numeric columns.
  std::optional<GridHistogram> grid;
  int grid_col_x = -1;
  int grid_col_y = -1;

  /// Distinct (x, y) point count over the grid columns. Separates true
  /// duplicates (distance 0, always ε-close) from the smooth density the
  /// histogram models — lattice/check-in data repeats exact coordinates.
  uint64_t point_ndv = 0;

  /// row_count / analyzed_rows: how much the table grew since ANALYZE.
  double ScaleFactor() const {
    if (analyzed_rows == 0) return 1.0;
    return static_cast<double>(row_count) / static_cast<double>(analyzed_rows);
  }

  /// ε-pair / ε-group estimates scaled to the live row count, further
  /// thinned by `selectivity` (the fraction of rows a WHERE below the SGB
  /// keeps — modeled as uniform sampling, so pair density scales with its
  /// square). Fall back to pessimistic closed forms when no histogram
  /// exists. `transitive` picks the group model: false = SGB-All (groups
  /// are ε-diameter-bounded, so they pack like ε/2-balls), true = SGB-Any
  /// (groups are connected components, which collapse exponentially with
  /// the average neighbor count).
  double EstimateEpsilonPairs(double epsilon, const std::string& metric,
                              double selectivity = 1.0) const;
  double EstimateEpsilonGroups(double epsilon, const std::string& metric,
                               double selectivity = 1.0,
                               bool transitive = false) const;

  const ColumnStats* FindColumn(const std::string& name) const;
};

using TableStatsPtr = std::shared_ptr<const TableStats>;

/// Expected group count for n points with `pairs` ε-close pairs, i.e. an
/// average of k̄ = 2·pairs/n neighbors per point. Both forms are calibrated
/// against measured group counts on uniform point sets (docs/PLANNER.md
/// "Calibration"):
///  * SGB-All (`transitive` false): members pairwise ε-close bounds a
///    group's diameter by ε, so groups pack like balls of radius ε/2
///    holding ~k̄/4 points each: n / (1 + k̄/4).
///  * SGB-Any (`transitive` true): connected components of the ε-graph,
///    n·exp(−max(0.6·k̄, k̄−1)) — the exponent is sub-linear while small
///    clusters merge, then linear once the giant component absorbs them.
double EstimateGroupsFromPairs(double n, double pairs, bool transitive);

/// Full-scan statistics build — the ANALYZE implementation. Pins `source`
/// once and makes two passes over the pin: ranges, null counts and sketches,
/// then the grid histogram. The batch in flight is charged to `ctx`, checked
/// per batch; a breach, a failed pin, or an I/O error throws QueryAbort.
TableStats ComputeTableStats(const std::string& name,
                             const engine::TableSource& source,
                             QueryContext* ctx = nullptr);

}  // namespace sgb::stats

#endif  // SGB_STATS_TABLE_STATS_H_
