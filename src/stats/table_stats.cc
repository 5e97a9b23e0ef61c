#include "stats/table_stats.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "engine/table.h"

namespace sgb::stats {

uint64_t MixHash(uint64_t h) {
  // splitmix64 finalizer.
  h += 0x9e3779b97f4a7c15ULL;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

void DistinctSketch::Add(uint64_t raw_hash) {
  const uint64_t h = MixHash(raw_hash);
  auto it = std::lower_bound(hashes_.begin(), hashes_.end(), h);
  if (it != hashes_.end() && *it == h) return;
  if (hashes_.size() >= kCapacity) {
    if (it == hashes_.end()) return;  // larger than every kept minimum
    hashes_.pop_back();
  }
  hashes_.insert(std::lower_bound(hashes_.begin(), hashes_.end(), h), h);
}

uint64_t DistinctSketch::Estimate() const {
  if (hashes_.size() < kCapacity) return hashes_.size();
  // KMV: with k minima, NDV ≈ (k - 1) / normalized kth minimum.
  const double kth = static_cast<double>(hashes_.back()) /
                     static_cast<double>(std::numeric_limits<uint64_t>::max());
  if (kth <= 0.0) return hashes_.size();
  const double est = (static_cast<double>(kCapacity) - 1.0) / kth;
  return static_cast<uint64_t>(est);
}

void GridHistogram::SetBounds(double min_x, double max_x, double min_y,
                              double max_y) {
  min_x_ = min_x;
  max_x_ = max_x;
  min_y_ = min_y;
  max_y_ = max_y;
  cells_x_ = max_x > min_x ? kGrid : 1;
  cells_y_ = max_y > min_y ? kGrid : 1;
  cell_w_ = max_x > min_x ? (max_x - min_x) / cells_x_ : 0.0;
  cell_h_ = max_y > min_y ? (max_y - min_y) / cells_y_ : 0.0;
  total_ = 0;
  counts_.assign(static_cast<size_t>(cells_x_) * cells_y_, 0);
}

void GridHistogram::Add(double x, double y) {
  if (!std::isfinite(x) || !std::isfinite(y)) return;
  int cx = 0;
  int cy = 0;
  if (cell_w_ > 0) {
    cx = static_cast<int>((x - min_x_) / cell_w_);
    cx = std::clamp(cx, 0, cells_x_ - 1);
  }
  if (cell_h_ > 0) {
    cy = static_cast<int>((y - min_y_) / cell_h_);
    cy = std::clamp(cy, 0, cells_y_ - 1);
  }
  ++counts_[static_cast<size_t>(cy) * cells_x_ + cx];
  ++total_;
}

size_t GridHistogram::OccupiedCells() const {
  size_t occupied = 0;
  for (uint64_t c : counts_) occupied += c > 0 ? 1 : 0;
  return occupied;
}

namespace {

/// Measure of the ε-ball under a metric, in d effective dimensions (axes
/// with non-zero extent). 1-D balls are intervals of length 2ε for every
/// metric; 0-D means all points coincide.
double BallMeasure(double epsilon, const std::string& metric, int dims) {
  if (dims <= 0) return 1.0;
  if (dims == 1) return 2.0 * epsilon;
  if (metric == "l1" || metric == "manhattan") return 2.0 * epsilon * epsilon;
  if (metric == "linf" || metric == "chebyshev" || metric == "max") {
    return 4.0 * epsilon * epsilon;
  }
  return 3.14159265358979323846 * epsilon * epsilon;  // l2 / euclidean
}

/// Overlap length of [lo1, hi1] and [lo2, hi2].
double Overlap(double lo1, double hi1, double lo2, double hi2) {
  return std::max(0.0, std::min(hi1, hi2) - std::max(lo1, lo2));
}

}  // namespace

double GridHistogram::EstimatePairs(double epsilon, const std::string& metric,
                                    double scale) const {
  const double n = static_cast<double>(total_) * scale;
  if (n <= 1.0 || epsilon <= 0.0) return 0.0;
  const int dims = (cell_w_ > 0 ? 1 : 0) + (cell_h_ > 0 ? 1 : 0);
  if (dims == 0) return n * (n - 1.0) / 2.0;  // every point coincides

  const double ball = BallMeasure(epsilon, metric, dims);
  double pairs = 0.0;
  for (int iy = 0; iy < cells_y_; ++iy) {
    for (int ix = 0; ix < cells_x_; ++ix) {
      const double ni =
          static_cast<double>(counts_[static_cast<size_t>(iy) * cells_x_ + ix]) *
          scale;
      if (ni <= 0.0) continue;
      // ε-expanded neighborhood rectangle of this cell.
      const double nx_lo = min_x_ + ix * cell_w_ - epsilon;
      const double nx_hi = min_x_ + (ix + 1) * cell_w_ + epsilon;
      const double ny_lo = min_y_ + iy * cell_h_ - epsilon;
      const double ny_hi = min_y_ + (iy + 1) * cell_h_ + epsilon;
      double measure = 1.0;
      if (cell_w_ > 0) measure *= nx_hi - nx_lo;
      if (cell_h_ > 0) measure *= ny_hi - ny_lo;

      // Mass inside the neighborhood: cells weighted by overlap fraction.
      const int jx_lo =
          cell_w_ > 0
              ? std::max(0, static_cast<int>((nx_lo - min_x_) / cell_w_))
              : 0;
      const int jx_hi =
          cell_w_ > 0
              ? std::min(cells_x_ - 1, static_cast<int>((nx_hi - min_x_) / cell_w_))
              : 0;
      const int jy_lo =
          cell_h_ > 0
              ? std::max(0, static_cast<int>((ny_lo - min_y_) / cell_h_))
              : 0;
      const int jy_hi =
          cell_h_ > 0
              ? std::min(cells_y_ - 1, static_cast<int>((ny_hi - min_y_) / cell_h_))
              : 0;
      double mass = 0.0;
      for (int jy = jy_lo; jy <= jy_hi; ++jy) {
        double fy = 1.0;
        if (cell_h_ > 0) {
          const double lo = min_y_ + jy * cell_h_;
          fy = Overlap(lo, lo + cell_h_, ny_lo, ny_hi) / cell_h_;
        }
        for (int jx = jx_lo; jx <= jx_hi; ++jx) {
          double fx = 1.0;
          if (cell_w_ > 0) {
            const double lo = min_x_ + jx * cell_w_;
            fx = Overlap(lo, lo + cell_w_, nx_lo, nx_hi) / cell_w_;
          }
          mass +=
              static_cast<double>(
                  counts_[static_cast<size_t>(jy) * cells_x_ + jx]) *
              scale * fx * fy;
        }
      }
      if (measure <= 0.0) continue;
      // Average ε-neighbors of a point in this cell, self excluded.
      double k = std::max(0.0, (mass - 1.0)) / measure * ball;
      k = std::min(k, n - 1.0);
      pairs += ni * k / 2.0;
    }
  }
  return pairs;
}

double TableStats::EstimateEpsilonPairs(double epsilon,
                                        const std::string& metric,
                                        double selectivity) const {
  const double n = static_cast<double>(row_count) * selectivity;
  if (n <= 1.0) return 0.0;
  if (!grid.has_value() || grid->total() == 0) return n * (n - 1.0) / 2.0;
  const double scale = ScaleFactor() * selectivity;
  double pairs = grid->EstimatePairs(epsilon, metric, scale);
  // Exact-duplicate pairs (distance 0): with d distinct points and uniform
  // multiplicity m = n₀/d, duplicate pairs = d * C(m, 2); thinning by s
  // scales them by s², giving n²/(2d) - s·n/2 in live-row terms.
  if (point_ndv > 0) {
    const double d = static_cast<double>(point_ndv) * ScaleFactor();
    pairs += std::max(0.0, n * n / (2.0 * d) - selectivity * n / 2.0);
  }
  return std::min(pairs, n * (n - 1.0) / 2.0);
}

double EstimateGroupsFromPairs(double n, double pairs, bool transitive) {
  if (n <= 0.0) return 0.0;
  const double avg_neighbors = 2.0 * pairs / n;
  const double groups =
      transitive
          ? n * std::exp(-std::max(0.6 * avg_neighbors, avg_neighbors - 1.0))
          : n / (1.0 + avg_neighbors / 4.0);
  return std::clamp(groups, 1.0, n);
}

double TableStats::EstimateEpsilonGroups(double epsilon,
                                         const std::string& metric,
                                         double selectivity,
                                         bool transitive) const {
  const double n = static_cast<double>(row_count) * selectivity;
  if (n <= 0.0) return 0.0;
  if (!grid.has_value() || grid->total() == 0) {
    return std::max(1.0, std::sqrt(n));
  }
  return EstimateGroupsFromPairs(
      n, EstimateEpsilonPairs(epsilon, metric, selectivity), transitive);
}

const ColumnStats* TableStats::FindColumn(const std::string& name) const {
  for (const ColumnStats& c : columns) {
    if (c.name == name) return &c;
  }
  return nullptr;
}

namespace {

bool IsNumeric(const engine::CellRef& v) {
  return v.type == engine::DataType::kInt64 ||
         v.type == engine::DataType::kDouble;
}

/// Small, so ANALYZE's rows in flight stay far below any sensible budget.
constexpr size_t kAnalyzeBatchRows = 64;

/// One governed pass over the pin: `fn` sees every batch in pinned order.
/// Cursor batches carry no selection, so row i is cell i of each column.
template <typename Fn>
void ForEachBatch(engine::TableCursor& cursor, QueryContext* ctx, Fn&& fn) {
  cursor.Restart();
  engine::RowBatch batch(kAnalyzeBatchRows);
  while (true) {
    ThrowIfAborted(ctx);
    batch.Clear();
    if (!cursor.Next(&batch)) return;
    const ScopedMemoryCharge charge(ctx, batch.bytes());
    fn(batch);
  }
}

}  // namespace

TableStats ComputeTableStats(const std::string& name,
                             const engine::TableSource& source,
                             QueryContext* ctx) {
  auto pinned = source.Pin();
  if (!pinned.ok()) throw QueryAbort(pinned.status());
  engine::TableCursor& cursor = *pinned.value();

  TableStats stats;
  stats.table = name;
  stats.row_count = cursor.rows();
  stats.analyzed_rows = cursor.rows();

  const engine::Schema& schema = source.schema();
  stats.columns.resize(schema.size());
  std::vector<DistinctSketch> sketches(schema.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    stats.columns[i].name = schema.column(i).name;
  }

  uint64_t bytes = 0;
  ForEachBatch(cursor, ctx, [&](const engine::RowBatch& batch) {
    const size_t rows = batch.num_rows();
    bytes += rows * (sizeof(engine::Row) +
                     batch.num_columns() * sizeof(engine::Value));
    for (size_t i = 0; i < batch.num_columns() && i < schema.size(); ++i) {
      const engine::ColumnVector& column = batch.column(i);
      ColumnStats& col = stats.columns[i];
      for (size_t r = 0; r < rows; ++r) {
        const engine::CellRef v = column.CellAt(r);
        if (v.is_null()) {
          ++col.null_count;
          continue;
        }
        sketches[i].Add(v.Hash());
        if (v.type == engine::DataType::kString) {
          bytes += v.s->size();
          continue;
        }
        const double d = v.ToDouble();
        if (!std::isfinite(d)) continue;
        if (!col.has_range) {
          col.has_range = true;
          col.min = d;
          col.max = d;
        } else {
          col.min = std::min(col.min, d);
          col.max = std::max(col.max, d);
        }
      }
    }
  });
  for (size_t i = 0; i < schema.size(); ++i) {
    stats.columns[i].ndv = sketches[i].Estimate();
  }
  stats.avg_row_bytes =
      cursor.rows() > 0 ? bytes / cursor.rows() : sizeof(engine::Row);

  // Pick the grid axes: the first two columns that hold numeric data.
  int gx = -1;
  int gy = -1;
  for (size_t i = 0; i < stats.columns.size(); ++i) {
    if (!stats.columns[i].has_range) continue;
    if (gx < 0) {
      gx = static_cast<int>(i);
    } else if (gy < 0) {
      gy = static_cast<int>(i);
      break;
    }
  }
  if (gx >= 0 && gy >= 0) {
    stats.grid_col_x = gx;
    stats.grid_col_y = gy;
    GridHistogram grid;
    grid.SetBounds(stats.columns[gx].min, stats.columns[gx].max,
                   stats.columns[gy].min, stats.columns[gy].max);
    DistinctSketch points;
    ForEachBatch(cursor, ctx, [&](const engine::RowBatch& batch) {
      const engine::ColumnVector& xs = batch.column(static_cast<size_t>(gx));
      const engine::ColumnVector& ys = batch.column(static_cast<size_t>(gy));
      for (size_t r = 0; r < batch.num_rows(); ++r) {
        const engine::CellRef vx = xs.CellAt(r);
        const engine::CellRef vy = ys.CellAt(r);
        if (!IsNumeric(vx) || !IsNumeric(vy)) continue;
        grid.Add(vx.ToDouble(), vy.ToDouble());
        points.Add(MixHash(vx.Hash()) * 31 + vy.Hash());
      }
    });
    stats.point_ndv = points.Estimate();
    stats.grid = std::move(grid);
  }
  return stats;
}

}  // namespace sgb::stats
