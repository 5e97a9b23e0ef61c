#include "index/grid_partition.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/fault_injection.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "geom/kernels.h"
#include "index/union_find.h"
#include "obs/trace.h"

namespace sgb::index {

// Fires at grid-build entry, before any cell structures are allocated.
static FaultSite g_grid_build_fault("index.grid.build",
                                    Status::Code::kInternal);

// Fires when the sorted points open a new cell — the growth point of the
// cell array.
static FaultSite g_grid_rehash_fault("index.grid.rehash",
                                     Status::Code::kInternal);

namespace {

using geom::Metric;
using geom::Point;

/// Clamp bound for cell coordinates: coordinates beyond it collapse into
/// one border cell per side (a non-clique cell: sweeps, never missed
/// pairs); below it floor(x/w) is off by at most 2⁻²³ of a cell, and the
/// neighbour arithmetic stays inside int32_t.
constexpr int32_t kMaxCell = int32_t{1} << 30;

/// δ: the cell width stays this factor below the clique bound, so the
/// rounding of floor(x/w) cannot push a cell's points more than ε apart.
constexpr double kWidthMargin = 1.0 - 0x1p-20;

/// Neighbour cells scanned on each axis. The width guarantees that points
/// three cells apart (at least 2w(1 − 2⁻²²) apart) never match.
constexpr int32_t kReach = 2;

/// Positions, input indices and forest nodes are 32-bit: the grid's
/// arrays stay small enough to charge against tight query budgets.
using Index = uint32_t;

struct CellKey {
  int32_t cx;
  int32_t cy;
  friend auto operator<=>(const CellKey&, const CellKey&) = default;
};

/// Sort entry: the cell key packed so that unsigned order is (cx, cy)
/// order.
struct Entry {
  uint64_t key;
  Index index;  ///< input position
};

/// Biases a coordinate in [-kMaxCell, kMaxCell] to [0, 2 kMaxCell]; the
/// arithmetic is 64-bit because 2 kMaxCell does not fit int32_t.
uint64_t Bias(int32_t c) {
  return static_cast<uint64_t>(int64_t{c} + kMaxCell);
}
int32_t Unbias(uint64_t b) {
  return static_cast<int32_t>(static_cast<int64_t>(b) - kMaxCell);
}

uint64_t PackKey(int32_t cx, int32_t cy) {
  return (Bias(cx) << 32) | Bias(cy);
}

CellKey UnpackKey(uint64_t key) {
  return CellKey{Unbias(key >> 32), Unbias(key & 0xffffffffu)};
}

/// Stable LSD radix sort by key, one byte per pass; a pass is skipped when
/// every key has the same byte there. Equal keys keep their input order.
void SortByKey(std::vector<Entry>& entries) {
  const size_t n = entries.size();
  if (n < 2) return;
  std::array<std::array<Index, 256>, 8> counts{};
  for (const Entry& e : entries) {
    for (int d = 0; d < 8; ++d) ++counts[d][(e.key >> (8 * d)) & 0xff];
  }
  std::vector<Entry> buffer(n);
  for (int d = 0; d < 8; ++d) {
    std::array<Index, 256>& count = counts[d];
    if (count[(entries[0].key >> (8 * d)) & 0xff] == n) continue;
    Index offset = 0;
    for (Index& c : count) offset += std::exchange(c, offset);
    for (const Entry& e : entries) {
      buffer[count[(e.key >> (8 * d)) & 0xff]++] = e;
    }
    entries.swap(buffer);
  }
}

struct Cell {
  CellKey key;
  Index begin = 0;  ///< range [begin, end) of the sorted SoA
  Index end = 0;
  Index node = 0;   ///< first union-find node (the only one if a clique)
  bool clique = false;
  double lo_x = 0, hi_x = 0, lo_y = 0, hi_y = 0;  ///< points' bounding box
};

struct Edge {
  size_t a;
  size_t b;
};

/// Upper bound on |a − b| along one axis over every pair the similarity
/// kernel accepts, with headroom for the kernel's rounding (and, under L2,
/// for squares that underflow to zero). Infinite when ε² overflows: the L2
/// kernel then accepts every pair of finite points.
double AxisLimit(const geom::SimilarityPredicate& sim) {
  constexpr double kSlack = 1.0 + 0x1p-40;
  if (sim.metric() == Metric::kLInf) return sim.epsilon() * kSlack;
  return std::sqrt(sim.epsilon_sq() * kSlack + 0x1p-1074) * kSlack;
}

/// ε/√2·(1−δ) under L2, ε·(1−δ) under L∞, widened where the kernel's
/// rounding accepts pairs farther apart than ε (tiny ε under L2): the reach
/// of two cells needs 2w(1 − 2⁻²²) above the limit, and 0.6 leaves room.
double CellWidth(const geom::SimilarityPredicate& sim) {
  double width = sim.epsilon() * kWidthMargin;
  if (sim.metric() == Metric::kL2) width /= std::sqrt(2.0);
  width = std::max(width, 0.6 * AxisLimit(sim));
  // ε = 0 under L∞ matches equal coordinates only; any width is exact.
  return width > 0.0 ? width : 1.0;
}

/// Requires a finite v and a positive width.
int32_t CellCoord(double v, double width) {
  const double c = std::floor(v / width);
  if (c >= static_cast<double>(kMaxCell)) return kMaxCell;
  if (c <= static_cast<double>(-kMaxCell)) return -kMaxCell;
  return static_cast<int32_t>(c);
}

/// The sorted clique-cell grid over one input and the scan that unions it.
class CliqueGrid {
 public:
  CliqueGrid(std::span<const Point> points, Metric metric, double radius)
      : sim_(metric, radius), width_(CellWidth(sim_.scalar())) {
    Build(points);
  }

  size_t num_cells() const { return cells_.size(); }
  size_t num_nodes() const { return num_nodes_; }
  size_t finite_points() const { return finite_points_; }
  const Cell& cell(size_t k) const { return cells_[k]; }
  size_t node_of_input(size_t i) const { return node_of_input_[i]; }

  /// Scans cells [begin, end): non-clique cells internally, then every
  /// forward neighbour within reach. Pairs whose other cell lies at or past
  /// `end` become boundary edges; everything else is unioned into
  /// `forest`, touching only nodes of the cells in [begin, end).
  void ScanRange(size_t begin, size_t end, UnionFind& forest,
                 std::vector<Edge>& edges, GridPartitionStats& stats,
                 QueryContext* ctx) const {
    geom::BlockSimilarity sim = sim_;  // this scan's own kernel counts
    std::vector<uint64_t> mask;        // kernel scratch
    auto record = [&](size_t u, size_t v, bool local) {
      if (local) {
        ++stats.union_operations;
        forest.Union(u, v);
      } else {
        ++stats.boundary_edges;
        edges.push_back(Edge{u, v});
      }
    };
    // Monotone cursors into columns cx+1 .. cx+kReach.
    size_t cursor[kReach];
    std::fill(cursor, cursor + kReach, begin + 1);
    for (size_t k = begin; k < end; ++k) {
      ThrowIfAborted(ctx);  // per cell; ParallelFor rethrows on the caller
      const Cell& c = cells_[k];
      ++stats.cells;
      stats.points += c.end - c.begin;
      if (!c.clique) ScanWithin(c, sim, mask, stats, record);
      auto link_column = [&](size_t k2, int32_t cx) {
        for (; k2 < cells_.size() && cells_[k2].key.cx == cx &&
               cells_[k2].key.cy <= c.key.cy + kReach;
             ++k2) {
          Link(c, cells_[k2], k2 < end, forest, sim, mask, stats, record);
        }
      };
      link_column(k + 1, c.key.cx);
      for (int32_t d = 1; d <= kReach; ++d) {
        const CellKey first{c.key.cx + d, c.key.cy - kReach};
        size_t& cur = cursor[d - 1];
        while (cur < cells_.size() && cells_[cur].key < first) ++cur;
        link_column(cur, c.key.cx + d);
      }
    }
    CountKernels(sim, stats);
  }

  /// Matches every point with a non-finite coordinate against all points
  /// before it (finite points first, then earlier non-finite ones): the
  /// kernel's NaN and infinity semantics follow no cell geometry.
  void ScanNonFinite(UnionFind& forest, GridPartitionStats& stats,
                     QueryContext* ctx) const {
    geom::BlockSimilarity sim = sim_;
    std::vector<uint64_t> mask(geom::KernelMaskWords(xs_.size()));
    for (size_t s = finite_points_; s < xs_.size(); ++s) {
      ThrowIfAborted(ctx);
      ++stats.points;
      stats.distance_computations += s;
      sim.Match(Point{xs_[s], ys_[s]}, xs_.data(), ys_.data(), s,
                mask.data());
      geom::ForEachSetBit(mask.data(), s, [&](size_t q) {
        ++stats.union_operations;
        forest.Union(NodeAt(s), NodeAt(q));
      });
    }
    CountKernels(sim, stats);
  }

 private:
  static void CountKernels(const geom::BlockSimilarity& sim,
                           GridPartitionStats& stats) {
    stats.kernel_calls += sim.calls();
    stats.kernel_pairs += sim.pairs();
  }

  size_t NodeAt(size_t pos) const { return node_of_input_[input_of_[pos]]; }

  bool Within(double dx, double dy) const {
    return sim_.scalar().metric() == Metric::kL2
               ? dx * dx + dy * dy <= sim_.scalar().epsilon_sq()
               : std::max(dx, dy) <= sim_.scalar().epsilon();
  }

  void Build(std::span<const Point> points) {
    const Index n = static_cast<Index>(points.size());
    std::vector<Entry> entries;
    entries.reserve(n);
    std::vector<Index> non_finite;
    for (Index i = 0; i < n; ++i) {
      const Point& p = points[i];
      if (std::isfinite(p.x) && std::isfinite(p.y)) {
        entries.push_back(Entry{
            PackKey(CellCoord(p.x, width_), CellCoord(p.y, width_)), i});
      } else {
        non_finite.push_back(i);
      }
    }
    finite_points_ = static_cast<Index>(entries.size());
    SortByKey(entries);

    for (Index b = 0; b < entries.size();) {
      Status fault = g_grid_rehash_fault.Check();
      if (!fault.ok()) throw QueryAbort(std::move(fault));
      Cell cell;
      cell.key = UnpackKey(entries[b].key);
      cell.begin = b;
      const Point& first = points[entries[b].index];
      cell.lo_x = cell.hi_x = first.x;
      cell.lo_y = cell.hi_y = first.y;
      Index e = b + 1;
      for (; e < entries.size() && entries[e].key == entries[b].key; ++e) {
        const Point& p = points[entries[e].index];
        cell.lo_x = std::min(cell.lo_x, p.x);
        cell.hi_x = std::max(cell.hi_x, p.x);
        cell.lo_y = std::min(cell.lo_y, p.y);
        cell.hi_y = std::max(cell.hi_y, p.y);
      }
      cell.end = e;
      // Rounding is monotone, so no pair inside the box computes a larger
      // distance than its extent does: the check is exact for the kernel.
      cell.clique = Within(cell.hi_x - cell.lo_x, cell.hi_y - cell.lo_y);
      if (!cell.clique) {
        // x order lets ScanWithin stop each point's sweep early.
        std::sort(entries.begin() + static_cast<std::ptrdiff_t>(b),
                  entries.begin() + static_cast<std::ptrdiff_t>(e),
                  [&points](const Entry& u, const Entry& v) {
                    const double ux = points[u.index].x;
                    const double vx = points[v.index].x;
                    return ux != vx ? ux < vx : u.index < v.index;
                  });
      }
      cell.node = num_nodes_;
      num_nodes_ += cell.clique ? 1 : e - b;
      cells_.push_back(cell);
      b = e;
    }

    xs_.resize(n);
    ys_.resize(n);
    input_of_.resize(n);
    node_of_input_.resize(n);
    for (const Cell& cell : cells_) {
      for (Index pos = cell.begin; pos < cell.end; ++pos) {
        const Index i = entries[pos].index;
        xs_[pos] = points[i].x;
        ys_[pos] = points[i].y;
        input_of_[pos] = i;
        node_of_input_[i] = cell.clique ? cell.node
                                        : cell.node + (pos - cell.begin);
      }
    }
    Index pos = finite_points_;
    for (const Index i : non_finite) {
      xs_[pos] = points[i].x;
      ys_[pos] = points[i].y;
      input_of_[pos] = i;
      node_of_input_[i] = num_nodes_++;
      ++pos;
    }
  }

  /// Non-clique cell: each point against the later points of its x-sorted
  /// range, up to the first whose x distance alone fails the predicate
  /// (the x distance only grows along the range, so none after it match).
  template <typename Record>
  void ScanWithin(const Cell& c, geom::BlockSimilarity& sim,
                  std::vector<uint64_t>& mask, GridPartitionStats& stats,
                  Record& record) const {
    size_t stop = c.begin;
    for (size_t a = c.begin; a < c.end; ++a) {
      stop = std::max(stop, a + 1);
      while (stop < c.end && Within(xs_[stop] - xs_[a], 0.0)) ++stop;
      const size_t m = stop - a - 1;
      if (m == 0) continue;
      mask.resize(geom::KernelMaskWords(m));
      stats.distance_computations += m;
      sim.Match(Point{xs_[a], ys_[a]}, xs_.data() + a + 1,
                ys_.data() + a + 1, m, mask.data());
      geom::ForEachSetBit(mask.data(), m, [&](size_t j) {
        record(NodeAt(a), NodeAt(a + 1 + j), /*local=*/true);
      });
    }
  }

  /// Whether the bounding boxes are farther apart than the predicate
  /// accepts — then, by the same monotonicity, every cross pair is too.
  bool Apart(const Cell& a, const Cell& b) const {
    const double gx = std::max({0.0, b.lo_x - a.hi_x, a.lo_x - b.hi_x});
    const double gy = std::max({0.0, b.lo_y - a.hi_y, a.lo_y - b.hi_y});
    return !Within(gx, gy);
  }

  /// One neighbour pair: two cliques are joined at the first matching
  /// pair; a pair involving a non-clique cell unions every match.
  template <typename Record>
  void Link(const Cell& a, const Cell& b, bool local, UnionFind& forest,
            geom::BlockSimilarity& sim, std::vector<uint64_t>& mask,
            GridPartitionStats& stats, Record& record) const {
    if (Apart(a, b)) return;
    const bool cliques = a.clique && b.clique;
    if (cliques && local && forest.Find(a.node) == forest.Find(b.node)) {
      return;
    }
    // The smaller cell's points probe the larger cell's block.
    const bool a_probes = a.end - a.begin <= b.end - b.begin;
    const Cell& probe = a_probes ? a : b;
    const Cell& block = a_probes ? b : a;
    const size_t m = block.end - block.begin;
    mask.resize(geom::KernelMaskWords(m));
    for (size_t p = probe.begin; p < probe.end; ++p) {
      stats.distance_computations += m;
      const size_t hits =
          sim.Match(Point{xs_[p], ys_[p]}, xs_.data() + block.begin,
                    ys_.data() + block.begin, m, mask.data());
      if (hits == 0) continue;
      if (cliques) {
        record(a.node, b.node, local);
        return;
      }
      geom::ForEachSetBit(mask.data(), m, [&](size_t j) {
        record(NodeAt(p), NodeAt(block.begin + j), local);
      });
    }
  }

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

}  // namespace

GridComponents SimilarityComponents(
    std::span<const Point> points, Metric metric, double radius, size_t dop,
    ThreadPool& pool, std::vector<GridPartitionStats>* worker_stats,
    QueryContext* ctx) {
  dop = std::max<size_t>(dop, 1);
  std::vector<GridPartitionStats> slot_stats(dop);
  GridComponents out;
  if (points.empty()) {
    if (worker_stats != nullptr) *worker_stats = std::move(slot_stats);
    return out;
  }

  {
    Status fault = g_grid_build_fault.Check();
    if (!fault.ok()) throw QueryAbort(std::move(fault));
  }
  if (points.size() > std::numeric_limits<Index>::max()) {
    throw QueryAbort(Status::InvalidArgument(
        "similarity grid: more than 2^32 - 1 points"));
  }
  // The sorted SoA and its two index maps, charged up front so a budgeted
  // query fails before the build, not mid-way (the sort entries are
  // scratch, freed before the scan; the forest is the caller's
  // bookkeeping).
  ScopedMemoryCharge grid_charge(
      ctx, points.size() * (2 * sizeof(double) + 2 * sizeof(Index)));
  const CliqueGrid grid(points, metric, radius);
  const size_t num_cells = grid.num_cells();
  UnionFind forest(grid.num_nodes());

  // ---- Partition: contiguous cell ranges balanced by point count. -----
  const size_t num_parts = std::min(dop, num_cells);
  std::vector<std::pair<size_t, size_t>> part_range(num_parts);
  {
    const size_t finite = grid.finite_points();
    size_t pos = 0;
    size_t assigned_points = 0;
    for (size_t p = 0; p < num_parts; ++p) {
      const size_t begin = pos;
      const size_t target = (finite * (p + 1) + num_parts - 1) / num_parts;
      // Every part takes at least one cell; the last part takes the rest.
      do {
        const Cell& c = grid.cell(pos);
        assigned_points += c.end - c.begin;
        ++pos;
      } while (pos < num_cells && (p + 1 == num_parts ||
                                   (assigned_points < target &&
                                    num_cells - pos > num_parts - p - 1)));
      part_range[p] = {begin, pos};
    }
  }

  // ---- Scan: each slot unions its own cell ranges. --------------------
  std::vector<std::vector<Edge>> slot_edges(dop);
  if (num_parts == 1) {
    grid.ScanRange(0, num_cells, forest, slot_edges[0], slot_stats[0], ctx);
  } else if (num_parts > 1) {
    // Worker spans parent to whatever span is open on the calling thread
    // (the explicit-parent form: worker threads have no stack to inherit).
    obs::QueryTrace* trace = ctx != nullptr ? ctx->trace() : nullptr;
    const uint64_t parent_span =
        trace != nullptr ? trace->CurrentSpanId() : 0;
    pool.ParallelFor(
        num_parts, dop,
        [&](size_t slot, size_t part_begin, size_t part_end) {
          obs::ScopedSpan worker_span(trace, "sgb.worker", parent_span);
          worker_span.AddAttribute(
              "partitions", static_cast<double>(part_end - part_begin));
          for (size_t p = part_begin; p < part_end; ++p) {
            grid.ScanRange(part_range[p].first, part_range[p].second, forest,
                           slot_edges[slot], slot_stats[slot], ctx);
          }
        },
        /*grain=*/1);
  }

  // ---- Merge: seam edges, then the non-finite points, sequentially. ---
  for (const std::vector<Edge>& edges : slot_edges) {
    for (const Edge& e : edges) forest.Union(e.a, e.b);
  }
  grid.ScanNonFinite(forest, slot_stats[0], ctx);

  // ---- Label components by first appearance in input order. -----------
  constexpr size_t kNone = static_cast<size_t>(-1);
  std::vector<size_t> label_of_root(grid.num_nodes(), kNone);
  out.component_of.resize(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    const size_t root = forest.Find(grid.node_of_input(i));
    if (label_of_root[root] == kNone) {
      label_of_root[root] = out.num_components++;
    }
    out.component_of[i] = label_of_root[root];
  }
  if (worker_stats != nullptr) *worker_stats = std::move(slot_stats);
  return out;
}

}  // namespace sgb::index
