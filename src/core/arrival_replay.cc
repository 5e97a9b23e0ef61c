#include "core/arrival_replay.h"

#include <algorithm>
#include <functional>
#include <limits>

#include "common/query_context.h"
#include "geom/rect.h"
#include "index/grid_partition.h"
#include "index/union_find.h"

namespace sgb::core {

namespace {

using geom::Metric;
using geom::Point;
using index::CliqueGrid;
using Index = CliqueGrid::Index;

constexpr Index kNoCell = std::numeric_limits<Index>::max();
constexpr size_t kNoRoot = std::numeric_limits<size_t>::max();

/// How an arrival p matches an earlier arrival q when either has a
/// non-finite coordinate, which no cell geometry covers.
using NonFiniteMatch = std::function<bool(const Point& p, const Point& q)>;

/// One CliqueGrid walked in arrival order: each arrival's cell, each
/// cell's neighbour cells, and how many of each cell's points have arrived
/// (a clique cell keeps its points in input order, so those are a prefix).
/// The forest the roots are read from must link every pair the grid's own
/// predicate accepts: then the arrived points of a clique cell are always
/// in one component.
class ArrivalGrid {
 public:
  ArrivalGrid(std::span<const Point> arrivals, Metric metric, double radius)
      : grid_(arrivals, metric, radius),
        cell_of_(arrivals.size(), kNoCell),
        arrived_(grid_.num_cells(), 0) {
    grid_.NeighbourCells(&offsets_, &neighbours_);
    for (size_t k = 0; k < grid_.num_cells(); ++k) {
      const CliqueGrid::Cell& c = grid_.cell(k);
      for (size_t pos = c.begin; pos < c.end; ++pos) {
        cell_of_[grid_.input_of(pos)] = static_cast<Index>(k);
      }
    }
  }

  /// The grid's own predicate, in the kernels' arithmetic.
  const geom::SimilarityPredicate& predicate() const {
    return grid_.similarity().scalar();
  }

  /// One question asked of the earlier arrivals: which forest roots hold
  /// arrivals that `match` pairs with the current one. `match` may accept
  /// no pair beyond the grid's own predicate; pairs with a non-finite
  /// coordinate go to `non_finite` instead. The answer lands in `roots`,
  /// once per root.
  struct Probe {
    const geom::SimilarityPredicate* match;
    const NonFiniteMatch* non_finite;
    std::vector<size_t> roots;
  };

  /// Answers every probe for arrival i against the arrivals before it
  /// (input index < i), in one walk over its neighbour cells.
  void Collect(std::span<const Point> arrivals, size_t i,
               index::UnionFind& forest, std::span<Probe> probes) const {
    auto counted = [](const Probe& probe, size_t root) {
      return std::find(probe.roots.begin(), probe.roots.end(), root) !=
             probe.roots.end();
    };
    auto add = [&](Probe& probe, size_t j) {
      const size_t root = forest.Find(j);
      if (!counted(probe, root)) probe.roots.push_back(root);
    };
    for (Probe& probe : probes) probe.roots.clear();
    const Point p = arrivals[i];
    const Index k = cell_of_[i];
    if (k == kNoCell) {
      for (Probe& probe : probes) {
        for (size_t j = 0; j < i; ++j) {
          if ((*probe.non_finite)(p, arrivals[j])) add(probe, j);
        }
      }
      return;
    }
    const double* xs = grid_.xs();
    const double* ys = grid_.ys();
    for (Index o = offsets_[k]; o < offsets_[k + 1]; ++o) {
      const Index k2 = neighbours_[o];
      const Index arrived = arrived_[k2];
      if (arrived == 0) continue;
      const CliqueGrid::Cell& c = grid_.cell(k2);
      // The point of the cell's bounding box nearest to p: rounding is
      // monotone, so when it does not match, no point of the cell does.
      const Point nearest{std::clamp(p.x, c.lo_x, c.hi_x),
                          std::clamp(p.y, c.lo_y, c.hi_y)};
      size_t root = kNoRoot;
      for (Probe& probe : probes) {
        const geom::SimilarityPredicate& match = *probe.match;
        if (!match(p, nearest)) continue;
        if (!c.clique) {
          for (size_t pos = c.begin; pos < c.end; ++pos) {
            const size_t j = grid_.input_of(pos);
            if (j < i && match(p, Point{xs[pos], ys[pos]})) add(probe, j);
          }
          continue;
        }
        if (root == kNoRoot) root = forest.Find(grid_.input_of(c.begin));
        if (counted(probe, root)) continue;
        for (size_t pos = c.begin; pos < c.begin + arrived; ++pos) {
          if (match(p, Point{xs[pos], ys[pos]})) {
            probe.roots.push_back(root);
            break;
          }
        }
      }
    }
    // The earlier non-finite arrivals, kept in input order.
    for (size_t pos = grid_.finite_points(); pos < grid_.size(); ++pos) {
      const size_t j = grid_.input_of(pos);
      if (j >= i) break;
      for (Probe& probe : probes) {
        if ((*probe.non_finite)(p, Point{xs[pos], ys[pos]})) add(probe, j);
      }
    }
  }

  void Arrive(size_t i) {
    if (cell_of_[i] != kNoCell) ++arrived_[cell_of_[i]];
  }

 private:
  CliqueGrid grid_;
  std::vector<Index> cell_of_;  ///< arrival -> cell (kNoCell if none)
  std::vector<Index> arrived_;  ///< per cell
  std::vector<Index> offsets_;  ///< neighbour lists, CSR
  std::vector<Index> neighbours_;
};

}  // namespace

Result<ArrivalReplay> ReplayArrivals(std::span<const Point> arrivals,
                                     Metric metric, double epsilon,
                                     ReplayKind kind, QueryContext* ctx) {
  const size_t n = arrivals.size();
  if (n >= kNoCell) {
    return Status::InvalidArgument("arrival replay: 2^32 - 1 or more points");
  }
  try {
    // The grid's sorted SoA and maps, the cell of every arrival, and the
    // forest.
    ScopedMemoryCharge charge(
        ctx, n * (2 * sizeof(double) + 3 * sizeof(Index) + 3 * sizeof(size_t)));
    const bool all = kind == ReplayKind::kAll;
    const geom::SimilarityPredicate similar(metric, epsilon);
    const double reach = 3.0 * epsilon;
    // SGB-Any links ε-neighbours on the ε grid. SGB-All links 3ε-L∞
    // neighbours on the 3ε grid and counts the ε-neighbours on the same
    // grid, which reaches far enough. Non-finite coordinates match as in
    // the batch cores: SGB-Any's grid applies the kernel predicate;
    // SGB-All's rectangle tests place q in p's 3ε box, where a NaN
    // coordinate meets nothing and an infinite one only the same infinity.
    ArrivalGrid grid(arrivals, all ? Metric::kLInf : metric,
                     all ? reach : epsilon);
    auto in_box = [reach](const Point& p, const Point& q) {
      return geom::Rect::Around(p, reach).Contains(q);
    };
    const NonFiniteMatch count_non_finite =
        all ? NonFiniteMatch([similar, in_box](const Point& p,
                                               const Point& q) {
          return in_box(p, q) && similar(p, q);
        })
            : NonFiniteMatch(similar);
    const NonFiniteMatch link_non_finite = in_box;

    // Probe 0 counts the ε-neighbours' components; SGB-All's probe 1
    // finds the components it links to (SGB-Any links to probe 0's).
    ArrivalGrid::Probe probes[2] = {{&similar, &count_non_finite, {}},
                                    {&grid.predicate(), &link_non_finite, {}}};
    const std::span<ArrivalGrid::Probe> asked(probes, all ? 2 : 1);
    index::UnionFind forest(n);
    ArrivalReplay out;
    out.touched.resize(n);
    for (size_t i = 0; i < n; ++i) {
      if (i % 256 == 0) ThrowIfAborted(ctx);
      grid.Collect(arrivals, i, forest, asked);
      out.touched[i] = static_cast<uint32_t>(probes[0].roots.size());
      for (const size_t root : asked.back().roots) forest.Union(i, root);
      grid.Arrive(i);
    }
    out.component.resize(n);
    for (size_t i = 0; i < n; ++i) {
      out.component[i] = static_cast<uint32_t>(forest.Find(i));
    }
    return out;
  } catch (const QueryAbort& abort) {
    return abort.status();
  }
}

bool BatchMatchesReplay(const Grouping& batch, std::span<const size_t> order,
                        const ArrivalReplay& replay, ReplayKind kind) {
  const size_t n = replay.component.size();
  if (batch.group_of.size() != n || order.size() != n) return false;
  constexpr size_t kUnset = std::numeric_limits<size_t>::max();
  const bool exact = kind == ReplayKind::kAny;
  std::vector<size_t> component_of_group(batch.num_groups, kUnset);
  std::vector<size_t> group_of_component(exact ? n : 0, kUnset);
  for (size_t k = 0; k < n; ++k) {
    const size_t g = batch.group_of[k];
    if (g == Grouping::kEliminated && !exact) continue;
    if (g >= batch.num_groups || order[k] >= n) return false;
    const size_t c = replay.component[order[k]];
    if (component_of_group[g] == kUnset) component_of_group[g] = c;
    if (component_of_group[g] != c) return false;
    if (!exact) continue;
    if (group_of_component[c] == kUnset) group_of_component[c] = g;
    if (group_of_component[c] != g) return false;
  }
  return true;
}

}  // namespace sgb::core
