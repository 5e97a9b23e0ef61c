#ifndef SGB_CORE_SGB_ND_H_
#define SGB_CORE_SGB_ND_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "common/status.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "core/sgb_types.h"
#include "geom/nd.h"
#include "index/rtree_nd.h"
#include "index/union_find.h"

namespace sgb::core {

/// N-dimensional SGB — the extension the paper defers to future work
/// ("we mainly focus on two and three dimensional data space").
///
/// Semantics are identical to the 2-D operators (same options, clauses and
/// Grouping output; the 2-D specializations agree bit-for-bit with
/// core::SgbAll / core::SgbAny — tested). One algorithmic difference: the
/// L2 refinement uses an exact member scan of rectangle-passing groups
/// instead of the 2-D convex-hull test (hulls do not generalize cheaply
/// beyond the plane), so the L2 candidate test costs O(|g|) rather than
/// O(log |g|) per rectangle-passing group. L∞ keeps the O(1) exact
/// rectangle test. DESIGN.md discusses the trade-off.
///
/// Header-only (templates); `SgbAllAlgorithm::kBoundsChecking` and the
/// index tiers differ only in how candidate groups are enumerated, as in
/// 2-D. `kIndexed` and `kGroupsIndex` both run an R-tree Groups_IX here.
namespace nd_internal {

/// ε-All bounding box + member MBR in D dimensions (Definition 5 lifted).
template <size_t D>
class EpsilonRectN {
 public:
  EpsilonRectN() = default;
  explicit EpsilonRectN(double epsilon) : epsilon_(epsilon) {}

  void Insert(const geom::PointN<D>& p) {
    if (empty_) {
      all_rect_ = geom::RectN<D>::Around(p, epsilon_);
      mbr_ = geom::RectN<D>{p, p};
      empty_ = false;
      return;
    }
    all_rect_.Clip(geom::RectN<D>::Around(p, epsilon_));
    mbr_.Expand(p);
  }

  void Rebuild(std::span<const geom::PointN<D>> members) {
    *this = EpsilonRectN(epsilon_);
    for (const auto& p : members) Insert(p);
  }

  bool empty() const { return empty_; }
  const geom::RectN<D>& all_rect() const { return all_rect_; }
  const geom::RectN<D>& mbr() const { return mbr_; }

  bool PointInRectangleTest(const geom::PointN<D>& p) const {
    return !empty_ && all_rect_.Contains(p);
  }

  bool OverlapRectangleTest(const geom::PointN<D>& p) const {
    return !empty_ && mbr_.Intersects(geom::RectN<D>::Around(p, epsilon_));
  }

 private:
  double epsilon_ = 0.0;
  bool empty_ = true;
  geom::RectN<D> all_rect_ = geom::RectN<D>::Empty();
  geom::RectN<D> mbr_ = geom::RectN<D>::Empty();
};

template <size_t D>
class SgbAllRunnerN {
 public:
  using Point = geom::PointN<D>;
  using Rect = geom::RectN<D>;

  SgbAllRunnerN(std::span<const Point> points, const SgbAllOptions& options,
                SgbAllStats* stats)
      : points_(points),
        options_(options),
        stats_(stats),
        assignment_(points.size(), Grouping::kEliminated) {}

  Grouping Run() {
    std::vector<size_t> todo(points_.size());
    for (size_t i = 0; i < todo.size(); ++i) todo[i] = i;

    int round = 0;
    while (!todo.empty()) {
      const bool last_chance = round >= options_.max_regroup_rounds - 1;
      const OverlapClause clause =
          last_chance ? OverlapClause::kJoinAny : options_.on_overlap;
      // Deferred points re-enter in canonical (input) order, exactly as in
      // core::SgbAll, so the 2-D specialization stays bit-identical.
      std::vector<size_t> deferred = RunRound(todo, clause);
      std::sort(deferred.begin(), deferred.end());
      if (stats_ != nullptr && round > 0) ++stats_->regroup_rounds;
      if (deferred.size() == todo.size()) {
        (void)RunRound(deferred, OverlapClause::kJoinAny);
        break;
      }
      todo = std::move(deferred);
      ++round;
    }

    // Renumber into the Grouping contract ordering (first appearance in
    // the input), matching core::SgbAll's canonicalization.
    Grouping result;
    result.group_of.assign(points_.size(), Grouping::kEliminated);
    std::vector<size_t> label_of(next_output_group_, Grouping::kEliminated);
    for (size_t i = 0; i < points_.size(); ++i) {
      if (assignment_[i] == Grouping::kEliminated) continue;
      if (label_of[assignment_[i]] == Grouping::kEliminated) {
        label_of[assignment_[i]] = result.num_groups++;
      }
      result.group_of[i] = label_of[assignment_[i]];
    }
    return result;
  }

 private:
  struct Group {
    std::vector<size_t> members;
    EpsilonRectN<D> rect;
    bool alive = true;
  };

  bool SimilarTo(const Point& a, const Point& b) {
    if (stats_ != nullptr) ++stats_->distance_computations;
    return geom::Similar(a, b, options_.metric, options_.epsilon);
  }

  size_t CreateGroup(size_t point_index) {
    const size_t gid = groups_.size();
    Group g;
    g.rect = EpsilonRectN<D>(options_.epsilon);
    g.rect.Insert(points_[point_index]);
    g.members.push_back(point_index);
    groups_.push_back(std::move(g));
    if (use_index_) groups_ix_.Insert(groups_[gid].rect.all_rect(), gid);
    if (stats_ != nullptr) ++stats_->groups_created;
    return gid;
  }

  void InsertIntoGroup(size_t gid, size_t point_index) {
    Group& g = groups_[gid];
    const Rect old_rect = g.rect.all_rect();
    g.members.push_back(point_index);
    g.rect.Insert(points_[point_index]);
    if (use_index_ && !(g.rect.all_rect() == old_rect)) {
      groups_ix_.Remove(old_rect, gid);
      groups_ix_.Insert(g.rect.all_rect(), gid);
    }
  }

  void RebuildAfterRemoval(size_t gid) {
    Group& g = groups_[gid];
    const Rect old_rect = g.rect.all_rect();
    if (g.members.empty()) {
      g.alive = false;
      if (use_index_) groups_ix_.Remove(old_rect, gid);
      return;
    }
    std::vector<Point> pts;
    pts.reserve(g.members.size());
    for (const size_t m : g.members) pts.push_back(points_[m]);
    g.rect.Rebuild(pts);
    if (use_index_ && !(g.rect.all_rect() == old_rect)) {
      groups_ix_.Remove(old_rect, gid);
      groups_ix_.Insert(g.rect.all_rect(), gid);
    }
  }

  /// Exact candidate test: rectangle filter, then (L2 only) a full member
  /// scan — the N-D replacement for the 2-D convex-hull refinement.
  bool CandidateTest(const Group& g, const Point& p) {
    if (stats_ != nullptr) ++stats_->rectangle_tests;
    if (!g.rect.PointInRectangleTest(p)) return false;
    if (options_.metric == geom::Metric::kLInf) return true;
    for (const size_t m : g.members) {
      if (!SimilarTo(p, points_[m])) return false;
    }
    return true;
  }

  bool OverlapMemberScan(const Group& g, const Point& p) {
    for (const size_t m : g.members) {
      if (SimilarTo(p, points_[m])) return true;
    }
    return false;
  }

  void ClassifyGroup(size_t gid, const Point& p, OverlapClause clause,
                     std::vector<size_t>* candidates,
                     std::vector<size_t>* overlaps) {
    const Group& g = groups_[gid];
    if (!g.alive) return;
    if (CandidateTest(g, p)) {
      candidates->push_back(gid);
      return;
    }
    if (clause == OverlapClause::kJoinAny) return;
    if (!g.rect.OverlapRectangleTest(p)) return;
    if (OverlapMemberScan(g, p)) overlaps->push_back(gid);
  }

  void FindCloseGroups(const Point& p, OverlapClause clause,
                       std::vector<size_t>* candidates,
                       std::vector<size_t>* overlaps) {
    candidates->clear();
    overlaps->clear();
    if (options_.algorithm == SgbAllAlgorithm::kAllPairs) {
      // Procedure 2 lifted to N-D.
      for (size_t gid = 0; gid < groups_.size(); ++gid) {
        const Group& g = groups_[gid];
        if (!g.alive) continue;
        bool candidate_flag = true;
        bool overlap_flag = false;
        for (const size_t m : g.members) {
          if (SimilarTo(p, points_[m])) {
            overlap_flag = true;
          } else {
            candidate_flag = false;
            if (clause == OverlapClause::kJoinAny) break;
          }
        }
        if (candidate_flag) {
          candidates->push_back(gid);
        } else if (clause != OverlapClause::kJoinAny && overlap_flag) {
          overlaps->push_back(gid);
        }
      }
      return;
    }
    if (use_index_) {
      if (stats_ != nullptr) ++stats_->index_window_queries;
      std::vector<uint64_t> gids =
          groups_ix_.SearchIds(Rect::Around(p, options_.epsilon));
      std::sort(gids.begin(), gids.end());
      for (const uint64_t gid : gids) {
        ClassifyGroup(static_cast<size_t>(gid), p, clause, candidates,
                      overlaps);
      }
      return;
    }
    for (size_t gid = 0; gid < groups_.size(); ++gid) {
      ClassifyGroup(gid, p, clause, candidates, overlaps);
    }
  }

  void ProcessPoint(size_t point_index, OverlapClause clause,
                    std::vector<size_t>* deferred) {
    const Point& p = points_[point_index];
    std::vector<size_t> candidates;
    std::vector<size_t> overlaps;
    FindCloseGroups(p, clause, &candidates, &overlaps);

    if (candidates.empty()) {
      CreateGroup(point_index);
    } else if (candidates.size() == 1) {
      InsertIntoGroup(candidates[0], point_index);
    } else {
      switch (clause) {
        case OverlapClause::kJoinAny:
          InsertIntoGroup(
              candidates[JoinAnyPick(options_.seed, point_index,
                                     candidates.size())],
              point_index);
          break;
        case OverlapClause::kEliminate:
          assignment_[point_index] = Grouping::kEliminated;
          break;
        case OverlapClause::kFormNewGroup:
          deferred->push_back(point_index);
          break;
      }
    }

    if (clause == OverlapClause::kJoinAny || overlaps.empty()) return;
    for (const size_t gid : overlaps) {
      Group& g = groups_[gid];
      std::vector<size_t> kept;
      kept.reserve(g.members.size());
      bool changed = false;
      for (const size_t m : g.members) {
        if (SimilarTo(p, points_[m])) {
          changed = true;
          if (clause == OverlapClause::kEliminate) {
            assignment_[m] = Grouping::kEliminated;
          } else {
            deferred->push_back(m);
          }
        } else {
          kept.push_back(m);
        }
      }
      if (changed) {
        g.members = std::move(kept);
        RebuildAfterRemoval(gid);
      }
    }
  }

  std::vector<size_t> RunRound(const std::vector<size_t>& todo,
                               OverlapClause clause) {
    groups_.clear();
    groups_ix_ = index::RTreeN<D>();
    // Both index tiers run the R-tree Groups_IX in N-D.
    use_index_ = options_.algorithm == SgbAllAlgorithm::kIndexed ||
                 options_.algorithm == SgbAllAlgorithm::kGroupsIndex;

    std::vector<size_t> deferred;
    for (const size_t point_index : todo) {
      ProcessPoint(point_index, clause, &deferred);
    }
    for (const Group& g : groups_) {
      if (!g.alive || g.members.empty()) continue;
      const size_t out = next_output_group_++;
      for (const size_t m : g.members) assignment_[m] = out;
    }
    return deferred;
  }

  std::span<const Point> points_;
  const SgbAllOptions& options_;
  SgbAllStats* stats_;
  std::vector<Group> groups_;
  index::RTreeN<D> groups_ix_;
  bool use_index_ = false;
  std::vector<size_t> assignment_;
  size_t next_output_group_ = 0;
};

}  // namespace nd_internal

/// N-dimensional SGB-All. Same contract as core::SgbAll.
template <size_t D>
Result<Grouping> SgbAllNd(std::span<const geom::PointN<D>> points,
                          const SgbAllOptions& options,
                          SgbAllStats* stats = nullptr) {
  if (!(options.epsilon >= 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "SGB-All: similarity threshold epsilon must be finite and >= 0");
  }
  if (options.max_regroup_rounds < 1) {
    return Status::InvalidArgument(
        "SGB-All: max_regroup_rounds must be >= 1");
  }
  nd_internal::SgbAllRunnerN<D> runner(points, options, stats);
  return runner.Run();
}

/// N-dimensional SGB-Any. Same contract as core::SgbAny.
template <size_t D>
Result<Grouping> SgbAnyNd(std::span<const geom::PointN<D>> points,
                          const SgbAnyOptions& options,
                          SgbAnyStats* stats = nullptr) {
  if (!(options.epsilon >= 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "SGB-Any: similarity threshold epsilon must be finite and >= 0");
  }

  index::UnionFind forest(points.size());
  if (options.algorithm == SgbAnyAlgorithm::kAllPairs) {
    for (size_t i = 0; i < points.size(); ++i) {
      for (size_t j = 0; j < i; ++j) {
        if (stats != nullptr) ++stats->distance_computations;
        if (geom::Similar(points[i], points[j], options.metric,
                          options.epsilon)) {
          if (stats != nullptr) {
            ++stats->union_operations;
            if (!forest.Connected(i, j)) ++stats->group_merges;
          }
          forest.Union(i, j);
        }
      }
    }
  } else {
    index::RTreeN<D> points_ix;
    std::vector<geom::PointN<D>> stored(points.begin(), points.end());
    for (size_t i = 0; i < points.size(); ++i) {
      if (stats != nullptr) ++stats->index_window_queries;
      const auto window = geom::RectN<D>::Around(points[i], options.epsilon);
      points_ix.Search(window, [&](const geom::RectN<D>&, uint64_t id) {
        if (options.metric == geom::Metric::kL2) {
          if (stats != nullptr) ++stats->distance_computations;
          if (!geom::Similar(points[i], stored[id], geom::Metric::kL2,
                             options.epsilon)) {
            return;
          }
        }
        if (stats != nullptr) {
          ++stats->union_operations;
          if (!forest.Connected(i, id)) ++stats->group_merges;
        }
        forest.Union(i, static_cast<size_t>(id));
      });
      points_ix.Insert(points[i], i);
    }
  }

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

}  // namespace sgb::core

#endif  // SGB_CORE_SGB_ND_H_
