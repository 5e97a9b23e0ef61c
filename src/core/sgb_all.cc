#include "core/sgb_all.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/query_context.h"
#include "common/thread_pool.h"
#include "geom/convex_hull.h"
#include "geom/epsilon_rect.h"
#include "geom/kernels.h"
#include "index/grid_partition.h"
#include "index/group_grid.h"
#include "index/rtree.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sgb::core {

// Fire when a round commits to building its Groups_IX — the grid of the
// kIndexed tier, or the R-tree of the kGroupsIndex reference tier —
// exercising index-construction failure inside the core.
static FaultSite g_group_grid_build_fault("core.group_grid.build",
                                          Status::Code::kInternal);
static FaultSite g_rtree_build_fault("core.rtree.build",
                                     Status::Code::kInternal);

namespace {

using geom::Metric;
using geom::Point;
using geom::Rect;

/// Minimum input size for the parallel path: below this the partitioning
/// overhead dominates any possible speedup.
constexpr size_t kMinParallelPoints = 64;

/// How many points a core loop processes between governance checks. Matches
/// the operator layer's per-row stride so worst-case cancel latency is the
/// same whichever layer is the bottleneck.
constexpr size_t kAbortCheckStride = 64;

/// Relabels per-runner group ids into the output numbering of the Grouping
/// contract: dense, 0-based, in order of first appearance in the input.
/// `comp_of`, when given, disambiguates the local ids of independent
/// component runners (labels are unique per (component, local id) pair).
Grouping CanonicalizeLabels(size_t n, const std::vector<size_t>& assignment,
                            const std::vector<size_t>* comp_of) {
  Grouping out;
  out.group_of.assign(n, Grouping::kEliminated);
  std::unordered_map<uint64_t, size_t> label_of;
  label_of.reserve(n / 4 + 1);
  for (size_t i = 0; i < n; ++i) {
    if (assignment[i] == Grouping::kEliminated) continue;
    const uint64_t key =
        comp_of == nullptr
            ? static_cast<uint64_t>(assignment[i])
            : static_cast<uint64_t>((*comp_of)[i]) * (n + 1) + assignment[i];
    const auto [it, inserted] = label_of.try_emplace(key, out.num_groups);
    if (inserted) ++out.num_groups;
    out.group_of[i] = it->second;
  }
  return out;
}

/// One SGB-All group in the current re-grouping round's universe.
struct Group {
  std::vector<size_t> members;   // indices into the input point array
  geom::PointColumns soa;        // members' coordinates, SoA, same order
  geom::EpsilonRect rect;        // ε-All rectangle + member MBR
  geom::IncrementalHull hull;    // maintained only under L2
  bool alive = true;
};

/// Runs the Procedure-1 framework over one point universe (the full input,
/// or one independent ε-component of it). FORM-NEW-GROUP re-grouping is
/// realized as successive rounds, each with a fresh group universe,
/// matching the paper's recursive formulation; deferred points are
/// re-processed in canonical (input) order so the outcome is a pure
/// function of the universe's point set.
///
/// Group labels are written into the shared `assignment` vector (one slot
/// per input point, pre-initialized to kEliminated) as runner-local dense
/// ids; CanonicalizeLabels maps them into the output numbering. Runners
/// over disjoint universes may execute concurrently: each touches only its
/// own universe's assignment slots.
class SgbAllRunner {
 public:
  SgbAllRunner(std::span<const Point> points, const SgbAllOptions& options,
               SgbAllStats* stats, std::vector<size_t>& assignment)
      : points_(points),
        options_(options),
        block_sim_(options.metric, options.epsilon),
        stats_(stats),
        grid_(options.query_ctx),
        assignment_(assignment) {}

  /// The runner's similarity kernels, with the calls of every Run so far.
  const geom::BlockSimilarity& similarity() const { return block_sim_; }

  /// `todo` must be sorted ascending (canonical order).
  void Run(std::vector<size_t> todo) {
    int round = 0;
    while (!todo.empty()) {
      const bool last_chance =
          round >= options_.max_regroup_rounds - 1;
      const OverlapClause clause =
          last_chance ? OverlapClause::kJoinAny : options_.on_overlap;

      std::vector<size_t> deferred = RunRound(todo, clause);
      std::sort(deferred.begin(), deferred.end());
      if (stats_ != nullptr && round > 0) ++stats_->regroup_rounds;

      if (deferred.size() == todo.size()) {
        // No progress: every point was deferred again. Force-place the
        // remainder with JOIN-ANY so the operator terminates (DESIGN.md).
        const std::vector<size_t> rest =
            RunRound(deferred, OverlapClause::kJoinAny);
        (void)rest;  // JOIN-ANY never defers.
        break;
      }
      todo = std::move(deferred);
      ++round;
    }
  }

 private:
  bool L2() const { return options_.metric == Metric::kL2; }

  bool SimilarTo(const Point& a, const Point& b) const {
    if (stats_ != nullptr) ++stats_->distance_computations;
    return block_sim_.scalar()(a, b);
  }

  /// Batched ξδ,ε of p against every member of g, via the block kernels
  /// over the group's SoA columns; the selection mask lands in mask_ and
  /// the match count is returned. Counts one distance computation per
  /// member (the kernel evaluates the whole block; unlike the historical
  /// scalar loops there is no early exit, so counters report the actual
  /// evaluations performed).
  size_t MatchMembers(const Group& g, const Point& p) {
    const size_t n = g.members.size();
    mask_.resize(geom::KernelMaskWords(n));
    if (stats_ != nullptr) stats_->distance_computations += n;
    return block_sim_.Match(p, g.soa.xs(), g.soa.ys(), n, mask_.data());
  }

  // ---- Group maintenance ------------------------------------------------

  size_t CreateGroup(size_t point_index) {
    const size_t gid = groups_.size();
    Group g;
    g.rect = geom::EpsilonRect(options_.epsilon);
    g.rect.Insert(points_[point_index]);
    if (L2()) g.hull.Insert(points_[point_index]);
    g.members.push_back(point_index);
    g.soa.PushBack(points_[point_index]);
    groups_.push_back(std::move(g));
    IndexInsert(gid);
    if (stats_ != nullptr) ++stats_->groups_created;
    return gid;
  }

  void InsertIntoGroup(size_t gid, size_t point_index) {
    Group& g = groups_[gid];
    const Rect before = IndexKey(g);
    g.members.push_back(point_index);
    g.soa.PushBack(points_[point_index]);
    g.rect.Insert(points_[point_index]);
    if (L2()) g.hull.Insert(points_[point_index]);
    IndexMove(gid, before);
  }

  /// Removes the given members (already erased from g.members by the
  /// caller) by rebuilding the group's derived structures, or retires the
  /// group when it became empty.
  void RebuildAfterRemoval(size_t gid) {
    Group& g = groups_[gid];
    const Rect before = IndexKey(g);
    if (g.members.empty()) {
      g.alive = false;
      IndexRemove(gid, before);
      return;
    }
    std::vector<Point> pts;
    pts.reserve(g.members.size());
    g.soa.Clear();
    for (const size_t m : g.members) {
      pts.push_back(points_[m]);
      g.soa.PushBack(points_[m]);
    }
    g.rect.Rebuild(pts);
    if (L2()) g.hull.Rebuild(pts);
    IndexMove(gid, before);
  }

  // ---- Groups_IX ----------------------------------------------------------
  //
  // The one seam between the two index tiers: kIndexed keeps the group grid
  // over member MBRs, kGroupsIndex the paper's R-tree over ε-All
  // rectangles. Either lists a superset of the groups ClassifyGroup can
  // accept for a probe; the other tiers keep no index.

  /// The rectangle a group is indexed under.
  const Rect& IndexKey(const Group& g) const {
    return options_.algorithm == SgbAllAlgorithm::kGroupsIndex
               ? g.rect.all_rect()
               : g.rect.mbr();
  }

  void IndexInsert(size_t gid) {
    if (options_.algorithm == SgbAllAlgorithm::kIndexed) {
      grid_.Insert(IndexKey(groups_[gid]), gid);
    } else if (options_.algorithm == SgbAllAlgorithm::kGroupsIndex) {
      groups_ix_.Insert(IndexKey(groups_[gid]), gid);
    }
  }

  /// Re-indexes a live group whose key was `before`.
  void IndexMove(size_t gid, const Rect& before) {
    const Rect& after = IndexKey(groups_[gid]);
    if (after == before) return;
    if (options_.algorithm == SgbAllAlgorithm::kIndexed) {
      grid_.Move(before, after, gid);
    } else if (options_.algorithm == SgbAllAlgorithm::kGroupsIndex) {
      groups_ix_.Remove(before, gid);
      groups_ix_.Insert(after, gid);
    }
  }

  /// Unindexes a retired group whose key was `before`.
  void IndexRemove(size_t gid, const Rect& before) {
    if (options_.algorithm == SgbAllAlgorithm::kIndexed) {
      grid_.Remove(before, gid);
    } else if (options_.algorithm == SgbAllAlgorithm::kGroupsIndex) {
      groups_ix_.Remove(before, gid);
    }
  }

  /// Appends the probe's group ids to gids_ (unsorted, possibly repeated);
  /// false when the index cannot bound them.
  bool IndexProbe(const Point& p) {
    if (options_.algorithm == SgbAllAlgorithm::kIndexed) {
      return grid_.Probe(p, &gids_);
    }
    groups_ix_.Search(Rect::Around(p, options_.epsilon),
                      [this](const Rect&, uint64_t gid) {
                        gids_.push_back(static_cast<size_t>(gid));
                      });
    return true;
  }

  // ---- FindCloseGroups (Procedures 2, 4, 5) -----------------------------

  /// True iff p satisfies ξδ,ε against every member of g (bounds-checking
  /// filter plus, for L2, the convex-hull refinement). Exact.
  bool CandidateTest(const Group& g, const Point& p) {
    if (stats_ != nullptr) ++stats_->rectangle_tests;
    if (!g.rect.PointInRectangleTest(p)) return false;
    if (!L2()) return true;  // exact for L∞ (Definition 5)
    if (stats_ != nullptr) ++stats_->hull_tests;
    return g.hull.WithinEpsilonOfAll(p, options_.epsilon);
  }

  /// True iff at least one member of g satisfies ξδ,ε with p.
  bool OverlapMemberScan(const Group& g, const Point& p) {
    return MatchMembers(g, p) > 0;
  }

  void FindCloseGroupsAllPairs(const Point& p, OverlapClause clause,
                               std::vector<size_t>* candidates,
                               std::vector<size_t>* overlaps) {
    for (size_t gid = 0; gid < groups_.size(); ++gid) {
      const Group& g = groups_[gid];
      if (!g.alive) continue;
      const size_t matches = MatchMembers(g, p);
      if (matches == g.members.size()) {
        candidates->push_back(gid);
      } else if (clause != OverlapClause::kJoinAny && matches > 0) {
        overlaps->push_back(gid);
      }
    }
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

  void FindCloseGroupsBounds(const Point& p, OverlapClause clause,
                             std::vector<size_t>* candidates,
                             std::vector<size_t>* overlaps) {
    for (size_t gid = 0; gid < groups_.size(); ++gid) {
      ClassifyGroup(gid, p, clause, candidates, overlaps);
    }
  }

  /// Procedure 5 over either Groups_IX. The probe's groups are sorted so
  /// candidate/overlap enumeration order — and therefore the JOIN-ANY pick
  /// — matches the scan-based strategies exactly.
  void FindCloseGroupsIndexed(const Point& p, OverlapClause clause,
                              std::vector<size_t>* candidates,
                              std::vector<size_t>* overlaps) {
    if (stats_ != nullptr) ++stats_->index_window_queries;
    gids_.clear();
    if (!IndexProbe(p)) {
      FindCloseGroupsBounds(p, clause, candidates, overlaps);
      return;
    }
    std::sort(gids_.begin(), gids_.end());
    gids_.erase(std::unique(gids_.begin(), gids_.end()), gids_.end());
    for (const size_t gid : gids_) {
      ClassifyGroup(gid, p, clause, candidates, overlaps);
    }
  }

  void FindCloseGroups(const Point& p, OverlapClause clause,
                       std::vector<size_t>* candidates,
                       std::vector<size_t>* overlaps) {
    candidates->clear();
    overlaps->clear();
    switch (options_.algorithm) {
      case SgbAllAlgorithm::kAllPairs:
        FindCloseGroupsAllPairs(p, clause, candidates, overlaps);
        break;
      case SgbAllAlgorithm::kBoundsChecking:
        FindCloseGroupsBounds(p, clause, candidates, overlaps);
        break;
      case SgbAllAlgorithm::kIndexed:
      case SgbAllAlgorithm::kGroupsIndex:
        FindCloseGroupsIndexed(p, clause, candidates, overlaps);
        break;
    }
  }

  // ---- ProcessGroupingALL / ProcessOverlap (Procedures 3, 6) ------------

  /// Handles one point; appends deferred point indices to `deferred`.
  void ProcessPoint(size_t point_index, OverlapClause clause,
                    std::vector<size_t>* deferred) {
    const Point& p = points_[point_index];
    FindCloseGroups(p, clause, &candidates_, &overlaps_);

    // ProcessGroupingALL.
    if (candidates_.empty()) {
      CreateGroup(point_index);
    } else if (candidates_.size() == 1) {
      InsertIntoGroup(candidates_[0], point_index);
    } else {
      switch (clause) {
        case OverlapClause::kJoinAny: {
          // Identity keys (when provided) make the pick insertion-stable;
          // see SgbAllOptions::arbitration_keys.
          const size_t arb =
              options_.arbitration_keys.empty()
                  ? point_index
                  : static_cast<size_t>(
                        options_.arbitration_keys[point_index]);
          const size_t pick =
              JoinAnyPick(options_.seed, arb, candidates_.size());
          InsertIntoGroup(candidates_[pick], point_index);
          break;
        }
        case OverlapClause::kEliminate:
          assignment_[point_index] = Grouping::kEliminated;
          break;
        case OverlapClause::kFormNewGroup:
          deferred->push_back(point_index);
          break;
      }
    }

    // ProcessOverlap: pull the overlapped members (those within ε of p) out
    // of partially-matching groups.
    if (clause == OverlapClause::kJoinAny || overlaps_.empty()) return;
    for (const size_t gid : overlaps_) {
      Group& g = groups_[gid];
      // One block scan partitions the members; the split walks them in
      // member order, matching the historical per-member loop exactly.
      MatchMembers(g, p);
      std::vector<size_t> kept;
      kept.reserve(g.members.size());
      bool changed = false;
      for (size_t k = 0; k < g.members.size(); ++k) {
        const size_t m = g.members[k];
        if ((mask_[k / 64] >> (k % 64)) & 1) {
          changed = true;
          if (clause == OverlapClause::kEliminate) {
            assignment_[m] = Grouping::kEliminated;
          } else {  // FORM-NEW-GROUP: re-group in the next round.
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

  /// Processes one round over `todo` with a fresh group universe; returns
  /// the points deferred to the next round. Surviving groups are committed
  /// to the runner-local numbering at round end.
  std::vector<size_t> RunRound(const std::vector<size_t>& todo,
                               OverlapClause clause) {
    groups_.clear();
    if (options_.algorithm == SgbAllAlgorithm::kIndexed) {
      Status fault = g_group_grid_build_fault.Check();
      if (!fault.ok()) throw QueryAbort(std::move(fault));
      grid_.Reset(options_.epsilon);
    } else if (options_.algorithm == SgbAllAlgorithm::kGroupsIndex) {
      Status fault = g_rtree_build_fault.Check();
      if (!fault.ok()) throw QueryAbort(std::move(fault));
      groups_ix_ = index::RTree();
    }

    std::vector<size_t> deferred;
    size_t processed = 0;
    for (const size_t point_index : todo) {
      if (options_.query_ctx != nullptr &&
          processed++ % kAbortCheckStride == 0) {
        ThrowIfAborted(options_.query_ctx);
      }
      ProcessPoint(point_index, clause, &deferred);
    }

    for (const Group& g : groups_) {
      if (!g.alive || g.members.empty()) continue;
      const size_t out = next_local_group_++;
      for (const size_t m : g.members) assignment_[m] = out;
    }
    return deferred;
  }

  std::span<const Point> points_;
  const SgbAllOptions& options_;
  geom::BlockSimilarity block_sim_;
  SgbAllStats* stats_;
  // Per-point scratch: kernel selection mask, FindCloseGroups' outputs and
  // the index probe's group ids.
  std::vector<uint64_t> mask_;
  std::vector<size_t> candidates_;
  std::vector<size_t> overlaps_;
  std::vector<size_t> gids_;

  std::vector<Group> groups_;
  index::GroupGrid grid_;   // kIndexed
  index::RTree groups_ix_;  // kGroupsIndex

  std::vector<size_t>& assignment_;
  size_t next_local_group_ = 0;
};

Grouping RunSerial(std::span<const Point> points,
                   const SgbAllOptions& options, SgbAllStats* stats) {
  std::vector<size_t> assignment(points.size(), Grouping::kEliminated);
  std::vector<size_t> universe(points.size());
  for (size_t i = 0; i < universe.size(); ++i) universe[i] = i;
  SgbAllRunner runner(points, options, stats, assignment);
  runner.Run(std::move(universe));
  stats->kernel_calls += runner.similarity().calls();
  stats->kernel_pairs += runner.similarity().pairs();
  return CanonicalizeLabels(points.size(), assignment, nullptr);
}

/// Partition-parallel SGB-All: decompose the input into the connected
/// components of the 3ε interaction graph, run the sequential algorithm on
/// each component independently, and renumber canonically.
///
/// Why this is exact (and not an approximation): an SGB-All group's members
/// are pairwise within ε, so a group spans at most ε per axis, and a point
/// only ever classifies against — or removes members from — a group it is
/// within ε of. Two points can therefore influence each other's outcome
/// only through chains of points at most 3ε apart per axis. Components of
/// the "within 3ε under L∞" graph are thus closed under every candidate,
/// overlap, and re-grouping interaction, and processing each component's
/// subsequence alone (in input order, with the order-independent JOIN-ANY
/// pick) reproduces the serial result point for point. See
/// docs/PARALLELISM.md for the full argument.
Grouping RunParallel(std::span<const Point> points,
                     const SgbAllOptions& options, SgbAllStats* stats,
                     size_t dop) {
  const size_t n = points.size();
  ThreadPool& pool = ThreadPool::Default();

  std::vector<index::GridPartitionStats> grid_stats;
  index::GridComponents components = index::SimilarityComponents(
      points, Metric::kLInf, 3.0 * options.epsilon, dop, pool, &grid_stats,
      options.query_ctx);

  // Member lists per component (labels are dense in order of first
  // appearance; each list ascending, i.e. in canonical input order).
  const std::vector<size_t>& comp_of = components.component_of;
  std::vector<std::vector<size_t>> comp_members(components.num_components);
  for (size_t i = 0; i < n; ++i) comp_members[comp_of[i]].push_back(i);

  // Largest components first, so stragglers start early.
  std::vector<size_t> comp_order(comp_members.size());
  for (size_t c = 0; c < comp_order.size(); ++c) comp_order[c] = c;
  std::stable_sort(comp_order.begin(), comp_order.end(),
                   [&](size_t a, size_t b) {
                     return comp_members[a].size() > comp_members[b].size();
                   });

  std::vector<size_t> assignment(n, Grouping::kEliminated);
  std::vector<SgbAllStats> slot_stats(dop);
  std::vector<size_t> slot_points(dop, 0);
  // One runner per worker slot, reused for every component the slot runs
  // (its scratch and group grid keep their capacity); local group ids stay
  // unique per (component, id) pair, as CanonicalizeLabels requires.
  std::vector<std::optional<SgbAllRunner>> runners(dop);
  // Worker spans need an explicit parent: ParallelFor workers run on pool
  // threads with no open-span stack of their own.
  obs::QueryTrace* trace =
      options.query_ctx != nullptr ? options.query_ctx->trace() : nullptr;
  const uint64_t parent_span =
      trace != nullptr ? trace->CurrentSpanId() : 0;
  pool.ParallelFor(
      comp_order.size(), dop,
      [&](size_t slot, size_t begin, size_t end) {
        obs::ScopedSpan worker_span(trace, "sgb.worker", parent_span);
        size_t worker_points = 0;
        for (size_t k = begin; k < end; ++k) {
          const std::vector<size_t>& members = comp_members[comp_order[k]];
          slot_points[slot] += members.size();
          worker_points += members.size();
          if (!runners[slot].has_value()) {
            runners[slot].emplace(points, options, &slot_stats[slot],
                                  assignment);
          }
          runners[slot]->Run(members);
        }
        worker_span.AddAttribute("components",
                                 static_cast<double>(end - begin));
        worker_span.AddAttribute("points",
                                 static_cast<double>(worker_points));
      },
      /*grain=*/1);

  if (stats != nullptr) {
    for (size_t w = 0; w < dop; ++w) {
      if (runners[w].has_value()) {
        stats->kernel_calls += runners[w]->similarity().calls();
        stats->kernel_pairs += runners[w]->similarity().pairs();
      }
      stats->kernel_calls += grid_stats[w].kernel_calls;
      stats->kernel_pairs += grid_stats[w].kernel_pairs;
      stats->distance_computations +=
          slot_stats[w].distance_computations +
          grid_stats[w].distance_computations;
      stats->rectangle_tests += slot_stats[w].rectangle_tests;
      stats->hull_tests += slot_stats[w].hull_tests;
      stats->index_window_queries += slot_stats[w].index_window_queries;
      stats->groups_created += slot_stats[w].groups_created;
      stats->regroup_rounds += slot_stats[w].regroup_rounds;
      SgbWorkerStats worker;
      worker.points = slot_points[w];
      worker.distance_computations = slot_stats[w].distance_computations +
                                     grid_stats[w].distance_computations;
      stats->workers.push_back(worker);
    }
    stats->parallel_partitions = comp_members.size();
  }
  return CanonicalizeLabels(n, assignment, &comp_of);
}

}  // namespace

Result<Grouping> SgbAll(std::span<const Point> points,
                        const SgbAllOptions& options, SgbAllStats* stats) {
  if (!(options.epsilon >= 0.0) || !std::isfinite(options.epsilon)) {
    return Status::InvalidArgument(
        "SGB-All: similarity threshold epsilon must be finite and >= 0");
  }
  if (options.max_regroup_rounds < 1) {
    return Status::InvalidArgument(
        "SGB-All: max_regroup_rounds must be >= 1");
  }
  if (options.degree_of_parallelism < 0) {
    return Status::InvalidArgument(
        "SGB-All: degree_of_parallelism must be >= 0 (0 = auto)");
  }
  // Counters always flow into the global registry (the engine operators,
  // benches, and EXPLAIN ANALYZE all read from there); the caller's struct
  // remains the per-invocation view.
  SgbAllStats local;
  if (stats == nullptr) stats = &local;
  const size_t dop = ThreadPool::ResolveDop(options.degree_of_parallelism);
  // ε = 0 degenerates the interaction grid (zero-width cells); those inputs
  // are cheap to group serially anyway.
  const bool parallel = dop > 1 && points.size() >= kMinParallelPoints &&
                        options.epsilon > 0.0;
  Grouping result;
  try {
    // Bookkeeping charge: the assignment/universe vectors (serial) plus the
    // component-decomposition vectors (parallel), all O(n) words.
    ScopedMemoryCharge bookkeeping(
        options.query_ctx,
        points.size() * sizeof(size_t) * (parallel ? 6 : 2));
    result = parallel ? RunParallel(points, options, stats, dop)
                      : RunSerial(points, options, stats);
  } catch (const QueryAbort& abort) {
    // Governance aborts from runner loops (including those rethrown out of
    // ParallelFor workers) surface as the core's Status.
    return abort.status();
  }
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("sgb.all.invocations").Add(1);
  registry.GetCounter("sgb.all.points").Add(points.size());
  registry.GetCounter("sgb.all.distance_computations")
      .Add(stats->distance_computations);
  registry.GetCounter("sgb.all.rectangle_tests").Add(stats->rectangle_tests);
  registry.GetCounter("sgb.all.hull_tests").Add(stats->hull_tests);
  registry.GetCounter("sgb.all.index_window_queries")
      .Add(stats->index_window_queries);
  registry.GetCounter("sgb.all.groups_created").Add(stats->groups_created);
  registry.GetCounter("sgb.all.regroup_rounds").Add(stats->regroup_rounds);
  geom::PublishKernelCounts(stats->kernel_calls, stats->kernel_pairs);
  if (parallel) {
    registry.GetCounter("sgb.all.parallel_runs").Add(1);
    registry.GetCounter("sgb.all.parallel_components")
        .Add(stats->parallel_partitions);
  }
  return result;
}

}  // namespace sgb::core
