#ifndef SGB_CORE_SGB_TYPES_H_
#define SGB_CORE_SGB_TYPES_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/point.h"

namespace sgb {
class QueryContext;  // common/query_context.h
}

namespace sgb::core {

/// ON-OVERLAP arbitration for SGB-All (Section 4.1): what to do when a point
/// satisfies the membership criterion of more than one group.
enum class OverlapClause {
  kJoinAny,       ///< insert into one group chosen at random
  kEliminate,     ///< discard the overlapping point(s)
  kFormNewGroup,  ///< re-group the overlapping point(s) separately
};

/// Algorithm tier for SGB-All (Sections 6.2–6.3). Every tier yields the
/// same grouping; kIndexed and kGroupsIndex classify exactly the groups
/// Bounds-Checking does, found through an index instead of a scan.
enum class SgbAllAlgorithm {
  kAllPairs,        ///< Procedure 2: naive FindCloseGroups, O(n^2)
  kBoundsChecking,  ///< Procedure 4: ε-All rectangles, linear group scan
  /// Procedure 5 on a cell grid over group member MBRs
  /// (index::GroupGrid), at every dop: the engine's tier.
  kIndexed,
  /// Procedure 5 as published: an R-tree (Groups_IX) over the ε-All
  /// rectangles. The reference tier for Figures 9/10 and Table 1.
  kGroupsIndex,
};

/// Algorithm tier for SGB-Any (Section 7).
enum class SgbAnyAlgorithm {
  kAllPairs,     ///< pairwise ε-edges, O(n^2)
  kIndexed,      ///< sorted clique-cell grid + union-find (every dop)
  kPointsIndex,  ///< Procedure 8: R-tree (Points_IX) + union-find, serial
};

const char* ToString(OverlapClause clause);
const char* ToString(SgbAllAlgorithm algorithm);
const char* ToString(SgbAnyAlgorithm algorithm);

/// JOIN-ANY arbitration shared by every SGB-All implementation (2-D and
/// N-D): a SplitMix64 hash of (seed, point index) picks among the candidate
/// groups. Making the pick a pure function of the point — rather than a
/// draw from a sequentially consumed RNG stream — keeps the choice
/// pseudo-random and seed-reproducible while making the result independent
/// of processing interleaving, which is what lets the partition-parallel
/// path reproduce the serial results exactly (docs/PARALLELISM.md).
size_t JoinAnyPick(uint64_t seed, size_t point_index, size_t num_candidates);

/// Per-worker-slot execution breakdown of a parallel SGB run. Serial runs
/// leave the breakdown empty; parallel runs produce one entry per worker
/// slot, which the engine surfaces as the per-partition EXPLAIN ANALYZE
/// annotations (docs/PARALLELISM.md).
struct SgbWorkerStats {
  size_t points = 0;                 ///< points scanned by this worker slot
  size_t distance_computations = 0;  ///< δ evaluations by this worker slot
};

/// Options for the SGB-All operator:
///   GROUP BY x, y DISTANCE-TO-ALL [L2|LINF] WITHIN ε ON-OVERLAP <clause>
struct SgbAllOptions {
  double epsilon = 1.0;
  geom::Metric metric = geom::Metric::kL2;
  OverlapClause on_overlap = OverlapClause::kJoinAny;
  SgbAllAlgorithm algorithm = SgbAllAlgorithm::kIndexed;
  /// Seed for the JOIN-ANY random arbitration; fixed so runs reproduce.
  uint64_t seed = 42;
  /// Safety bound on the FORM-NEW-GROUP re-grouping recursion (the paper's
  /// recursion depth m). Rounds beyond this, or rounds that make no
  /// progress, fall back to JOIN-ANY placement so the operator always
  /// terminates. Documented in DESIGN.md.
  int max_regroup_rounds = 64;
  /// Degree of parallelism: 1 runs the sequential reference path, k > 1
  /// decomposes the input into independent ε-components executed on up to
  /// k workers, 0 means "auto" (one worker per hardware thread). Results
  /// are identical for every setting (docs/PARALLELISM.md).
  int degree_of_parallelism = 1;
  /// Governance context of the query this run executes under (non-owning;
  /// null = ungoverned). The core checks it for cancellation/deadline at
  /// point-stride granularity and charges its index/bookkeeping memory
  /// against its budget.
  QueryContext* query_ctx = nullptr;
  /// Optional per-point arbitration keys (parallel to `points`; empty = use
  /// the point's input index). When set, the JOIN-ANY pick hashes
  /// (seed, arbitration_keys[i]) instead of (seed, i), making the pick a
  /// pure function of the point's identity rather than its position. The
  /// incremental maintenance path (docs/STREAMING.md) relies on this:
  /// a late arrival shifts the canonical indices of every later point, but
  /// with identity keys the batch re-execution and the maintained state
  /// arbitrate identically. Non-owning; must outlive the call.
  std::span<const uint64_t> arbitration_keys;
};

/// Options for the SGB-Any operator:
///   GROUP BY x, y DISTANCE-TO-ANY [L2|LINF] WITHIN ε
struct SgbAnyOptions {
  double epsilon = 1.0;
  geom::Metric metric = geom::Metric::kL2;
  SgbAnyAlgorithm algorithm = SgbAnyAlgorithm::kIndexed;
  /// Degree of parallelism: 1 runs on the calling thread, k > 1 splits the
  /// clique-cell grid among up to k workers (All-Pairs runs the grid too),
  /// 0 means "auto" (one worker per hardware thread). kPointsIndex is
  /// always serial. Results are identical for every setting
  /// (docs/PARALLELISM.md).
  int degree_of_parallelism = 1;
  /// Governance context (see SgbAllOptions::query_ctx).
  QueryContext* query_ctx = nullptr;
};

/// The result of a similarity grouping: a group id per input point, in input
/// order. Group ids are dense, 0-based, and numbered in order of first
/// appearance in the input. Points dropped by ON-OVERLAP ELIMINATE carry
/// `kEliminated`.
struct Grouping {
  static constexpr size_t kEliminated = std::numeric_limits<size_t>::max();

  std::vector<size_t> group_of;
  size_t num_groups = 0;

  /// Member input-indices per group.
  std::vector<std::vector<size_t>> GroupsAsLists() const;

  /// Cardinality of each group (the paper's running `count(*)` example).
  std::vector<size_t> GroupSizes() const;

  /// Number of eliminated points.
  size_t NumEliminated() const;
};

}  // namespace sgb::core

#endif  // SGB_CORE_SGB_TYPES_H_
