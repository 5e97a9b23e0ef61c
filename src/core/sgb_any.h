#ifndef SGB_CORE_SGB_ANY_H_
#define SGB_CORE_SGB_ANY_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/sgb_types.h"
#include "geom/point.h"

namespace sgb::core {

/// Execution counters for the SGB-Any benchmark harness.
struct SgbAnyStats {
  size_t distance_computations = 0;
  size_t index_window_queries = 0;
  size_t union_operations = 0;
  size_t group_merges = 0;  ///< unions that actually merged two groups
  size_t kernel_calls = 0;  ///< block-kernel calls (sgb.kernel.invocations)
  size_t kernel_pairs = 0;  ///< point pairs those calls evaluated
  /// Parallel runs only: number of grid partitions and the per-worker-slot
  /// breakdown (aggregate counters above always include every worker).
  size_t parallel_partitions = 0;
  std::vector<SgbWorkerStats> workers;
};

/// The SGB-Any (distance-to-any) operator of Section 4.2.
///
/// Groups are the connected components of the graph whose edges connect
/// point pairs satisfying ξδ,ε. Unlike SGB-All, the result is
/// order-insensitive and no overlap arbitration is needed: a point touching
/// several groups merges them (Procedure 9, MergeGroupsInsert).
///
/// `kIndexed`, the engine's tier, finds the components on a sorted
/// clique-cell grid (index::SimilarityComponents) at every dop.
/// `kPointsIndex` follows Procedure 8: an R-tree (Points_IX) over
/// processed points answers the ε-window query, and a union-find forest
/// tracks existing, new, and merged groups; it is the paper's reference
/// tier for Figures 9d/10d. `kAllPairs` evaluates all n-choose-2
/// similarity predicates. `kIndexed` and `kAllPairs` agree bit for bit on
/// every input, NaN and ±inf included; `kPointsIndex` agrees with them on
/// finite coordinates whose squared distances do not underflow.
///
/// Errors: InvalidArgument when ε is negative or not finite.
Result<Grouping> SgbAny(std::span<const geom::Point> points,
                        const SgbAnyOptions& options,
                        SgbAnyStats* stats = nullptr);

}  // namespace sgb::core

#endif  // SGB_CORE_SGB_ANY_H_
