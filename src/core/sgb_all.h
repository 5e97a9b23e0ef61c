#ifndef SGB_CORE_SGB_ALL_H_
#define SGB_CORE_SGB_ALL_H_

#include <span>
#include <vector>

#include "common/status.h"
#include "core/sgb_types.h"
#include "geom/point.h"

namespace sgb::core {

/// Execution counters for the benchmark harness (Figures 9–10 report how the
/// three algorithm tiers trade distance computations for index maintenance).
struct SgbAllStats {
  size_t distance_computations = 0;  ///< exact δ evaluations
  size_t rectangle_tests = 0;        ///< ε-All rectangle membership tests
  size_t hull_tests = 0;             ///< convex-hull refinements (L2 only)
  size_t index_window_queries = 0;   ///< Groups_IX window queries
  size_t groups_created = 0;
  size_t regroup_rounds = 0;  ///< FORM-NEW-GROUP recursion depth (paper's m)
  size_t kernel_calls = 0;    ///< block-kernel calls (sgb.kernel.invocations)
  size_t kernel_pairs = 0;    ///< point pairs those calls evaluated
  /// Parallel runs only: number of independent ε-components and the
  /// per-worker-slot breakdown (aggregate counters above always include
  /// every worker).
  size_t parallel_partitions = 0;
  std::vector<SgbWorkerStats> workers;
};

/// The SGB-All (distance-to-all) operator of Section 4.1.
///
/// Streams over `points` in input order, maintaining the invariant that
/// every pair of points inside a group satisfies the similarity predicate
/// ξδ,ε. Points matching several groups are arbitrated by
/// `options.on_overlap`; see Procedures 1–6 of the paper. Like the paper's
/// operator, the result is order-sensitive: permuting the input can change
/// the formed groups (but never the pairwise-ε invariant).
///
/// All three `options.algorithm` tiers produce identical groupings for the
/// same input, options and seed; they differ only in cost.
///
/// Errors: InvalidArgument when ε is negative or not finite.
Result<Grouping> SgbAll(std::span<const geom::Point> points,
                        const SgbAllOptions& options,
                        SgbAllStats* stats = nullptr);

}  // namespace sgb::core

#endif  // SGB_CORE_SGB_ALL_H_
