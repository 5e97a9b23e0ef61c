#ifndef SGB_SQL_PLANNER_H_
#define SGB_SQL_PLANNER_H_

#include <optional>

#include "common/status.h"
#include "engine/catalog.h"
#include "engine/operators.h"
#include "sql/ast.h"

namespace sgb::sql {

/// Binds a parsed SELECT against the catalog and produces an executable
/// operator tree (mirroring the paper's Section 8.2: the planner routes
/// GROUP BY clauses with similarity specifications to the SGB physical
/// operators and plain GROUP BY to the hash aggregate).
///
/// Planning decisions:
///  * FROM items are joined left-to-right; WHERE conjuncts of the form
///    left.col = right.col become hash-join keys, the rest become filters.
///  * Uncorrelated IN (SELECT ...) subqueries are executed at plan time and
///    folded into an in-set probe.
///  * DISTANCE-TO-ALL / DISTANCE-TO-ANY require exactly two GROUP BY
///    expressions; the 1-D clauses require exactly one.
///
/// SGB tier policy (SET sgb_tier). kAuto consults the cost model when the
/// scanned table has statistics and falls back to the historical default
/// (Indexed) otherwise; the other values force a tier. SGB-Any has no
/// bounds-checking tier, so kBounds maps to Indexed there.
enum class TierPolicy {
  kAuto,
  kAllPairs,
  kBounds,
  kIndexed,
};

/// Plain GROUP BY strategy (SET agg_strategy). kAuto uses the cost model's
/// hash-vs-sort regime rules when statistics exist, hash otherwise.
enum class AggStrategy {
  kAuto,
  kHash,
  kSort,
};

/// Session-level planning knobs.
struct PlannerOptions {
  /// Degree of parallelism given to SGB operators when the query carries no
  /// PARALLEL clause, set only by `SET parallel`: 1 = serial, k > 1 = up to
  /// k workers, 0 = auto (one worker per hardware thread). A PARALLEL
  /// clause on the query always wins; with neither (unset here), the plan
  /// is serial unless the cost model raises the dop for a predictably large
  /// similarity workload. Results are identical at every setting
  /// (docs/PARALLELISM.md).
  std::optional<int> default_sgb_dop;
  TierPolicy sgb_tier = TierPolicy::kAuto;
  AggStrategy agg_strategy = AggStrategy::kAuto;
  /// Memory headroom the hash-vs-sort regime rules compare hash-table
  /// footprints against (the statement's budget; 0 = unbounded).
  size_t memory_budget_bytes = 0;
  /// Whether the statement may spill. The sort aggregate cannot spill, so
  /// the auto strategy never picks it when spilling is on.
  bool spill_enabled = false;
};

/// What the cost model decided for one planned statement: the executor
/// copies this into the query log and the admission controller uses the
/// byte estimate. Zero/empty fields mean "no statistics were available".
struct PlanInfo {
  double est_rows = 0;     ///< estimated rows out of the plan root
  double est_bytes = 0;    ///< estimated peak operator footprint
  std::string tier;        ///< chosen SGB tier ("" when the plan has no SGB)
  std::string strategy;    ///< "hash" | "sort" for plain GROUP BY, "" else
  std::string reason;      ///< one-line justification of the choice
  int chosen_dop = 0;      ///< dop the SGB operator actually got
  bool used_stats = false; ///< estimates derived from ANALYZE statistics
};

/// Errors: BindError / NotSupported with context.
Result<engine::OperatorPtr> PlanQuery(const engine::Catalog& catalog,
                                      const SelectStatement& stmt);

Result<engine::OperatorPtr> PlanQuery(const engine::Catalog& catalog,
                                      const SelectStatement& stmt,
                                      const PlannerOptions& options);

Result<engine::OperatorPtr> PlanQuery(const engine::Catalog& catalog,
                                      const SelectStatement& stmt,
                                      const PlannerOptions& options,
                                      PlanInfo* info);

const char* ToString(TierPolicy policy);
const char* ToString(AggStrategy strategy);

}  // namespace sgb::sql

#endif  // SGB_SQL_PLANNER_H_
