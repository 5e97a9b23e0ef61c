#ifndef SGB_ENGINE_AGGREGATE_H_
#define SGB_ENGINE_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/expression.h"

namespace sgb::engine {

/// Aggregate functions available in SELECT lists. Besides the SQL
/// standards, the paper's application queries (Section 5) use:
///  * ARRAY_AGG / LIST_ID — collects the argument values into a
///    "{v1,v2,...}" string (the paper's List-ID user-defined aggregate);
///  * ST_POLYGON(x, y) — WKT polygon of the convex hull of the group's
///    points (the paper's group-enclosing polygon).
enum class AggregateKind {
  kCountStar,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kArrayAgg,
  kStPolygon,
  kCountDistinct,  ///< count(DISTINCT x)
  kVariance,       ///< var(x) — sample variance (Welford)
  kStddev,         ///< stddev(x) — sample standard deviation
};

const char* ToString(AggregateKind kind);

/// Resolves an aggregate by SQL name (case-insensitive); NotFound when the
/// name is not an aggregate function ("list_id" maps to kArrayAgg).
Result<AggregateKind> AggregateKindFromName(const std::string& name);

/// Number of arguments the aggregate requires.
size_t AggregateArity(AggregateKind kind);

/// One bound aggregate call: the function plus its argument expressions
/// (evaluated against the aggregate input's child rows).
struct AggregateSpec {
  AggregateKind kind = AggregateKind::kCountStar;
  std::vector<ExprPtr> args;
  std::string output_name;
};

/// Per-group accumulator. NULL arguments are ignored by all aggregates
/// except COUNT(*). Empty groups finalize to 0 for counts and NULL
/// otherwise.
class AggregateState {
 public:
  virtual ~AggregateState() = default;
  virtual void Add(const Row& row) = 0;
  virtual Value Finalize() const = 0;
};

std::unique_ptr<AggregateState> CreateAggregateState(
    const AggregateSpec& spec);

/// The group of rows that belong to no group (NULL grouping attributes,
/// rows ON-OVERLAP ELIMINATE drops).
constexpr size_t kNoGroup = static_cast<size_t>(-1);

/// One aggregate call accumulated for many groups at once, straight from
/// its argument columns (the SGB operator). Each group sees the same cells
/// in the same order an AggregateState would, so results are bit-identical.
class GroupedAggregate {
 public:
  virtual ~GroupedAggregate() = default;
  /// Adds row i of the argument columns (one per argument) to group
  /// `group_of[i]`, for i in [0, n); kNoGroup rows are skipped.
  virtual void Update(const ColumnVector* const* args, const size_t* group_of,
                      size_t n) = 0;
  /// The group's result; moves it out, so call it once per group.
  virtual Value Finalize(size_t group) = 0;
};

std::unique_ptr<GroupedAggregate> CreateGroupedAggregate(AggregateKind kind,
                                                         size_t num_groups);

/// Result type the aggregate will produce (for output schemas).
DataType AggregateOutputType(AggregateKind kind);

}  // namespace sgb::engine

#endif  // SGB_ENGINE_AGGREGATE_H_
