#ifndef SGB_ENGINE_OPERATORS_H_
#define SGB_ENGINE_OPERATORS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/query_context.h"
#include "engine/aggregate.h"
#include "engine/expression.h"
#include "engine/schema.h"
#include "engine/table.h"

namespace sgb::engine {

/// Per-operator execution counters, reset on every Open() and rendered by
/// EXPLAIN ANALYZE. Times are inclusive of children (the standard
/// EXPLAIN ANALYZE convention): a blocking operator that drains its child
/// inside Open() accounts that work in `open_ns`.
struct OperatorStats {
  uint64_t rows_produced = 0;  ///< rows emitted via NextBatch()
  uint64_t batches = 0;        ///< non-empty batches emitted via NextBatch()
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;            ///< cumulative across all NextBatch() calls
  uint64_t peak_memory_bytes = 0;  ///< approx. materialized state high-water

  /// Operator-specific counters (SGB distance computations, hash-table
  /// groups, ...); name-sorted so EXPLAIN ANALYZE output is deterministic.
  std::map<std::string, uint64_t> extra;

  uint64_t TotalNs() const { return open_ns + next_ns; }
  double TotalMillis() const { return static_cast<double>(TotalNs()) / 1e6; }
};

/// The finished output of a blocking operator (aggregates, sort, spilled
/// join, SGB): filled once in Open(), handed out batch by batch.
struct BufferedRows {
  std::vector<Row> rows;
  size_t next = 0;  ///< first row not yet emitted

  /// Moves up to out->capacity() rows into `out`; false once drained.
  bool Emit(RowBatch* out);

  /// Drops the rows and their allocation.
  void Release() {
    std::vector<Row>().swap(rows);
    next = 0;
  }
};

/// Pull-based (Volcano) physical operator. The executor calls Open() once,
/// then NextBatch() until it returns false, then Close(). Operators own
/// their children.
///
/// Open()/NextBatch() are non-virtual instrumented entry points: they
/// maintain the OperatorStats block (row counts and cumulative wall time)
/// and delegate to the protected OpenImpl()/NextBatchImpl() hooks
/// subclasses implement. Parents call children through the public entry
/// points, so every node in a plan accumulates stats with no per-operator
/// plumbing.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual const Schema& schema() const = 0;
  virtual std::string name() const = 0;

  /// One-line description for EXPLAIN output (operator name + key
  /// parameters, e.g. "Filter (#1(price) > 20)").
  virtual std::string label() const { return name(); }

  /// Child operators, for plan rendering. Non-owning.
  virtual std::vector<const Operator*> children() const { return {}; }

  void Open() {
    stats_ = OperatorStats{};
    ReleaseCharge();
    ThrowIfAborted(ctx_);
    const auto t0 = std::chrono::steady_clock::now();
    OpenImpl();
    stats_.open_ns = ElapsedNs(t0);
  }

  /// Fills `out` with 1 to out->capacity() rows and returns true, or
  /// returns false once the operator is exhausted (out is left empty).
  /// Checks governance once per call; a batch's rows count toward
  /// rows_produced exactly once.
  bool NextBatch(RowBatch* out);

  /// Frees this subtree's buffers and memory charges after a run, so a
  /// cached plan keeps no rows between runs; stats stay readable.
  void Close();

  /// Counters from the most recent (possibly still running) execution.
  const OperatorStats& stats() const { return stats_; }

  /// Attaches the per-execution governance context (cancel flag, deadline,
  /// memory budget) to this operator and, recursively, to every child.
  /// Called by Database::Query before Open(); a null context (the default)
  /// disables all governance checks.
  void SetQueryContext(QueryContext* ctx);

  QueryContext* query_context() const { return ctx_; }

  /// Plan-time footprint estimate for admission control: roughly how many
  /// bytes this subtree will hold at peak. The default sums the children
  /// (a blocking operator's state is on the order of its input); TableScan
  /// anchors the recursion with rows × row-width. Deliberately coarse —
  /// admission only needs the right order of magnitude. When the planner's
  /// cost model annotated this node (plan_estimate().bytes >= 0), the
  /// statistics-driven estimate wins.
  virtual size_t EstimateFootprintBytes() const {
    size_t total = 0;
    for (const Operator* child : children()) {
      total += child->EstimateFootprintBytes();
    }
    return total;
  }

  /// Cost-model annotation attached by the planner when table statistics
  /// were available. rows/bytes < 0 mean "not annotated". EXPLAIN renders
  /// annotated nodes with est_rows=/est_bytes= (and the note, which carries
  /// decisions like "tier=bounds reason=low-density"); EXPLAIN ANALYZE
  /// prints est_rows beside the actual row count so estimate drift is
  /// visible; admission control prefers the root's bytes over
  /// EstimateFootprintBytes().
  struct PlanEstimate {
    double rows = -1;
    double bytes = -1;
    std::string note;
  };

  void set_plan_estimate(PlanEstimate estimate) {
    plan_estimate_ = std::move(estimate);
  }
  const PlanEstimate& plan_estimate() const { return plan_estimate_; }

 protected:
  virtual void OpenImpl() = 0;
  /// `out` arrives empty; same contract as NextBatch().
  virtual bool NextBatchImpl(RowBatch* out) = 0;
  /// Blocking operators swap their buffers with empty ones.
  virtual void CloseImpl() {}

  /// For subclasses publishing memory estimates or extra counters.
  OperatorStats& mutable_stats() { return stats_; }

  /// Publishes `bytes` as this operator's materialized-state high-water
  /// mark AND charges the delta against the query's memory tracker (when a
  /// context is attached), throwing QueryAbort with ResourceExhausted when
  /// the budget does not cover it. Call with the current total held by the
  /// operator; repeated calls re-charge only the difference. The charge is
  /// released by Close() and by the next Open().
  void ChargeMemory(size_t bytes);

  /// Non-throwing variant of ChargeMemory for spill-capable operators:
  /// returns false (leaving the existing charge untouched) when the budget
  /// does not cover `bytes`, so the caller can switch to its out-of-core
  /// path instead of aborting the query.
  bool TryChargeMemory(size_t bytes);

  /// Whether this execution should spill instead of failing on a budget
  /// breach (SET spill = 1 carried by the QueryContext).
  bool SpillEnabled() const {
    return ctx_ != nullptr && ctx_->spill().enabled;
  }

  /// Raises the governance abort (cancel/deadline) from inside an Impl.
  void CheckAbort() const { ThrowIfAborted(ctx_); }

 private:
  void ReleaseCharge() {
    if (ctx_ != nullptr && charged_bytes_ > 0) {
      ctx_->memory().Release(charged_bytes_);
    }
    charged_bytes_ = 0;
  }

  static uint64_t ElapsedNs(std::chrono::steady_clock::time_point t0) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
  }

  OperatorStats stats_;
  QueryContext* ctx_ = nullptr;
  size_t charged_bytes_ = 0;
  PlanEstimate plan_estimate_;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// The one scan: pins `source` at every Open() and streams that snapshot,
/// so a re-opened plan sees rows appended since its last run but never a
/// concurrent append mid-flight. EXPLAIN labels it "TableScan <qualifier>",
/// suffixed " (snapshot)" for append-only and " (paged)" for disk-backed
/// sources.
OperatorPtr MakeTableScan(TableSourcePtr source,
                          const std::string& qualifier = "");

/// Emits child rows whose predicate evaluates truthy.
OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate);

/// Evaluates one expression per output column.
OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<Column> output_columns);

/// Standard hash-based GROUP BY: one output row per distinct key, columns
/// are [group exprs..., aggregates...]. With no group expressions, a single
/// global group is emitted even for empty input (SQL semantics).
/// `est_groups` (0 = unknown) seeds the hash table and output reservations
/// from the stats-predicted group count so the table is sized once instead
/// of rehash-growing; the estimate is logged as the `est_groups` operator
/// extra beside the actual `groups`.
OperatorPtr MakeHashAggregate(OperatorPtr child,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<Column> group_columns,
                              std::vector<AggregateSpec> aggregates,
                              size_t est_groups = 0);

/// Sort-based GROUP BY: sorts the input by key and aggregates adjacent
/// runs. Output rows and their order are bit-identical to the hash
/// aggregate (first-appearance order), so the planner can switch strategy
/// per the hash-vs-sort cost regimes without changing results. Preferable
/// when the predicted group count approaches the row count (the hash
/// table's per-group overhead dominates).
OperatorPtr MakeSortAggregate(OperatorPtr child,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<Column> group_columns,
                              std::vector<AggregateSpec> aggregates);

/// Hash equi-join (inner). Output schema is left columns ++ right columns.
OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys);

/// Nested-loop inner join with an arbitrary predicate (nullptr = cross
/// join). Fallback when no equi-key is available.
OperatorPtr MakeNestedLoopJoin(OperatorPtr left, OperatorPtr right,
                               ExprPtr predicate);

struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Blocking full sort.
OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys);

OperatorPtr MakeLimit(OperatorPtr child, size_t limit);

/// Drains `root` into a materialized table (schema copied from the
/// operator), then closes the plan.
Result<Table> Materialize(Operator& root);

/// Renders the operator tree as an indented EXPLAIN-style listing:
///   Sort (#1 desc)
///     HashAggregate (keys=1, aggs=2)
///       TableScan orders
std::string ExplainPlan(const Operator& root);

/// Renders the operator tree annotated with the execution counters of the
/// most recent run (the caller executes the plan first — see
/// Database::ExplainAnalyze):
///   Sort [...] (rows=10 time=0.213ms)
///     SimilarityGroupByAll (...) (rows=10 time=0.180ms mem=2.1KB
///                                 dist_comps=812 groups=10)
std::string ExplainAnalyzePlan(const Operator& root);

/// Human-readable byte count ("2.1KB", "3.0MB") — the formatting used for
/// mem=/peak_mem= annotations in EXPLAIN ANALYZE.
std::string FormatMemoryBytes(uint64_t bytes);

}  // namespace sgb::engine

#endif  // SGB_ENGINE_OPERATORS_H_
