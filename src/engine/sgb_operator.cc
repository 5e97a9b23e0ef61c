#include "engine/sgb_operator.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "core/sgb_all.h"
#include "core/sgb_any.h"
#include "core/sgb_nd.h"
#include "engine/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sgb::engine {

// Fires between input buffering and the core grouping run — the point
// where the SGB operator commits to its most expensive phase.
static FaultSite g_sgb_build_fault("engine.sgb.build",
                                   Status::Code::kInternal);

namespace {

void ThrowIfError(Status status) {
  if (!status.ok()) throw QueryAbort(std::move(status));
}

std::unique_ptr<SpillFile> CreateSpillFileOrThrow(const std::string& dir) {
  Result<std::unique_ptr<SpillFile>> file = SpillFile::Create(dir);
  if (!file.ok()) throw QueryAbort(file.status());
  return std::move(file).value();
}

bool NextOrThrow(SpillFile* file, Row* row) {
  Result<bool> more = file->Next(row);
  if (!more.ok()) throw QueryAbort(more.status());
  return more.value();
}

std::string DescribeDop(int dop) {
  if (dop == 1) return "";  // serial is the default; keep labels terse
  if (dop == 0) return ", dop=auto";
  return ", dop=" + std::to_string(dop);
}

std::string DescribeMode(const SgbMode& mode) {
  if (const auto* all = std::get_if<core::SgbAllOptions>(&mode)) {
    return std::string(" (eps=") + engine::Value::Double(all->epsilon)
               .ToString() +
           ", " + (all->metric == geom::Metric::kL2 ? "L2" : "LINF") + ", " +
           core::ToString(all->on_overlap) + ", " +
           core::ToString(all->algorithm) +
           DescribeDop(all->degree_of_parallelism) + ")";
  }
  const auto& any = std::get<core::SgbAnyOptions>(mode);
  return std::string(" (eps=") + engine::Value::Double(any.epsilon)
             .ToString() +
         ", " + (any.metric == geom::Metric::kL2 ? "L2" : "LINF") +
         DescribeDop(any.degree_of_parallelism) + ")";
}

/// Per-worker-slot EXPLAIN ANALYZE annotations for parallel runs:
/// "w<i>.points" / "w<i>.dist_comps" break the aggregate counters down by
/// worker so skew across partitions is visible per plan node
/// (docs/PARALLELISM.md).
void PublishWorkerBreakdown(size_t partitions,
                            const std::vector<core::SgbWorkerStats>& workers,
                            OperatorStats* out) {
  if (workers.empty()) return;
  out->extra["dop"] = workers.size();
  out->extra["partitions"] = partitions;
  for (size_t w = 0; w < workers.size(); ++w) {
    const std::string prefix = "w" + std::to_string(w) + ".";
    out->extra[prefix + "points"] = workers[w].points;
    out->extra[prefix + "dist_comps"] = workers[w].distance_computations;
  }
}

/// Copies the core algorithm counters into the operator's stats block so
/// EXPLAIN ANALYZE can render them per plan node. Zero-valued counters are
/// skipped to keep the annotation noise-free (e.g. no hull_tests for L∞).
void PublishSgbAllStats(const core::SgbAllStats& s, OperatorStats* out) {
  out->extra["dist_comps"] = s.distance_computations;
  if (s.rectangle_tests > 0) out->extra["rect_tests"] = s.rectangle_tests;
  if (s.hull_tests > 0) out->extra["hull_tests"] = s.hull_tests;
  if (s.index_window_queries > 0) {
    out->extra["window_queries"] = s.index_window_queries;
  }
  if (s.regroup_rounds > 0) out->extra["regroup_rounds"] = s.regroup_rounds;
  PublishWorkerBreakdown(s.parallel_partitions, s.workers, out);
}

void PublishSgbAnyStats(const core::SgbAnyStats& s, OperatorStats* out) {
  out->extra["dist_comps"] = s.distance_computations;
  if (s.index_window_queries > 0) {
    out->extra["window_queries"] = s.index_window_queries;
  }
  if (s.union_operations > 0) out->extra["union_ops"] = s.union_operations;
  if (s.group_merges > 0) out->extra["group_merges"] = s.group_merges;
  PublishWorkerBreakdown(s.parallel_partitions, s.workers, out);
}

/// Shared driver for the 2-D and 1-D variants: drains the child, labels
/// every row with a group id (or "no group"), then aggregates per group.
class SgbOperatorBase : public Operator {
 public:
  SgbOperatorBase(OperatorPtr child, std::vector<AggregateSpec> aggregates)
      : child_(std::move(child)), aggregates_(std::move(aggregates)) {
    Schema s;
    s.AddColumn(Column{"group_id", DataType::kInt64, ""});
    for (const AggregateSpec& a : aggregates_) {
      s.AddColumn(Column{a.output_name, AggregateOutputType(a.kind), ""});
    }
    schema_ = std::move(s);
  }

  const Schema& schema() const override { return schema_; }

  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  void OpenImpl() override {
    child_->Open();
    CloseImpl();

    // Drain the child. The coordinate columns are extracted per row as it
    // arrives (they must stay in RAM for the grouping core); the full row
    // payloads — the dominant memory — are what the spill path moves to
    // disk when the budget pushes back. Rows are spilled in input order,
    // so the streamed re-aggregation below is bit-identical to the
    // in-memory one.
    size_t row_count = 0;
    const bool spill = SpillEnabled();
    size_t mem_estimate = 0;
    RowBatch batch;
    while (child_->NextBatch(&batch)) {
      for (Row& row : batch.rows()) {
        AddPoint(row, row_count++);
        if (spilled_rows_ != nullptr) {
          ThrowIfError(spilled_rows_->Append(row));
          continue;
        }
        mem_estimate += sizeof(Row) + row.capacity() * sizeof(Value);
        rows_.push_back(std::move(row));
        if (!spill || TryChargeMemory(mem_estimate + PointBytes())) continue;
        // Budget breached: move the buffered rows to disk and keep
        // streaming the remaining input straight there.
        SpillBufferedRows();
      }
    }
    if (spilled_rows_ != nullptr) {
      FinishSpill();
    } else if (!spill) {
      ChargeMemory(ApproxRowVectorBytes(rows_) + PointBytes());
    }
    {
      Status fault = g_sgb_build_fault.Check();
      if (!fault.ok()) throw QueryAbort(std::move(fault));
    }

    size_t num_groups = 0;
    std::vector<size_t> group_of;
    {
      // The grouping phase is the operator's hot core; it gets its own
      // trace span with the group count, memory delta, and the run's SIMD
      // kernel invocations attached (PROFILE's mem_bytes/kernels columns).
      kernel_calls_ = 0;
      const size_t mem_before =
          query_context() != nullptr ? query_context()->memory().usage_bytes()
                                     : 0;
      obs::ScopedSpan group_span(Trace(), "sgb.group");
      // The grouping core makes its own transient charges (union-find
      // bookkeeping, grid cells). When the drain fit in memory but left no
      // headroom for them, spill the buffered rows after the fact and label
      // again against the freed budget.
      try {
        group_of = LabelPoints(row_count, &num_groups);
      } catch (const QueryAbort& abort) {
        if (!SpillEnabled() || spilled_rows_ != nullptr ||
            abort.status().code() != Status::Code::kResourceExhausted) {
          throw;
        }
        SpillBufferedRows();
        FinishSpill();
        group_of = LabelPoints(row_count, &num_groups);
      }
      group_span.AddAttribute("groups", static_cast<double>(num_groups));
      group_span.AddAttribute("kernels", static_cast<double>(kernel_calls_));
      if (query_context() != nullptr) {
        group_span.AddAttribute(
            "mem_bytes",
            static_cast<double>(query_context()->memory().usage_bytes()) -
                static_cast<double>(mem_before));
      }
    }
    mutable_stats().extra["groups"] = num_groups;
    // Cost-model prediction beside the actual, so EXPLAIN ANALYZE shows the
    // estimator's drift per plan node (absent when ANALYZE never ran).
    if (plan_estimate().rows >= 0) {
      mutable_stats().extra["est_groups"] =
          static_cast<uint64_t>(plan_estimate().rows);
    }

    std::vector<std::vector<std::unique_ptr<AggregateState>>> states(
        num_groups);
    for (auto& group_states : states) {
      group_states.reserve(aggregates_.size());
      for (const AggregateSpec& a : aggregates_) {
        group_states.push_back(CreateAggregateState(a));
      }
    }
    if (spilled_rows_ == nullptr) {
      for (size_t i = 0; i < rows_.size(); ++i) {
        const size_t g = group_of[i];
        if (g == kNoGroup) continue;
        for (auto& state : states[g]) state->Add(rows_[i]);
      }
    } else {
      // Stream the spilled rows back in input order; the aggregation adds
      // in exactly the order the in-memory loop would.
      obs::ScopedSpan read_span(Trace(), "spill.read");
      read_span.AddAttribute("bytes",
                             static_cast<double>(spilled_rows_->bytes()));
      Row row;
      size_t i = 0;
      while (NextOrThrow(spilled_rows_.get(), &row)) {
        const size_t g = group_of[i++];
        if (g == kNoGroup) continue;
        for (auto& state : states[g]) state->Add(row);
      }
      spilled_rows_.reset();
    }
    results_.rows.reserve(num_groups);
    for (size_t g = 0; g < num_groups; ++g) {
      Row out;
      out.reserve(1 + aggregates_.size());
      out.push_back(Value::Int(static_cast<int64_t>(g)));
      for (const auto& state : states[g]) out.push_back(state->Finalize());
      results_.rows.push_back(std::move(out));
    }
    rows_.clear();
    ChargeMemory(PointBytes() + ApproxRowVectorBytes(results_.rows));
  }

  bool NextBatchImpl(RowBatch* out) override { return results_.Emit(out); }

  void CloseImpl() override {
    std::vector<Row>().swap(rows_);
    results_.Release();
    spilled_rows_.reset();
    ResetPoints();
  }

 protected:
  static constexpr size_t kNoGroup = static_cast<size_t>(-1);

  /// Incremental labeling interface. The base drains the child calling
  /// AddPoint(row, input_index) per row — implementations extract and keep
  /// only the coordinate columns (PointBytes() reports how much RAM that
  /// is) — then calls LabelPoints once, which runs the grouping core and
  /// assigns a group id in [0, *num_groups) — or kNoGroup — to every input
  /// index. Implementations publish their core-algorithm counters
  /// (distance computations, rectangle tests, ...) into
  /// mutable_stats().extra. ResetPoints() frees the extracted coordinates.
  virtual void ResetPoints() = 0;
  virtual void AddPoint(const Row& row, size_t index) = 0;
  virtual size_t PointBytes() const = 0;
  virtual std::vector<size_t> LabelPoints(size_t num_rows,
                                          size_t* num_groups) = 0;

  /// Block-kernel calls of this execution's grouping core, which
  /// LabelPoints adds up (the "kernels" attribute of the sgb.group span).
  size_t kernel_calls_ = 0;

 private:
  /// Span sink for this execution (null when untraced).
  obs::QueryTrace* Trace() const {
    return query_context() != nullptr ? query_context()->trace() : nullptr;
  }

  /// Moves the in-memory row buffer to a spill file (preserving input
  /// order) and drops its budget charge; only the coordinate SoA stays
  /// resident. The aggregation pass streams the file back.
  void SpillBufferedRows() {
    obs::ScopedSpan write_span(Trace(), "spill.write");
    spilled_rows_ = CreateSpillFileOrThrow(query_context()->spill().directory);
    for (const Row& buffered : rows_) {
      ThrowIfError(spilled_rows_->Append(buffered));
    }
    write_span.AddAttribute("rows", static_cast<double>(rows_.size()));
    rows_.clear();
    ChargeMemory(PointBytes());
  }

  void FinishSpill() {
    ThrowIfError(spilled_rows_->FinishWrites());
    if (query_context() != nullptr) {
      query_context()->AddSpill(spilled_rows_->bytes());
    }
    mutable_stats().extra["spilled"] += 1;
    mutable_stats().extra["spill_bytes"] += spilled_rows_->bytes();
    obs::MetricsRegistry::Global().GetCounter("spill.events").Add(1);
  }

  OperatorPtr child_;
  std::vector<AggregateSpec> aggregates_;
  Schema schema_;
  std::vector<Row> rows_;
  BufferedRows results_;
  std::unique_ptr<SpillFile> spilled_rows_;  ///< input rows, when spilling
};

class SgbOperator2d final : public SgbOperatorBase {
 public:
  SgbOperator2d(OperatorPtr child, ExprPtr x_expr, ExprPtr y_expr,
                SgbMode mode, std::vector<AggregateSpec> aggregates)
      : SgbOperatorBase(std::move(child), std::move(aggregates)),
        x_expr_(std::move(x_expr)),
        y_expr_(std::move(y_expr)),
        mode_(std::move(mode)) {}

  std::string name() const override {
    return std::holds_alternative<core::SgbAllOptions>(mode_)
               ? "SimilarityGroupByAll"
               : "SimilarityGroupByAny";
  }

  std::string label() const override { return name() + DescribeMode(mode_); }

 protected:
  void ResetPoints() override {
    std::vector<geom::Point>().swap(points_);
    std::vector<size_t>().swap(point_row_);
  }

  void AddPoint(const Row& row, size_t index) override {
    const Value x = x_expr_->Evaluate(row);
    const Value y = y_expr_->Evaluate(row);
    if (x.is_null() || y.is_null()) return;
    points_.push_back(geom::Point{x.ToDouble(), y.ToDouble()});
    point_row_.push_back(index);
  }

  size_t PointBytes() const override {
    return points_.capacity() * sizeof(geom::Point) +
           point_row_.capacity() * sizeof(size_t);
  }

  std::vector<size_t> LabelPoints(size_t num_rows,
                                  size_t* num_groups) override {
    core::Grouping grouping;
    if (const auto* all = std::get_if<core::SgbAllOptions>(&mode_)) {
      core::SgbAllOptions opts = *all;
      opts.query_ctx = query_context();
      core::SgbAllStats core_stats;
      Result<core::Grouping> r = core::SgbAll(points_, opts, &core_stats);
      PublishSgbAllStats(core_stats, &mutable_stats());
      kernel_calls_ += core_stats.kernel_calls;
      // Options are validated at plan time, so a non-OK result here is a
      // governance abort (cancel/deadline/budget/fault) from the core.
      if (!r.ok()) throw QueryAbort(r.status());
      grouping = std::move(r.value());
    } else {
      core::SgbAnyOptions opts = std::get<core::SgbAnyOptions>(mode_);
      opts.query_ctx = query_context();
      core::SgbAnyStats core_stats;
      Result<core::Grouping> r = core::SgbAny(points_, opts, &core_stats);
      PublishSgbAnyStats(core_stats, &mutable_stats());
      kernel_calls_ += core_stats.kernel_calls;
      if (!r.ok()) throw QueryAbort(r.status());
      grouping = std::move(r.value());
    }

    std::vector<size_t> group_of(num_rows, kNoGroup);
    for (size_t k = 0; k < point_row_.size(); ++k) {
      if (grouping.group_of[k] != core::Grouping::kEliminated) {
        group_of[point_row_[k]] = grouping.group_of[k];
      }
    }
    *num_groups = grouping.num_groups;
    ResetPoints();
    return group_of;
  }

 private:
  ExprPtr x_expr_;
  ExprPtr y_expr_;
  SgbMode mode_;
  std::vector<geom::Point> points_;
  std::vector<size_t> point_row_;  // input row of each grouped point
};

class SgbOperator3d final : public SgbOperatorBase {
 public:
  SgbOperator3d(OperatorPtr child, ExprPtr x_expr, ExprPtr y_expr,
                ExprPtr z_expr, SgbMode mode,
                std::vector<AggregateSpec> aggregates)
      : SgbOperatorBase(std::move(child), std::move(aggregates)),
        x_expr_(std::move(x_expr)),
        y_expr_(std::move(y_expr)),
        z_expr_(std::move(z_expr)),
        mode_(std::move(mode)) {}

  std::string name() const override {
    return std::holds_alternative<core::SgbAllOptions>(mode_)
               ? "SimilarityGroupByAll3d"
               : "SimilarityGroupByAny3d";
  }

  std::string label() const override { return name() + DescribeMode(mode_); }

 protected:
  void ResetPoints() override {
    std::vector<geom::PointN<3>>().swap(points_);
    std::vector<size_t>().swap(point_row_);
  }

  void AddPoint(const Row& row, size_t index) override {
    const Value x = x_expr_->Evaluate(row);
    const Value y = y_expr_->Evaluate(row);
    const Value z = z_expr_->Evaluate(row);
    if (x.is_null() || y.is_null() || z.is_null()) return;
    points_.push_back(
        geom::PointN<3>{{x.ToDouble(), y.ToDouble(), z.ToDouble()}});
    point_row_.push_back(index);
  }

  size_t PointBytes() const override {
    return points_.capacity() * sizeof(geom::PointN<3>) +
           point_row_.capacity() * sizeof(size_t);
  }

  std::vector<size_t> LabelPoints(size_t num_rows,
                                  size_t* num_groups) override {
    core::Grouping grouping;
    if (const auto* all = std::get_if<core::SgbAllOptions>(&mode_)) {
      core::SgbAllOptions opts = *all;
      opts.query_ctx = query_context();
      core::SgbAllStats core_stats;
      Result<core::Grouping> r = core::SgbAllNd<3>(points_, opts, &core_stats);
      PublishSgbAllStats(core_stats, &mutable_stats());
      if (!r.ok()) throw QueryAbort(r.status());
      grouping = std::move(r).value();
    } else {
      core::SgbAnyOptions opts = std::get<core::SgbAnyOptions>(mode_);
      opts.query_ctx = query_context();
      core::SgbAnyStats core_stats;
      Result<core::Grouping> r = core::SgbAnyNd<3>(points_, opts, &core_stats);
      PublishSgbAnyStats(core_stats, &mutable_stats());
      if (!r.ok()) throw QueryAbort(r.status());
      grouping = std::move(r).value();
    }

    std::vector<size_t> group_of(num_rows, kNoGroup);
    for (size_t k = 0; k < point_row_.size(); ++k) {
      if (grouping.group_of[k] != core::Grouping::kEliminated) {
        group_of[point_row_[k]] = grouping.group_of[k];
      }
    }
    *num_groups = grouping.num_groups;
    ResetPoints();
    return group_of;
  }

 private:
  ExprPtr x_expr_;
  ExprPtr y_expr_;
  ExprPtr z_expr_;
  SgbMode mode_;
  std::vector<geom::PointN<3>> points_;
  std::vector<size_t> point_row_;
};

class SgbOperator1d final : public SgbOperatorBase {
 public:
  SgbOperator1d(OperatorPtr child, ExprPtr value_expr, Sgb1dMode mode,
                std::vector<AggregateSpec> aggregates)
      : SgbOperatorBase(std::move(child), std::move(aggregates)),
        value_expr_(std::move(value_expr)),
        mode_(std::move(mode)) {}

  std::string name() const override { return "SimilarityGroupBy1d"; }

 protected:
  void ResetPoints() override {
    std::vector<double>().swap(values_);
    std::vector<size_t>().swap(value_row_);
  }

  void AddPoint(const Row& row, size_t index) override {
    const Value v = value_expr_->Evaluate(row);
    if (v.is_null() || !v.IsNumeric()) return;
    values_.push_back(v.ToDouble());
    value_row_.push_back(index);
  }

  size_t PointBytes() const override {
    return values_.capacity() * sizeof(double) +
           value_row_.capacity() * sizeof(size_t);
  }

  std::vector<size_t> LabelPoints(size_t num_rows,
                                  size_t* num_groups) override {
    Result<core::Grouping1D> r = [&]() -> Result<core::Grouping1D> {
      if (const auto* u = std::get_if<Sgb1dUnsupervised>(&mode_)) {
        return core::SgbUnsupervised(values_, u->max_separation,
                                     u->max_diameter);
      }
      if (const auto* a = std::get_if<Sgb1dAround>(&mode_)) {
        return core::SgbAround(values_, a->centers, a->max_separation,
                               a->max_diameter);
      }
      const auto& d = std::get<Sgb1dDelimited>(mode_);
      return core::SgbDelimited(values_, d.delimiters);
    }();
    const core::Grouping1D grouping =
        r.ok() ? std::move(r.value()) : core::Grouping1D{};

    std::vector<size_t> group_of(num_rows, kNoGroup);
    for (size_t k = 0; k < value_row_.size(); ++k) {
      if (grouping.group_of[k] != core::Grouping1D::kUngrouped) {
        group_of[value_row_[k]] = grouping.group_of[k];
      }
    }
    *num_groups = grouping.num_groups;
    ResetPoints();
    return group_of;
  }

 private:
  ExprPtr value_expr_;
  Sgb1dMode mode_;
  std::vector<double> values_;
  std::vector<size_t> value_row_;
};

}  // namespace

OperatorPtr MakeSimilarityGroupBy(OperatorPtr child, ExprPtr x_expr,
                                  ExprPtr y_expr, SgbMode mode,
                                  std::vector<AggregateSpec> aggregates) {
  return std::make_unique<SgbOperator2d>(std::move(child), std::move(x_expr),
                                         std::move(y_expr), std::move(mode),
                                         std::move(aggregates));
}

OperatorPtr MakeSimilarityGroupBy3d(OperatorPtr child, ExprPtr x_expr,
                                    ExprPtr y_expr, ExprPtr z_expr,
                                    SgbMode mode,
                                    std::vector<AggregateSpec> aggregates) {
  return std::make_unique<SgbOperator3d>(
      std::move(child), std::move(x_expr), std::move(y_expr),
      std::move(z_expr), std::move(mode), std::move(aggregates));
}

OperatorPtr MakeSimilarityGroupBy1d(OperatorPtr child, ExprPtr value_expr,
                                    Sgb1dMode mode,
                                    std::vector<AggregateSpec> aggregates) {
  return std::make_unique<SgbOperator1d>(std::move(child),
                                         std::move(value_expr),
                                         std::move(mode),
                                         std::move(aggregates));
}

}  // namespace sgb::engine
