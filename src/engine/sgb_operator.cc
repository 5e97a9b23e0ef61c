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

// The cores mark points outside every group with the operator's kNoGroup.
static_assert(core::Grouping::kEliminated == kNoGroup);
static_assert(core::Grouping1D::kUngrouped == kNoGroup);

/// A column of doubles with no NULL: coordinates read straight from it.
bool IsDenseDoubles(const ColumnVector& column) {
  return column.layout() == ColumnVector::Layout::kDouble && !column.has_nulls();
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

/// Shared driver for the 1-D, 2-D and 3-D variants: drains the child batch
/// by batch, appending the coordinate columns to the point array and
/// buffering only the aggregate-argument columns; labels every input row
/// with a group id (or kNoGroup); then aggregates per group from the
/// argument columns and emits the groups as columns.
class SgbOperatorBase : public Operator {
 public:
  SgbOperatorBase(OperatorPtr child, std::vector<AggregateSpec> aggregates)
      : child_(std::move(child)), aggregates_(std::move(aggregates)) {
    Schema s;
    s.AddColumn(Column{"group_id", DataType::kInt64, ""});
    for (const AggregateSpec& a : aggregates_) {
      s.AddColumn(Column{a.output_name, AggregateOutputType(a.kind), ""});
      for (const ExprPtr& arg : a.args) arg_exprs_.push_back(arg.get());
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

    // Drain the child. The coordinates go straight into the point array
    // (they must stay in RAM for the grouping core); the aggregate-argument
    // columns are what the spill path moves to disk when the budget pushes
    // back. They are spilled in input order, so the streamed aggregation
    // below adds exactly what the in-memory one would.
    const bool spill = SpillEnabled();
    {
      obs::ScopedSpan drain_span(Trace(), "sgb.drain");
      args_.assign(arg_exprs_.size(), ColumnVector());
      RowBatch batch;
      ColumnVector scratch;
      while (child_->NextBatch(&batch)) {
        AddPoints(batch, rows_drained_);
        rows_drained_ += batch.size();
        buffered_rows_ += batch.size();
        for (size_t k = 0; k < arg_exprs_.size(); ++k) {
          args_[k].AppendRange(EvaluateColumn(*arg_exprs_[k], batch, &scratch),
                               0, batch.size());
        }
        if (spilled_args_ != nullptr) {
          WriteBufferedArgs();
          continue;
        }
        if (!spill || TryChargeMemory(HeldBytes())) continue;
        // Budget breached: move the buffered arguments to disk and keep
        // streaming the remaining input straight there.
        SpillBufferedArgs();
      }
      drain_span.AddAttribute("rows", static_cast<double>(rows_drained_));
    }
    if (spilled_args_ != nullptr) {
      FinishSpill();
    } else if (!spill) {
      ChargeMemory(HeldBytes());
    }
    {
      Status fault = g_sgb_build_fault.Check();
      if (!fault.ok()) throw QueryAbort(std::move(fault));
    }

    size_t num_groups = 0;
    std::vector<size_t> labels;  // group of each point
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
      // headroom for them, spill the buffered arguments after the fact and
      // label again against the freed budget.
      try {
        labels = LabelPoints(&num_groups);
      } catch (const QueryAbort& abort) {
        if (!SpillEnabled() || spilled_args_ != nullptr ||
            abort.status().code() != Status::Code::kResourceExhausted) {
          throw;
        }
        SpillBufferedArgs();
        FinishSpill();
        labels = LabelPoints(&num_groups);
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

    {
      obs::ScopedSpan aggregate_span(Trace(), "sgb.aggregate");
      Aggregate(labels, num_groups);
    }
    ChargeMemory(PointBytes() + results_.batch.bytes());
  }

  bool NextBatchImpl(RowBatch* out) override { return results_.Emit(out); }

  void CloseImpl() override {
    std::vector<ColumnVector>().swap(args_);
    rows_drained_ = 0;
    buffered_rows_ = 0;
    std::vector<size_t>().swap(point_row_);
    results_.Release();
    spilled_args_.reset();
    ResetPoints();
  }

 protected:
  /// Incremental labeling interface. The base drains the child calling
  /// AddPoints(batch, first_row) per batch — implementations evaluate the
  /// coordinate expressions over the batch and keep only the points
  /// (PointBytes() reports how much RAM that is), pushing the input row of
  /// each onto point_row_ — then calls LabelPoints once, which runs the
  /// grouping core and returns each point's group id in [0, *num_groups),
  /// or kNoGroup. Implementations publish their core-algorithm counters
  /// (distance computations, rectangle tests, ...) into
  /// mutable_stats().extra. ResetPoints() frees the extracted coordinates.
  virtual void ResetPoints() = 0;
  virtual void AddPoints(const RowBatch& batch, size_t first_row) = 0;
  virtual size_t PointBytes() const = 0;
  virtual std::vector<size_t> LabelPoints(size_t* num_groups) = 0;

  /// The input row of each point not yet spilled, in input order.
  std::vector<size_t> point_row_;

  /// Block-kernel calls of this execution's grouping core, which
  /// LabelPoints adds up (the "kernels" attribute of the sgb.group span).
  size_t kernel_calls_ = 0;

 private:
  /// Span sink for this execution (null when untraced).
  obs::QueryTrace* Trace() const {
    return query_context() != nullptr ? query_context()->trace() : nullptr;
  }

  /// Bytes the drain holds: points, their rows and the argument columns.
  size_t HeldBytes() const {
    size_t bytes = PointBytes() + point_row_.capacity() * sizeof(size_t);
    for (const ColumnVector& arg : args_) bytes += arg.bytes();
    return bytes;
  }

  /// Feeds rows [0, n) of the argument columns `args` to the aggregates;
  /// `group_of[i]` is the group of row i.
  void UpdateAggregates(
      const std::vector<std::unique_ptr<GroupedAggregate>>& aggregates,
      const std::vector<ColumnVector>& args, const size_t* group_of,
      size_t n) const {
    size_t first = 0;
    for (size_t a = 0; a < aggregates_.size(); ++a) {
      const ColumnVector* cells[2] = {nullptr, nullptr};
      const size_t arity = aggregates_[a].args.size();
      for (size_t k = 0; k < arity; ++k) cells[k] = &args[first + k];
      aggregates[a]->Update(cells, group_of, n);
      first += arity;
    }
  }

  /// Aggregates every group from the buffered (or spilled) argument
  /// columns, given each point's group (`labels`), and fills results_ with
  /// [group_id, aggregates...] columns.
  void Aggregate(const std::vector<size_t>& labels, size_t num_groups) {
    std::vector<std::unique_ptr<GroupedAggregate>> aggregates;
    for (const AggregateSpec& a : aggregates_) {
      aggregates.push_back(CreateGroupedAggregate(a.kind, num_groups));
    }
    if (spilled_args_ == nullptr) {
      std::vector<size_t> group_of(rows_drained_, kNoGroup);
      for (size_t k = 0; k < point_row_.size(); ++k) {
        group_of[point_row_[k]] = labels[k];
      }
      std::vector<size_t>().swap(point_row_);
      UpdateAggregates(aggregates, args_, group_of.data(), rows_drained_);
    } else {
      // Stream the spilled rows back in input order, a batch at a time;
      // each group adds in exactly the order of the in-memory pass. A
      // row's leading cell says whether it holds the next point.
      obs::ScopedSpan read_span(Trace(), "spill.read");
      read_span.AddAttribute("bytes",
                             static_cast<double>(spilled_args_->bytes()));
      Row row;
      std::vector<size_t> group_of;
      size_t next_point = 0;
      bool more = true;
      while (more) {
        for (ColumnVector& arg : args_) arg.Clear();
        group_of.clear();
        while (group_of.size() < RowBatch::kDefaultCapacity &&
               (more = NextOrThrow(spilled_args_.get(), &row))) {
          group_of.push_back(row[0].AsInt() != 0 ? labels[next_point++]
                                                 : kNoGroup);
          for (size_t k = 0; k < args_.size(); ++k) {
            args_[k].Append(std::move(row[1 + k]));
          }
        }
        UpdateAggregates(aggregates, args_, group_of.data(), group_of.size());
      }
      spilled_args_.reset();
    }
    std::vector<ColumnVector>().swap(args_);

    RowBatch& out = results_.batch;
    out.SetNumColumns(1 + aggregates_.size());
    for (size_t g = 0; g < num_groups; ++g) {
      out.column(0).AppendInt(static_cast<int64_t>(g));
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      for (size_t g = 0; g < num_groups; ++g) {
        out.column(1 + a).Append(aggregates[a]->Finalize(g));
      }
    }
    out.SetNumRows(num_groups);
  }

  /// Appends the buffered rows to the spill file in input order, one
  /// [has point, arguments...] row each, and empties the buffers: the
  /// argument columns and point_row_.
  void WriteBufferedArgs() {
    Row row(1 + args_.size());
    const size_t first_row = rows_drained_ - buffered_rows_;
    size_t next_point = 0;
    for (size_t i = 0; i < buffered_rows_; ++i) {
      const bool has_point = next_point < point_row_.size() &&
                             point_row_[next_point] == first_row + i;
      next_point += has_point ? 1 : 0;
      row[0] = Value::Bool(has_point);
      for (size_t k = 0; k < args_.size(); ++k) {
        row[1 + k] = args_[k].ValueAt(i);
      }
      ThrowIfError(spilled_args_->Append(row));
    }
    for (ColumnVector& arg : args_) arg.Clear();
    point_row_.clear();
    buffered_rows_ = 0;
  }

  /// Moves the buffered argument columns and point rows to a spill file
  /// (preserving input order) and drops their budget charge; only the
  /// coordinates stay resident. The aggregation pass streams the file back.
  void SpillBufferedArgs() {
    obs::ScopedSpan write_span(Trace(), "spill.write");
    spilled_args_ = CreateSpillFileOrThrow(query_context()->spill().directory);
    write_span.AddAttribute("rows", static_cast<double>(buffered_rows_));
    WriteBufferedArgs();
    for (ColumnVector& arg : args_) arg = ColumnVector();
    std::vector<size_t>().swap(point_row_);
    ChargeMemory(PointBytes());
  }

  void FinishSpill() {
    ThrowIfError(spilled_args_->FinishWrites());
    if (query_context() != nullptr) {
      query_context()->AddSpill(spilled_args_->bytes());
    }
    mutable_stats().extra["spilled"] += 1;
    mutable_stats().extra["spill_bytes"] += spilled_args_->bytes();
    obs::MetricsRegistry::Global().GetCounter("spill.events").Add(1);
  }

  OperatorPtr child_;
  std::vector<AggregateSpec> aggregates_;
  /// Every aggregate's argument expressions, flattened in call order.
  std::vector<const Expression*> arg_exprs_;
  Schema schema_;
  /// One buffered column per entry of arg_exprs_, a cell per input row.
  std::vector<ColumnVector> args_;
  size_t rows_drained_ = 0;  ///< input rows of this execution
  size_t buffered_rows_ = 0;  ///< the last rows drained, not yet spilled
  BufferedColumns results_;
  std::unique_ptr<SpillFile> spilled_args_;  ///< argument rows, when spilling
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
  void ResetPoints() override { std::vector<geom::Point>().swap(points_); }

  void AddPoints(const RowBatch& batch, size_t first_row) override {
    ColumnVector x_scratch;
    ColumnVector y_scratch;
    const ColumnVector& xs = EvaluateColumn(*x_expr_, batch, &x_scratch);
    const ColumnVector& ys = EvaluateColumn(*y_expr_, batch, &y_scratch);
    if (IsDenseDoubles(xs) && IsDenseDoubles(ys)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        points_.push_back(geom::Point{xs.doubles()[i], ys.doubles()[i]});
        point_row_.push_back(first_row + i);
      }
      return;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      const CellRef x = xs.CellAt(i);
      const CellRef y = ys.CellAt(i);
      if (x.is_null() || y.is_null()) continue;
      points_.push_back(geom::Point{x.ToDouble(), y.ToDouble()});
      point_row_.push_back(first_row + i);
    }
  }

  size_t PointBytes() const override {
    return points_.capacity() * sizeof(geom::Point);
  }

  std::vector<size_t> LabelPoints(size_t* num_groups) override {
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

    *num_groups = grouping.num_groups;
    ResetPoints();
    return std::move(grouping.group_of);
  }

 private:
  ExprPtr x_expr_;
  ExprPtr y_expr_;
  SgbMode mode_;
  std::vector<geom::Point> points_;
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
        mode_(Serial(std::move(mode))) {}

  std::string name() const override {
    return std::holds_alternative<core::SgbAllOptions>(mode_)
               ? "SimilarityGroupByAll3d"
               : "SimilarityGroupByAny3d";
  }

  std::string label() const override { return name() + DescribeMode(mode_); }

 protected:
  /// SgbAllNd and SgbAnyNd run serially whatever dop the query asked for,
  /// so the operator (and its EXPLAIN label) carries the dop it runs.
  static SgbMode Serial(SgbMode mode) {
    std::visit([](auto& options) { options.degree_of_parallelism = 1; },
               mode);
    return mode;
  }

  void ResetPoints() override {
    std::vector<geom::PointN<3>>().swap(points_);
  }

  void AddPoints(const RowBatch& batch, size_t first_row) override {
    ColumnVector scratch[3];
    const ColumnVector& xs = EvaluateColumn(*x_expr_, batch, &scratch[0]);
    const ColumnVector& ys = EvaluateColumn(*y_expr_, batch, &scratch[1]);
    const ColumnVector& zs = EvaluateColumn(*z_expr_, batch, &scratch[2]);
    for (size_t i = 0; i < batch.size(); ++i) {
      const CellRef x = xs.CellAt(i);
      const CellRef y = ys.CellAt(i);
      const CellRef z = zs.CellAt(i);
      if (x.is_null() || y.is_null() || z.is_null()) continue;
      points_.push_back(
          geom::PointN<3>{{x.ToDouble(), y.ToDouble(), z.ToDouble()}});
      point_row_.push_back(first_row + i);
    }
  }

  size_t PointBytes() const override {
    return points_.capacity() * sizeof(geom::PointN<3>);
  }

  std::vector<size_t> LabelPoints(size_t* num_groups) override {
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

    *num_groups = grouping.num_groups;
    ResetPoints();
    return std::move(grouping.group_of);
  }

 private:
  ExprPtr x_expr_;
  ExprPtr y_expr_;
  ExprPtr z_expr_;
  SgbMode mode_;
  std::vector<geom::PointN<3>> points_;
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
  void ResetPoints() override { std::vector<double>().swap(values_); }

  void AddPoints(const RowBatch& batch, size_t first_row) override {
    ColumnVector scratch;
    const ColumnVector& vs = EvaluateColumn(*value_expr_, batch, &scratch);
    for (size_t i = 0; i < batch.size(); ++i) {
      const CellRef v = vs.CellAt(i);
      if (v.type != DataType::kInt64 && v.type != DataType::kDouble) continue;
      values_.push_back(v.ToDouble());
      point_row_.push_back(first_row + i);
    }
  }

  size_t PointBytes() const override {
    return values_.capacity() * sizeof(double);
  }

  std::vector<size_t> LabelPoints(size_t* num_groups) override {
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
    core::Grouping1D grouping =
        r.ok() ? std::move(r.value()) : core::Grouping1D{};
    if (!r.ok()) grouping.group_of.assign(values_.size(), kNoGroup);
    *num_groups = grouping.num_groups;
    ResetPoints();
    return std::move(grouping.group_of);
  }

 private:
  ExprPtr value_expr_;
  Sgb1dMode mode_;
  std::vector<double> values_;
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
