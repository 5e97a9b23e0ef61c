#include "engine/operators.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/fault_injection.h"
#include "engine/spill.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sgb::engine {

// Fires on batch-buffer population — the engine's highest-frequency
// allocation path — so tests can exercise mid-query resource failures.
static FaultSite g_batch_alloc_fault("engine.batch.alloc",
                                     Status::Code::kResourceExhausted);

bool Operator::NextBatch(RowBatch* out) {
  // Counter object lives for the registry's lifetime, so the reference
  // stays valid across MetricsRegistry::Reset().
  static obs::Counter& batches_counter =
      obs::MetricsRegistry::Global().GetCounter("engine.batches");
  ThrowIfAborted(ctx_);
  {
    Status fault = g_batch_alloc_fault.Check();
    if (!fault.ok()) throw QueryAbort(std::move(fault));
  }
  out->Clear();
  const auto t0 = std::chrono::steady_clock::now();
  const bool ok = NextBatchImpl(out);
  stats_.next_ns += ElapsedNs(t0);
  if (ok) {
    ++stats_.batches;
    stats_.rows_produced += out->size();
    batches_counter.Add(1);
  }
  return ok;
}

void Operator::Close() {
  for (const Operator* child : children()) {
    const_cast<Operator*>(child)->Close();
  }
  CloseImpl();
  ReleaseCharge();
}

bool BufferedRows::Emit(RowBatch* out) {
  const size_t end = std::min(rows.size(), next + out->capacity());
  for (; next < end; ++next) out->Append(std::move(rows[next]));
  return !out->empty();
}

bool BufferedColumns::Emit(RowBatch* out) {
  const size_t end = std::min(batch.num_rows(), next + out->capacity());
  if (next >= end) return false;
  out->MoveRows(&batch, next, end);
  next = end;
  return true;
}

void Operator::SetQueryContext(QueryContext* ctx) {
  // Settle any outstanding charge against the context it was made on;
  // otherwise a later Open() would release it against the new one.
  if (ctx != ctx_) ReleaseCharge();
  ctx_ = ctx;
  // children() returns const pointers for plan rendering, but children are
  // owned (mutable) nodes; casting back is how the base class threads the
  // context without per-operator plumbing.
  for (const Operator* child : children()) {
    const_cast<Operator*>(child)->SetQueryContext(ctx);
  }
}

void Operator::ChargeMemory(size_t bytes) {
  stats_.peak_memory_bytes =
      std::max<uint64_t>(stats_.peak_memory_bytes, bytes);
  if (ctx_ == nullptr) return;
  if (bytes > charged_bytes_) {
    Status status = ctx_->memory().TryConsume(bytes - charged_bytes_);
    if (!status.ok()) throw QueryAbort(std::move(status));
    charged_bytes_ = bytes;
  } else if (bytes < charged_bytes_) {
    ctx_->memory().Release(charged_bytes_ - bytes);
    charged_bytes_ = bytes;
  }
}

bool Operator::TryChargeMemory(size_t bytes) {
  if (ctx_ == nullptr || bytes <= charged_bytes_) {
    ChargeMemory(bytes);  // peak update and/or release; cannot throw
    return true;
  }
  Status status = ctx_->memory().TryConsume(bytes - charged_bytes_);
  if (!status.ok()) return false;
  charged_bytes_ = bytes;
  stats_.peak_memory_bytes =
      std::max<uint64_t>(stats_.peak_memory_bytes, bytes);
  return true;
}

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

/// One spill event = one batch of bytes moved to disk (a tee log, a
/// partitioning pass, or a sorted run). Rolls into the QueryContext totals
/// (the `spilled=` EXPLAIN ANALYZE line and the query.spilled metric) and
/// the operator's own `spilled`/`spill_bytes` extras.
void RecordSpillEvent(QueryContext* ctx, uint64_t bytes,
                      OperatorStats* stats) {
  if (ctx != nullptr) {
    ctx->AddSpill(bytes);
    if (ctx->trace() != nullptr) {
      // Marker span (the write itself already happened); it puts each
      // spill on the Chrome-trace timeline with its volume.
      obs::ScopedSpan span(ctx->trace(), "spill.write");
      span.AddAttribute("bytes", static_cast<double>(bytes));
    }
  }
  stats->extra["spilled"] += 1;
  stats->extra["spill_bytes"] += bytes;
  obs::MetricsRegistry::Global().GetCounter("spill.events").Add(1);
}

/// Grace execution produces results partition-major; `seqs` carries each
/// result row's position in the in-memory output order (rows spill with a
/// trailing arrival-sequence column). Permutes `results` back so spilled
/// output is bit-identical to the in-memory run, order included. Stable,
/// because join output repeats one probe sequence per matched build row.
void RestoreSpilledOrder(std::vector<Row>* results,
                         std::vector<uint64_t>* seqs) {
  std::vector<size_t> idx(results->size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return (*seqs)[a] < (*seqs)[b];
  });
  std::vector<Row> ordered;
  ordered.reserve(results->size());
  for (size_t i : idx) ordered.push_back(std::move((*results)[i]));
  *results = std::move(ordered);
  seqs->clear();
  seqs->shrink_to_fit();
}

/// Pops the trailing arrival-sequence column a spilled row was tagged with.
uint64_t PopRowSeq(Row* row) {
  const uint64_t seq = static_cast<uint64_t>(row->back().AsInt());
  row->pop_back();
  return seq;
}

/// Evaluates one key expression per column against `row`. Sorts and
/// groupings evaluate each row's key once and compare the results.
Row EvalKey(const std::vector<ExprPtr>& exprs, const Row& row) {
  Row key;
  key.reserve(exprs.size());
  for (const ExprPtr& e : exprs) key.push_back(e->Evaluate(row));
  return key;
}

/// Lexicographic order of two evaluated keys; `descending[i]` reverses
/// column i (an empty vector sorts every column ascending).
bool KeyLess(const Row& a, const Row& b, const std::vector<bool>& descending) {
  for (size_t i = 0; i < a.size(); ++i) {
    const int c = Value::Compare(a[i], b[i]);
    if (c != 0) return !descending.empty() && descending[i] ? c > 0 : c < 0;
  }
  return false;
}

/// Input positions in stable key order: the sort behind both SortOp and
/// SortAggregateOp. Sorting indices moves no rows and never re-evaluates a
/// key expression.
std::vector<size_t> StableKeyOrder(const std::vector<Row>& keys,
                                   const std::vector<bool>& descending) {
  std::vector<size_t> order(keys.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return KeyLess(keys[a], keys[b], descending);
  });
  return order;
}

/// A join output row: `left` followed by `right`.
Row Concat(const Row& left, const Row& right) {
  Row joined;
  joined.reserve(left.size() + right.size());
  joined.insert(joined.end(), left.begin(), left.end());
  joined.insert(joined.end(), right.begin(), right.end());
  return joined;
}

/// The one row a global aggregate (no GROUP BY keys) emits for empty input.
Row GlobalDefaultRow(const std::vector<AggregateSpec>& aggregates) {
  Row out;
  for (const AggregateSpec& a : aggregates) {
    out.push_back(CreateAggregateState(a)->Finalize());
  }
  return out;
}

/// Drains `child` batch by batch, materializing each active row for `fn`
/// (which may move it; a row it leaves in place is reused for the next).
template <typename Fn>
void DrainChild(Operator& child, Fn&& fn) {
  RowBatch batch;
  Row row;
  while (child.NextBatch(&batch)) {
    for (size_t i = 0; i < batch.size(); ++i) {
      batch.TakeRow(i, &row);
      fn(row);
    }
  }
}

/// Ballpark per-entry overhead of an unordered_map node (bucket slot,
/// next pointer, hash) used by the incremental build-side estimates.
constexpr size_t kMapNodeBytes = 64;

class TableScanOp final : public Operator {
 public:
  TableScanOp(TableSourcePtr source, const std::string& qualifier)
      : source_(std::move(source)),
        schema_(qualifier.empty()
                    ? source_->schema()
                    : source_->schema().WithQualifier(qualifier)) {}
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "TableScan"; }
  std::string label() const override {
    std::string label = "TableScan";
    if (schema_.size() > 0 && !schema_.column(0).qualifier.empty()) {
      label += " " + schema_.column(0).qualifier;
    }
    if (source_->kind() == TableKind::kAppendable) return label + " (snapshot)";
    if (source_->kind() == TableKind::kPaged) return label + " (paged)";
    return label;
  }
  size_t EstimateFootprintBytes() const override {
    // A paged scan holds one page of decoded rows at a time, independent
    // of table size; an in-memory scan is charged its pinned rows.
    if (source_->kind() == TableKind::kPaged) return 2 * 8192;
    auto pinned = source_->Pin();
    return pinned.ok() ? pinned.value()->rows() *
                             (sizeof(Row) + schema_.size() * sizeof(Value))
                       : 0;
  }
  void OpenImpl() override {
    // The snapshot pin: every row below it is immutable, so the scan needs
    // no further coordination with writers.
    auto pinned = source_->Pin();
    if (!pinned.ok()) throw QueryAbort(pinned.status());
    cursor_ = std::move(pinned).value();
  }
  bool NextBatchImpl(RowBatch* out) override { return cursor_->Next(out); }
  void CloseImpl() override { cursor_.reset(); }

 private:
  TableSourcePtr source_;
  Schema schema_;
  TableCursorPtr cursor_;
};

class FilterOp final : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr predicate)
      : child_(std::move(child)), predicate_(std::move(predicate)) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Filter"; }
  std::string label() const override {
    return "Filter " + predicate_->ToString();
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  void OpenImpl() override { child_->Open(); }
  /// Pulls child batches straight into `out` and narrows its selection
  /// vector to the passing rows; no row is copied. An all-filtered batch
  /// just pulls the next one, so emitted batches are never empty (though
  /// they may be smaller than capacity).
  bool NextBatchImpl(RowBatch* out) override {
    while (child_->NextBatch(out)) {
      const ColumnVector& keep =
          EvaluateColumn(*predicate_, *out, &predicate_values_);
      std::vector<uint32_t> selection;
      selection.reserve(out->size());
      for (size_t i = 0; i < out->size(); ++i) {
        if (keep.CellAt(i).ToBool()) {
          selection.push_back(static_cast<uint32_t>(out->RowIndex(i)));
        }
      }
      if (selection.empty()) continue;
      if (selection.size() < out->size()) {
        out->SetSelection(std::move(selection));
      }
      return true;
    }
    return false;
  }
  void CloseImpl() override { predicate_values_ = ColumnVector(); }

 private:
  OperatorPtr child_;
  ExprPtr predicate_;
  ColumnVector predicate_values_;
};

class ProjectOp final : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<Column> output_columns)
      : child_(std::move(child)),
        exprs_(std::move(exprs)),
        schema_(std::move(output_columns)),
        first_use_(exprs_.size(), kComputed) {
    for (size_t c = 0; c < exprs_.size(); ++c) {
      const std::optional<size_t> ref = exprs_[c]->ColumnIndex();
      if (!ref.has_value()) {
        all_refs_ = false;
        continue;
      }
      first_use_[c] = c;
      for (size_t prev = 0; prev < c; ++prev) {
        if (exprs_[prev]->ColumnIndex() == ref) {
          first_use_[c] = prev;
          break;
        }
      }
    }
  }
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "Project"; }
  std::string label() const override {
    std::string out = "Project [";
    for (size_t i = 0; i < exprs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += exprs_[i]->ToString();
    }
    return out + "]";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  void OpenImpl() override { child_->Open(); }
  /// Column references move their input column into the output, carrying
  /// the selection along; a repeated reference copies the moved column.
  /// Other expressions run through EvaluateBatch. When the input has a
  /// selection and some expression is computed, every output column is
  /// evaluated densely over the selected rows instead.
  bool NextBatchImpl(RowBatch* out) override {
    if (input_.capacity() != out->capacity()) input_ = RowBatch(out->capacity());
    if (!child_->NextBatch(&input_)) return false;
    out->SetNumColumns(exprs_.size());
    if (input_.has_selection() && !all_refs_) {
      for (size_t c = 0; c < exprs_.size(); ++c) {
        exprs_[c]->EvaluateBatch(input_, &out->column(c));
      }
      out->SetNumRows(input_.size());
      return true;
    }
    // Computed columns first: they may read a column a reference moves.
    for (size_t c = 0; c < exprs_.size(); ++c) {
      if (first_use_[c] == kComputed) {
        exprs_[c]->EvaluateBatch(input_, &out->column(c));
      }
    }
    const size_t rows = input_.num_rows();
    for (size_t c = 0; c < exprs_.size(); ++c) {
      if (first_use_[c] == kComputed) continue;
      ColumnVector& column = out->column(c);
      if (first_use_[c] == c) {
        std::swap(column, input_.column(*exprs_[c]->ColumnIndex()));
      } else {
        column.AppendRange(out->column(first_use_[c]), 0, rows);
      }
    }
    out->SetNumRows(rows);
    if (input_.has_selection()) out->SetSelection(input_.selection());
    return true;
  }
  void CloseImpl() override { input_ = RowBatch(); }

 private:
  static constexpr size_t kComputed = static_cast<size_t>(-1);

  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  /// Per output column: the first output column holding the same input
  /// column reference (itself when first), or kComputed.
  std::vector<size_t> first_use_;
  bool all_refs_ = true;
  RowBatch input_;
};

class HashAggregateOp final : public Operator {
 public:
  HashAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                  std::vector<Column> group_columns,
                  std::vector<AggregateSpec> aggregates,
                  size_t est_groups)
      : child_(std::move(child)),
        group_exprs_(std::move(group_exprs)),
        aggregates_(std::move(aggregates)),
        est_groups_(est_groups) {
    Schema s(std::move(group_columns));
    for (const AggregateSpec& a : aggregates_) {
      s.AddColumn(Column{a.output_name, AggregateOutputType(a.kind), ""});
    }
    schema_ = std::move(s);
  }
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashAggregate"; }
  std::string label() const override {
    return "HashAggregate (keys=" + std::to_string(group_exprs_.size()) +
           ", aggs=" + std::to_string(aggregates_.size()) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  /// With spilling on, this is grace aggregation (docs/ROBUSTNESS.md
  /// "Spill-to-disk"): aggregate in memory while teeing the raw input to a
  /// spill log; on a budget breach, drop the hash table, partition the log
  /// plus the remaining input by group-key hash, and re-aggregate each
  /// partition — recursively repartitioning partitions that still do not
  /// fit. Spilled rows carry a trailing arrival-sequence column so the
  /// finalized results can be restored to first-appearance order, keeping
  /// spilled output bit-identical to the in-memory run. AggregateState is
  /// deliberately opaque (Add/Finalize only), which is why raw rows spill
  /// rather than partial states.
  void OpenImpl() override {
    child_->Open();
    results_.Release();
    result_seqs_.clear();
    results_bytes_ = 0;
    QueryContext* ctx = query_context();
    const bool spill = SpillEnabled();
    GroupMap groups;
    std::vector<Row> key_order;  // deterministic output order
    if (est_groups_ > 0) {
      // Stats-predicted group count: size the table once instead of
      // rehash-growing, and charge the predicted footprint up front so a
      // budget breach surfaces before the build, not mid-growth.
      groups.reserve(est_groups_);
      if (!spill) {
        key_order.reserve(est_groups_);
        ChargeMemory(est_groups_ * PredictedGroupBytes());
      }
    }
    size_t mem_estimate = 0;
    uint64_t next_seq = 0;
    std::unique_ptr<SpillFile> tee;       // replay log; read only on breach
    std::unique_ptr<SpillPartitionSet> overflow;
    DrainChild(*child_, [&](Row& row) {
      Row key = EvalKey(group_exprs_, row);
      const uint64_t row_seq = next_seq++;
      if (overflow != nullptr) {
        row.push_back(Value::Int(static_cast<int64_t>(row_seq)));
        ThrowIfError(overflow->Add(RowHash{}(key), row));
        return;
      }
      if (spill) {
        if (tee == nullptr) {
          tee = CreateSpillFileOrThrow(ctx->spill().directory);
        }
        ThrowIfError(tee->Append(row));
      }
      mem_estimate += AddToGroups(&groups, &key_order, std::move(key), row);
      if (!spill || TryChargeMemory(mem_estimate)) return;
      // Budget breached: fall back to grace aggregation. The tee log
      // replays the input consumed so far, in arrival order.
      groups.clear();
      key_order.clear();
      ChargeMemory(0);
      ThrowIfError(tee->FinishWrites());
      RecordSpillEvent(ctx, tee->bytes(), &mutable_stats());
      overflow = std::make_unique<SpillPartitionSet>(
          ctx->spill().fanout, /*level=*/0, ctx->spill().directory);
      Row replay;
      uint64_t replay_seq = 0;
      while (NextOrThrow(tee.get(), &replay)) {
        const size_t hash = RowHash{}(EvalKey(group_exprs_, replay));
        replay.push_back(Value::Int(static_cast<int64_t>(replay_seq++)));
        ThrowIfError(overflow->Add(hash, replay));
      }
      tee.reset();
    });
    tee.reset();
    if (overflow != nullptr) {
      AggregateSpilledPartitions(std::move(overflow));
      return;
    }
    // Global aggregation emits one row even when the input was empty.
    if (group_exprs_.empty() && groups.empty()) {
      results_.rows.push_back(GlobalDefaultRow(aggregates_));
    } else {
      FinalizeGroups(&groups, key_order);
    }
    PublishGroupCount();
    size_t bytes = ApproxRowVectorBytes(results_.rows);
    if (!spill) {  // spilling charged the hash table row by row
      bytes += ApproxRowVectorBytes(key_order) +
               key_order.size() * sizeof(std::unique_ptr<AggregateState>) *
                   aggregates_.size();
    }
    ChargeMemory(bytes);
  }

  bool NextBatchImpl(RowBatch* out) override { return results_.Emit(out); }

  void CloseImpl() override { results_.Release(); }

 private:
  struct GroupEntry {
    std::vector<std::unique_ptr<AggregateState>> states;
  };
  using GroupMap = std::unordered_map<Row, GroupEntry, RowHash, RowEq>;

  /// Estimated bytes one group adds to the hash table — the per-insert
  /// delta of AddToGroups with the key at its natural capacity. Used to
  /// pre-charge the predicted footprint when a stats estimate exists.
  size_t PredictedGroupBytes() const {
    return 2 * (sizeof(Row) + group_exprs_.size() * sizeof(Value)) +
           kMapNodeBytes +
           aggregates_.size() * (sizeof(std::unique_ptr<AggregateState>) + 48);
  }

  /// Publishes actual groups beside the plan-time estimate so estimate
  /// drift shows up in EXPLAIN ANALYZE and system.operator_stats.
  void PublishGroupCount() {
    mutable_stats().extra["groups"] = results_.rows.size();
    if (est_groups_ > 0) mutable_stats().extra["est_groups"] = est_groups_;
  }

  /// Feeds `row` into its group (creating states on first sight) and
  /// returns the estimated bytes the insertion added to the hash table.
  size_t AddToGroups(GroupMap* groups, std::vector<Row>* key_order, Row key,
                     const Row& row) const {
    size_t delta = 0;
    auto [it, inserted] = groups->try_emplace(std::move(key));
    if (inserted) {
      key_order->push_back(it->first);
      it->second.states.reserve(aggregates_.size());
      for (const AggregateSpec& a : aggregates_) {
        it->second.states.push_back(CreateAggregateState(a));
      }
      delta = 2 * (sizeof(Row) + it->first.capacity() * sizeof(Value)) +
              kMapNodeBytes +
              aggregates_.size() *
                  (sizeof(std::unique_ptr<AggregateState>) + 48);
    }
    for (auto& state : it->second.states) state->Add(row);
    return delta;
  }

  void FinalizeGroups(GroupMap* groups, const std::vector<Row>& key_order) {
    results_.rows.reserve(results_.rows.size() + key_order.size());
    for (const Row& key : key_order) {
      Row out;
      out.reserve(key.size() + aggregates_.size());
      out.insert(out.end(), key.begin(), key.end());
      for (const auto& state : (*groups)[key].states) {
        out.push_back(state->Finalize());
      }
      results_.rows.push_back(std::move(out));
    }
  }

  /// Re-aggregates the spilled input partition by partition and restores
  /// first-appearance order.
  void AggregateSpilledPartitions(
      std::unique_ptr<SpillPartitionSet> overflow) {
    ThrowIfError(overflow->FinishWrites());
    RecordSpillEvent(query_context(), overflow->bytes(), &mutable_stats());
    for (size_t i = 0; i < overflow->fanout(); ++i) {
      std::unique_ptr<SpillFile> part = overflow->TakePartition(i);
      if (part != nullptr) ProcessPartition(std::move(part), /*level=*/1);
    }
    overflow.reset();
    RestoreSpilledOrder(&results_.rows, &result_seqs_);
    if (group_exprs_.empty() && results_.rows.empty()) {
      results_.rows.push_back(GlobalDefaultRow(aggregates_));
    }
    PublishGroupCount();
    results_bytes_ = ApproxRowVectorBytes(results_.rows);
    ChargeMemory(results_bytes_);
  }

  /// Aggregates one spilled partition in memory, repartitioning at the
  /// next hash-salt level when it still does not fit. `level` is the salt
  /// for that next repartition.
  void ProcessPartition(std::unique_ptr<SpillFile> file, int level) {
    CheckAbort();
    QueryContext* ctx = query_context();
    const SpillConfig& cfg = ctx->spill();
    GroupMap groups;
    std::vector<Row> key_order;
    // First-appearance sequence per group: partition files preserve arrival
    // order (the tee replays in order and later adds append in order), so
    // the first row seen for a key carries the group's global rank.
    std::vector<uint64_t> seq_order;
    size_t mem_estimate = 0;
    ThrowIfError(file->Rewind());
    Row row;
    bool fits = true;
    while (NextOrThrow(file.get(), &row)) {
      const uint64_t seq = PopRowSeq(&row);
      const size_t groups_before = key_order.size();
      mem_estimate +=
          AddToGroups(&groups, &key_order, EvalKey(group_exprs_, row), row);
      if (key_order.size() > groups_before) seq_order.push_back(seq);
      if (!TryChargeMemory(results_bytes_ + mem_estimate)) {
        fits = false;
        break;
      }
    }
    if (fits) {
      FinalizeGroups(&groups, key_order);
      result_seqs_.insert(result_seqs_.end(), seq_order.begin(),
                          seq_order.end());
      groups.clear();
      results_bytes_ = ApproxRowVectorBytes(results_.rows);
      ChargeMemory(results_bytes_);
      return;
    }
    groups.clear();
    key_order.clear();
    ChargeMemory(results_bytes_);
    if (level >= cfg.max_depth) {
      throw QueryAbort(Status::ResourceExhausted(
          "spill: aggregate partition exceeds the memory budget at max "
          "recursion depth " +
          std::to_string(cfg.max_depth)));
    }
    ThrowIfError(file->Rewind());
    auto children = std::make_unique<SpillPartitionSet>(cfg.fanout, level,
                                                        cfg.directory);
    while (NextOrThrow(file.get(), &row)) {
      ThrowIfError(children->Add(RowHash{}(EvalKey(group_exprs_, row)), row));
    }
    ThrowIfError(children->FinishWrites());
    RecordSpillEvent(ctx, children->bytes(), &mutable_stats());
    // Rows whose key hashes are all identical land in one child at every
    // level; recursing on them would never terminate.
    for (size_t i = 0; i < children->fanout(); ++i) {
      if (children->partition_rows(i) == file->rows()) {
        throw QueryAbort(Status::ResourceExhausted(
            "spill: aggregate partition with identical key hashes cannot "
            "be repartitioned and exceeds the memory budget"));
      }
    }
    file.reset();  // delete the parent temp file before recursing
    for (size_t i = 0; i < children->fanout(); ++i) {
      std::unique_ptr<SpillFile> part = children->TakePartition(i);
      if (part != nullptr) ProcessPartition(std::move(part), level + 1);
    }
  }

  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  Schema schema_;
  size_t est_groups_ = 0;  ///< stats-predicted group count (0 = unknown)
  BufferedRows results_;
  /// Spilled mode only: in-memory output rank of each results_ row,
  /// consumed by RestoreSpilledOrder.
  std::vector<uint64_t> result_seqs_;
  size_t results_bytes_ = 0;
};

/// Sort-based GROUP BY: materializes the input, sorts row indices by group
/// key, aggregates adjacent runs, then emits groups in first-appearance
/// order — bit-identical output to HashAggregateOp, so the planner's
/// hash-vs-sort choice never changes results. Chosen by the cost model when
/// the predicted group count approaches the row count (the hash table's
/// per-group node overhead dominates there; a sort touches each row once
/// with no per-group allocations).
class SortAggregateOp final : public Operator {
 public:
  SortAggregateOp(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                  std::vector<Column> group_columns,
                  std::vector<AggregateSpec> aggregates)
      : child_(std::move(child)),
        group_exprs_(std::move(group_exprs)),
        aggregates_(std::move(aggregates)) {
    Schema s(std::move(group_columns));
    for (const AggregateSpec& a : aggregates_) {
      s.AddColumn(Column{a.output_name, AggregateOutputType(a.kind), ""});
    }
    schema_ = std::move(s);
  }
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "SortAggregate"; }
  std::string label() const override {
    return "SortAggregate (keys=" + std::to_string(group_exprs_.size()) +
           ", aggs=" + std::to_string(aggregates_.size()) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  void OpenImpl() override {
    child_->Open();
    results_.Release();

    std::vector<Row> input;
    std::vector<Row> keys;
    DrainChild(*child_, [&](Row& row) {
      keys.push_back(EvalKey(group_exprs_, row));
      input.push_back(std::move(row));
    });
    ChargeMemory(ApproxRowVectorBytes(input) + ApproxRowVectorBytes(keys));

    if (group_exprs_.empty() && input.empty()) {
      results_.rows.push_back(GlobalDefaultRow(aggregates_));
      mutable_stats().extra["groups"] = results_.rows.size();
      return;
    }

    const std::vector<size_t> order = StableKeyOrder(keys, {});

    // Aggregate each equal-key run; a stable sort makes the run's first
    // element the group's earliest arrival, so sorting finished groups by
    // that index restores first-appearance order.
    std::vector<std::pair<size_t, Row>> finished;
    size_t run_start = 0;
    while (run_start < order.size()) {
      CheckAbort();
      size_t run_end = run_start + 1;
      while (run_end < order.size() &&
             RowEq{}(keys[order[run_start]], keys[order[run_end]])) {
        ++run_end;
      }
      std::vector<std::unique_ptr<AggregateState>> states;
      states.reserve(aggregates_.size());
      for (const AggregateSpec& a : aggregates_) {
        states.push_back(CreateAggregateState(a));
      }
      size_t first = order[run_start];
      for (size_t i = run_start; i < run_end; ++i) {
        first = std::min(first, order[i]);
        for (auto& state : states) state->Add(input[order[i]]);
      }
      Row out;
      const Row& key = keys[order[run_start]];
      out.reserve(key.size() + aggregates_.size());
      out.insert(out.end(), key.begin(), key.end());
      for (auto& state : states) out.push_back(state->Finalize());
      finished.emplace_back(first, std::move(out));
      run_start = run_end;
    }
    std::sort(finished.begin(), finished.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    results_.rows.reserve(finished.size());
    for (auto& [first, out] : finished) results_.rows.push_back(std::move(out));
    mutable_stats().extra["groups"] = results_.rows.size();
    ChargeMemory(ApproxRowVectorBytes(input) + ApproxRowVectorBytes(keys) +
                 ApproxRowVectorBytes(results_.rows));
  }

  bool NextBatchImpl(RowBatch* out) override { return results_.Emit(out); }

  void CloseImpl() override { results_.Release(); }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateSpec> aggregates_;
  Schema schema_;
  BufferedRows results_;
};

class HashJoinOp final : public Operator {
 public:
  HashJoinOp(OperatorPtr left, OperatorPtr right,
             std::vector<ExprPtr> left_keys, std::vector<ExprPtr> right_keys)
      : left_(std::move(left)),
        right_(std::move(right)),
        left_keys_(std::move(left_keys)),
        right_keys_(std::move(right_keys)),
        schema_(Schema::Concat(left_->schema(), right_->schema())) {}
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashJoin"; }
  std::string label() const override {
    std::string out = "HashJoin on ";
    for (size_t i = 0; i < left_keys_.size(); ++i) {
      if (i > 0) out += " AND ";
      out += left_keys_[i]->ToString() + " = " + right_keys_[i]->ToString();
    }
    return out;
  }
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

  /// With spilling on, this is a grace hash join: build in memory while
  /// teeing build rows to a spill log; on a budget breach, partition both
  /// inputs by key hash (JoinSpilledPartitions).
  void OpenImpl() override {
    // Build side: right input.
    right_->Open();
    CloseImpl();
    spilled_mode_ = false;
    result_seqs_.clear();
    results_bytes_ = 0;
    QueryContext* ctx = query_context();
    const bool spill = SpillEnabled();
    size_t mem_estimate = 0;
    std::unique_ptr<SpillFile> tee;
    std::unique_ptr<SpillPartitionSet> right_parts;
    Row key;
    DrainChild(*right_, [&](Row& row) {
      if (!EvalKeyInto(right_keys_, row, &key)) return;  // NULLs never join
      if (right_parts != nullptr) {
        ThrowIfError(right_parts->Add(RowHash{}(key), row));
        return;
      }
      if (spill) {
        if (tee == nullptr) {
          tee = CreateSpillFileOrThrow(ctx->spill().directory);
        }
        ThrowIfError(tee->Append(row));
        mem_estimate += 2 * sizeof(Row) +
                        (key.capacity() + row.capacity()) * sizeof(Value) +
                        kMapNodeBytes;
      }
      build_[key].push_back(std::move(row));
      if (!spill || TryChargeMemory(mem_estimate)) return;
      // Budget breached: drop the build table; the tee log replays the
      // build rows consumed so far.
      build_.clear();
      ChargeMemory(0);
      ThrowIfError(tee->FinishWrites());
      RecordSpillEvent(ctx, tee->bytes(), &mutable_stats());
      right_parts = std::make_unique<SpillPartitionSet>(
          ctx->spill().fanout, /*level=*/0, ctx->spill().directory);
      Row replay;
      while (NextOrThrow(tee.get(), &replay)) {
        EvalKeyInto(right_keys_, replay, &key);  // teed rows are non-NULL
        ThrowIfError(right_parts->Add(RowHash{}(key), replay));
      }
      tee.reset();
    });
    tee.reset();
    if (right_parts != nullptr) {
      left_->Open();
      JoinSpilledPartitions(std::move(right_parts));
      return;
    }
    size_t build_rows = 0;
    size_t build_bytes = 0;
    for (const auto& [k, rows] : build_) {
      build_rows += rows.size();
      build_bytes += k.capacity() * sizeof(Value) + ApproxRowVectorBytes(rows);
    }
    mutable_stats().extra["build_rows"] = build_rows;
    if (!spill) ChargeMemory(build_bytes);  // spilling charged it row by row
    left_->Open();
  }

  /// Probes one input batch at a time; the probe position and the current
  /// row's unemitted matches carry over between calls, so a high fan-out
  /// key never materializes its output.
  bool NextBatchImpl(RowBatch* out) override {
    if (spilled_mode_) return results_.Emit(out);
    while (!out->Full()) {
      if (matches_ != nullptr && match_index_ < matches_->size()) {
        out->Append(Concat(probe_row_, (*matches_)[match_index_++]));
        continue;
      }
      matches_ = nullptr;
      if (probe_pos_ >= probe_.size()) {
        if (!left_->NextBatch(&probe_)) break;
        probe_pos_ = 0;
      }
      probe_.TakeRow(probe_pos_++, &probe_row_);
      if (!EvalKeyInto(left_keys_, probe_row_, &probe_key_)) continue;
      const auto it = build_.find(probe_key_);
      if (it == build_.end()) continue;
      matches_ = &it->second;
      match_index_ = 0;
    }
    return !out->empty();
  }

  void CloseImpl() override {
    BuildMap().swap(build_);
    probe_ = RowBatch();
    Row().swap(probe_row_);
    probe_pos_ = 0;
    matches_ = nullptr;
    results_.Release();
  }

 private:
  using BuildMap = std::unordered_map<Row, std::vector<Row>, RowHash, RowEq>;

  /// Evaluates the key expressions into `key`; false when any component is
  /// NULL (such rows never join on either side).
  static bool EvalKeyInto(const std::vector<ExprPtr>& exprs, const Row& row,
                          Row* key) {
    key->clear();
    key->reserve(exprs.size());
    for (const ExprPtr& e : exprs) key->push_back(e->Evaluate(row));
    for (const Value& v : *key) {
      if (v.is_null()) return false;
    }
    return true;
  }

  /// Grace hash join once the build side has spilled: partition the probe
  /// side with the same routing so each partition pair joins independently,
  /// recursively repartitioning build partitions that still do not fit.
  /// Probe rows spill with a trailing arrival-sequence column; the
  /// materialized output is restored to probe order before streaming, so
  /// spilled output is bit-identical to the in-memory run.
  void JoinSpilledPartitions(std::unique_ptr<SpillPartitionSet> right_parts) {
    QueryContext* ctx = query_context();
    const SpillConfig& cfg = ctx->spill();
    ThrowIfError(right_parts->FinishWrites());
    // Partition the probe side with the same level-0 routing, so rows that
    // can join always meet in the same partition pair.
    auto left_parts = std::make_unique<SpillPartitionSet>(
        cfg.fanout, /*level=*/0, cfg.directory);
    uint64_t probe_seq = 0;
    Row key;
    DrainChild(*left_, [&](Row& row) {
      if (!EvalKeyInto(left_keys_, row, &key)) return;
      row.push_back(Value::Int(static_cast<int64_t>(probe_seq++)));
      ThrowIfError(left_parts->Add(RowHash{}(key), row));
    });
    ThrowIfError(left_parts->FinishWrites());
    RecordSpillEvent(ctx, right_parts->bytes() + left_parts->bytes(),
                     &mutable_stats());
    spilled_mode_ = true;
    for (size_t i = 0; i < right_parts->fanout(); ++i) {
      ProcessJoinPartition(right_parts->TakePartition(i),
                           left_parts->TakePartition(i), /*level=*/1);
    }
    RestoreSpilledOrder(&results_.rows, &result_seqs_);
    results_bytes_ = ApproxRowVectorBytes(results_.rows);
    ChargeMemory(results_bytes_);
  }

  /// Joins one partition pair: build the right file in memory and stream
  /// the left file against it, or repartition both files at the next hash
  /// level when the build side still does not fit.
  void ProcessJoinPartition(std::unique_ptr<SpillFile> right_file,
                            std::unique_ptr<SpillFile> left_file, int level) {
    if (right_file == nullptr || left_file == nullptr) return;  // no matches
    CheckAbort();
    QueryContext* ctx = query_context();
    const SpillConfig& cfg = ctx->spill();
    BuildMap build;
    size_t mem_estimate = 0;
    ThrowIfError(right_file->Rewind());
    Row row;
    Row key;
    bool fits = true;
    while (NextOrThrow(right_file.get(), &row)) {
      EvalKeyInto(right_keys_, row, &key);
      mem_estimate += 2 * sizeof(Row) +
                      (key.capacity() + row.capacity()) * sizeof(Value) +
                      kMapNodeBytes;
      build[key].push_back(row);
      if (!TryChargeMemory(results_bytes_ + mem_estimate)) {
        fits = false;
        break;
      }
    }
    if (!fits) {
      build.clear();
      ChargeMemory(results_bytes_);
      if (level >= cfg.max_depth) {
        throw QueryAbort(Status::ResourceExhausted(
            "spill: join build partition exceeds the memory budget at max "
            "recursion depth " +
            std::to_string(cfg.max_depth)));
      }
      ThrowIfError(right_file->Rewind());
      auto right_children = std::make_unique<SpillPartitionSet>(
          cfg.fanout, level, cfg.directory);
      while (NextOrThrow(right_file.get(), &row)) {
        EvalKeyInto(right_keys_, row, &key);
        ThrowIfError(right_children->Add(RowHash{}(key), row));
      }
      ThrowIfError(right_children->FinishWrites());
      for (size_t i = 0; i < right_children->fanout(); ++i) {
        if (right_children->partition_rows(i) == right_file->rows()) {
          throw QueryAbort(Status::ResourceExhausted(
              "spill: join build partition with identical key hashes "
              "cannot be repartitioned and exceeds the memory budget"));
        }
      }
      auto left_children = std::make_unique<SpillPartitionSet>(
          cfg.fanout, level, cfg.directory);
      ThrowIfError(left_file->Rewind());
      while (NextOrThrow(left_file.get(), &row)) {
        EvalKeyInto(left_keys_, row, &key);
        ThrowIfError(left_children->Add(RowHash{}(key), row));
      }
      ThrowIfError(left_children->FinishWrites());
      RecordSpillEvent(ctx, right_children->bytes() + left_children->bytes(),
                       &mutable_stats());
      right_file.reset();
      left_file.reset();
      for (size_t i = 0; i < right_children->fanout(); ++i) {
        ProcessJoinPartition(right_children->TakePartition(i),
                             left_children->TakePartition(i), level + 1);
      }
      return;
    }
    ThrowIfError(left_file->Rewind());
    while (NextOrThrow(left_file.get(), &row)) {
      const uint64_t seq = PopRowSeq(&row);
      EvalKeyInto(left_keys_, row, &key);
      const auto it = build.find(key);
      if (it == build.end()) continue;
      for (const Row& right_row : it->second) {
        results_.rows.push_back(Concat(row, right_row));
        result_seqs_.push_back(seq);
      }
    }
    build.clear();
    results_bytes_ = ApproxRowVectorBytes(results_.rows);
    ChargeMemory(results_bytes_);
  }

  OperatorPtr left_;
  OperatorPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  Schema schema_;
  BuildMap build_;
  // Probe cursor: the current probe batch, the row after the one being
  // joined, that row and its build matches not yet emitted.
  RowBatch probe_;
  size_t probe_pos_ = 0;
  Row probe_row_;
  Row probe_key_;
  const std::vector<Row>* matches_ = nullptr;
  size_t match_index_ = 0;
  // Spilled-mode output: materialized join result, restored to probe order.
  bool spilled_mode_ = false;
  BufferedRows results_;
  /// Spilled mode only: probe sequence of each results_ row, consumed by
  /// RestoreSpilledOrder.
  std::vector<uint64_t> result_seqs_;
  size_t results_bytes_ = 0;
};

class NestedLoopJoinOp final : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr predicate)
      : left_(std::move(left)),
        right_(std::move(right)),
        predicate_(std::move(predicate)),
        schema_(Schema::Concat(left_->schema(), right_->schema())) {}
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "NestedLoopJoin"; }
  std::string label() const override {
    return predicate_ == nullptr
               ? std::string("NestedLoopJoin (cross)")
               : "NestedLoopJoin " + predicate_->ToString();
  }
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

  void OpenImpl() override {
    right_->Open();
    CloseImpl();
    DrainChild(*right_, [&](Row& row) { right_rows_.push_back(std::move(row)); });
    ChargeMemory(ApproxRowVectorBytes(right_rows_));
    left_->Open();
  }

  /// Joins one left batch at a time against the buffered right side; the
  /// (left row, right row) cursor carries over between calls, so a cross
  /// join never materializes its output.
  bool NextBatchImpl(RowBatch* out) override {
    while (!out->Full()) {
      if (probe_pos_ >= probe_.size()) {
        if (!left_->NextBatch(&probe_)) break;
        probe_pos_ = 0;
        right_index_ = 0;
      }
      if (right_index_ >= right_rows_.size()) {
        ++probe_pos_;
        right_index_ = 0;
        continue;
      }
      if (right_index_ == 0) probe_.TakeRow(probe_pos_, &probe_row_);
      Row joined = Concat(probe_row_, right_rows_[right_index_++]);
      if (predicate_ == nullptr || predicate_->Evaluate(joined).ToBool()) {
        out->Append(std::move(joined));
      }
    }
    return !out->empty();
  }

  void CloseImpl() override {
    std::vector<Row>().swap(right_rows_);
    probe_ = RowBatch();
    Row().swap(probe_row_);
    probe_pos_ = 0;
    right_index_ = 0;
  }

 private:
  OperatorPtr left_;
  OperatorPtr right_;
  ExprPtr predicate_;
  Schema schema_;
  std::vector<Row> right_rows_;
  // Probe cursor: the current left batch, the position and cells of the
  // left row being joined, and the next right row to pair it with.
  RowBatch probe_;
  size_t probe_pos_ = 0;
  Row probe_row_;
  size_t right_index_ = 0;
};

class SortOp final : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys)
      : child_(std::move(child)) {
    for (SortKey& k : keys) {
      key_exprs_.push_back(std::move(k.expr));
      descending_.push_back(!k.ascending);
    }
  }
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Sort"; }
  std::string label() const override {
    std::string out = "Sort [";
    for (size_t i = 0; i < key_exprs_.size(); ++i) {
      if (i > 0) out += ", ";
      out += key_exprs_[i]->ToString();
      out += descending_[i] ? " desc" : " asc";
    }
    return out + "]";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  /// With spilling on, this is an external sort: accumulate rows until the
  /// budget pushes back, flush them as a stably sorted run, and merge the
  /// runs lazily in NextBatchImpl.
  void OpenImpl() override {
    child_->Open();
    CloseImpl();
    const bool spill = SpillEnabled();
    size_t mem_estimate = 0;
    DrainChild(*child_, [&](Row& row) {
      keys_.push_back(EvalKey(key_exprs_, row));
      rows_.push_back(std::move(row));
      if (!spill) return;
      mem_estimate += 2 * sizeof(Row) +
                      (rows_.back().capacity() + key_exprs_.size()) *
                          sizeof(Value);
      if (TryChargeMemory(mem_estimate)) return;
      WriteRun();
      mem_estimate = 0;
      ChargeMemory(0);
    });
    if (runs_.empty()) {  // everything fit: plain in-memory sort
      ChargeMemory(ApproxRowVectorBytes(rows_) + ApproxRowVectorBytes(keys_));
      results_.rows = SortBuffered();
      return;
    }
    if (!rows_.empty()) {
      WriteRun();
      ChargeMemory(0);
    }
    mutable_stats().extra["runs"] = runs_.size();
    heads_.resize(runs_.size());
    for (size_t i = 0; i < runs_.size(); ++i) AdvanceRun(i);
  }

  bool NextBatchImpl(RowBatch* out) override {
    if (heads_.empty()) return results_.Emit(out);
    // K-way merge, linear scan over the run heads (run counts are small).
    // Strict less-than keeps the earliest run on ties; runs are consecutive
    // input segments sorted stably, so the merged order is bit-identical to
    // the in-memory stable sort.
    while (!out->Full()) {
      int best = -1;
      for (size_t i = 0; i < heads_.size(); ++i) {
        if (!heads_[i].has_value()) continue;
        if (best < 0 ||
            KeyLess(heads_[i]->key, heads_[best]->key, descending_)) {
          best = static_cast<int>(i);
        }
      }
      if (best < 0) break;
      out->Append(std::move(heads_[best]->row));
      AdvanceRun(static_cast<size_t>(best));
    }
    return !out->empty();
  }

  void CloseImpl() override {
    std::vector<Row>().swap(rows_);
    std::vector<Row>().swap(keys_);
    results_.Release();
    runs_.clear();
    heads_.clear();
  }

 private:
  /// A run's next row in merge order, with its evaluated sort key.
  struct RunHead {
    Row row;
    Row key;
  };

  /// Empties the buffer into a vector in stable key order.
  std::vector<Row> SortBuffered() {
    std::vector<Row> sorted;
    sorted.reserve(rows_.size());
    for (size_t i : StableKeyOrder(keys_, descending_)) {
      sorted.push_back(std::move(rows_[i]));
    }
    rows_.clear();
    keys_.clear();
    return sorted;
  }

  void WriteRun() {
    CheckAbort();
    std::unique_ptr<SpillFile> run =
        CreateSpillFileOrThrow(query_context()->spill().directory);
    for (const Row& row : SortBuffered()) ThrowIfError(run->Append(row));
    ThrowIfError(run->FinishWrites());
    RecordSpillEvent(query_context(), run->bytes(), &mutable_stats());
    runs_.push_back(std::move(run));
  }

  /// Loads run i's next row into its head slot, evaluating its key once.
  void AdvanceRun(size_t i) {
    Row row;
    if (NextOrThrow(runs_[i].get(), &row)) {
      Row key = EvalKey(key_exprs_, row);
      heads_[i] = RunHead{std::move(row), std::move(key)};
    } else {
      heads_[i].reset();
    }
  }

  OperatorPtr child_;
  std::vector<ExprPtr> key_exprs_;
  std::vector<bool> descending_;
  // Input buffer: rows and their evaluated sort keys, index-aligned.
  std::vector<Row> rows_;
  std::vector<Row> keys_;
  BufferedRows results_;
  // Spilled-mode state: sorted runs and their current merge heads.
  std::vector<std::unique_ptr<SpillFile>> runs_;
  std::vector<std::optional<RunHead>> heads_;
};

class LimitOp final : public Operator {
 public:
  LimitOp(OperatorPtr child, size_t limit)
      : child_(std::move(child)), limit_(limit) {}
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Limit"; }
  std::string label() const override {
    return "Limit " + std::to_string(limit_);
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }
  void OpenImpl() override {
    child_->Open();
    emitted_ = 0;
  }
  /// Asks the child for at most the rows still needed.
  bool NextBatchImpl(RowBatch* out) override {
    if (emitted_ >= limit_) return false;
    RowBatch head(std::min(limit_ - emitted_, out->capacity()));
    if (!child_->NextBatch(&head)) return false;
    out->SwapContents(&head);
    emitted_ += out->size();
    return true;
  }

 private:
  OperatorPtr child_;
  size_t limit_;
  size_t emitted_ = 0;
};

}  // namespace

OperatorPtr MakeTableScan(TableSourcePtr source,
                          const std::string& qualifier) {
  return std::make_unique<TableScanOp>(std::move(source), qualifier);
}

OperatorPtr MakeFilter(OperatorPtr child, ExprPtr predicate) {
  return std::make_unique<FilterOp>(std::move(child), std::move(predicate));
}

OperatorPtr MakeProject(OperatorPtr child, std::vector<ExprPtr> exprs,
                        std::vector<Column> output_columns) {
  return std::make_unique<ProjectOp>(std::move(child), std::move(exprs),
                                     std::move(output_columns));
}

OperatorPtr MakeHashAggregate(OperatorPtr child,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<Column> group_columns,
                              std::vector<AggregateSpec> aggregates,
                              size_t est_groups) {
  return std::make_unique<HashAggregateOp>(
      std::move(child), std::move(group_exprs), std::move(group_columns),
      std::move(aggregates), est_groups);
}

OperatorPtr MakeSortAggregate(OperatorPtr child,
                              std::vector<ExprPtr> group_exprs,
                              std::vector<Column> group_columns,
                              std::vector<AggregateSpec> aggregates) {
  return std::make_unique<SortAggregateOp>(
      std::move(child), std::move(group_exprs), std::move(group_columns),
      std::move(aggregates));
}

OperatorPtr MakeHashJoin(OperatorPtr left, OperatorPtr right,
                         std::vector<ExprPtr> left_keys,
                         std::vector<ExprPtr> right_keys) {
  return std::make_unique<HashJoinOp>(std::move(left), std::move(right),
                                      std::move(left_keys),
                                      std::move(right_keys));
}

OperatorPtr MakeNestedLoopJoin(OperatorPtr left, OperatorPtr right,
                               ExprPtr predicate) {
  return std::make_unique<NestedLoopJoinOp>(std::move(left), std::move(right),
                                            std::move(predicate));
}

OperatorPtr MakeSort(OperatorPtr child, std::vector<SortKey> keys) {
  return std::make_unique<SortOp>(std::move(child), std::move(keys));
}

OperatorPtr MakeLimit(OperatorPtr child, size_t limit) {
  return std::make_unique<LimitOp>(std::move(child), limit);
}

namespace {

/// Renders a cost-model annotation: " (est_rows=N est_bytes=… note)".
/// Empty string when the planner had no statistics for this node.
std::string FormatPlanEstimate(const Operator& op) {
  const Operator::PlanEstimate& est = op.plan_estimate();
  if (est.rows < 0 && est.bytes < 0 && est.note.empty()) return "";
  std::string out = " (";
  bool first = true;
  if (est.rows >= 0) {
    out += "est_rows=" + std::to_string(static_cast<long long>(
                             std::llround(est.rows)));
    first = false;
  }
  if (est.bytes >= 0) {
    if (!first) out += ' ';
    out += "est_bytes=" +
           FormatMemoryBytes(static_cast<uint64_t>(std::llround(est.bytes)));
    first = false;
  }
  if (!est.note.empty()) {
    if (!first) out += ' ';
    out += est.note;
  }
  return out + ")";
}

void ExplainRec(const Operator& op, int depth, std::string* out) {
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += op.label();
  *out += FormatPlanEstimate(op);
  *out += '\n';
  for (const Operator* child : op.children()) {
    ExplainRec(*child, depth + 1, out);
  }
}

}  // namespace

std::string ExplainPlan(const Operator& root) {
  std::string out;
  ExplainRec(root, 0, &out);
  return out;
}

std::string FormatMemoryBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1024 * 1024) {
    std::snprintf(buf, sizeof buf, "%.1fMB",
                  static_cast<double>(bytes) / (1024.0 * 1024.0));
  } else if (bytes >= 1024) {
    std::snprintf(buf, sizeof buf, "%.1fKB",
                  static_cast<double>(bytes) / 1024.0);
  } else {
    std::snprintf(buf, sizeof buf, "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

namespace {

void ExplainAnalyzeRec(const Operator& op, int depth, std::string* out) {
  const OperatorStats& stats = op.stats();
  out->append(static_cast<size_t>(depth) * 2, ' ');
  *out += op.label();
  char buf[64];
  std::snprintf(buf, sizeof buf, " (rows=%llu",
                static_cast<unsigned long long>(stats.rows_produced));
  *out += buf;
  if (op.plan_estimate().rows >= 0) {
    // Estimate beside actual: the plan-vs-actual drift EXPLAIN ANALYZE
    // tests gate on.
    std::snprintf(buf, sizeof buf, " est_rows=%lld",
                  static_cast<long long>(std::llround(op.plan_estimate().rows)));
    *out += buf;
  }
  std::snprintf(buf, sizeof buf, " time=%.3fms", stats.TotalMillis());
  *out += buf;
  if (stats.batches > 0) {
    std::snprintf(buf, sizeof buf, " batches=%llu batch_size=%llu",
                  static_cast<unsigned long long>(stats.batches),
                  static_cast<unsigned long long>(stats.rows_produced /
                                                  stats.batches));
    *out += buf;
  }
  if (stats.peak_memory_bytes > 0) {
    *out += " mem=" + FormatMemoryBytes(stats.peak_memory_bytes);
  }
  for (const auto& [key, value] : stats.extra) {
    *out += ' ' + key + '=' + std::to_string(value);
  }
  *out += ")\n";
  for (const Operator* child : op.children()) {
    ExplainAnalyzeRec(*child, depth + 1, out);
  }
}

}  // namespace

std::string ExplainAnalyzePlan(const Operator& root) {
  std::string out;
  ExplainAnalyzeRec(root, 0, &out);
  return out;
}

namespace {

/// Releases the result-table charge on every exit path of Materialize —
/// the query tracker only outlives the call by a moment, so the bytes of
/// the returned table must not stay charged against the budget.
struct ResultTableCharge {
  QueryContext* ctx;
  size_t charged = 0;
  ~ResultTableCharge() {
    if (ctx != nullptr && charged > 0) ctx->memory().Release(charged);
  }
  Status Update(const Table& table) {
    if (ctx == nullptr) return Status::OK();
    const size_t now = ApproxRowVectorBytes(table.rows());
    if (now > charged) {
      SGB_RETURN_IF_ERROR(ctx->memory().TryConsume(now - charged));
      charged = now;
    }
    return Status::OK();
  }
};

/// Closes the plan on every exit path of Materialize, so a cached plan
/// keeps none of this run's buffers.
struct PlanCloser {
  Operator& root;
  ~PlanCloser() { root.Close(); }
};

}  // namespace

Result<Table> Materialize(Operator& root) {
  ResultTableCharge charge{root.query_context()};
  PlanCloser closer{root};
  try {
    Table table(root.schema());
    root.Open();
    RowBatch batch;
    while (root.NextBatch(&batch)) {
      for (size_t i = 0; i < batch.size(); ++i) {
        Row row;
        batch.TakeRow(i, &row);
        SGB_RETURN_IF_ERROR(table.Append(std::move(row)));
      }
      SGB_RETURN_IF_ERROR(charge.Update(table));
    }
    return table;
  } catch (const QueryAbort& abort) {
    // Governance failures (cancel, deadline, budget, injected faults)
    // travel as exceptions through the bool-returning operator interface
    // and become a plain Status here.
    return abort.status();
  }
}

}  // namespace sgb::engine
