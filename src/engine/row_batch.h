#ifndef SGB_ENGINE_ROW_BATCH_H_
#define SGB_ENGINE_ROW_BATCH_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/value.h"

namespace sgb::engine {

/// One column of a RowBatch. Cells of one type live in one typed vector
/// (int64, double or string); a column whose cells mix types falls back to
/// one Value per cell. NULL cells are marked in a bitmap and hold a
/// placeholder in the typed vector. The layout is picked by the cells
/// appended since the last Clear(), never declared: a registered Table only
/// checks arity, and planner-made columns are typed kNull.
class ColumnVector {
 public:
  enum class Layout : uint8_t { kNull, kInt64, kDouble, kString, kValue };

  Layout layout() const { return layout_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return null_count_ > 0; }
  bool IsNull(size_t i) const {
    return null_count_ > 0 && (i >> 6) < nulls_.size() &&
           ((nulls_[i >> 6] >> (i & 63)) & 1) != 0;
  }

  /// The typed storage of the numeric layouts (filled only in that
  /// layout).
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }

  CellRef CellAt(size_t i) const;
  Value ValueAt(size_t i) const;
  /// Moves cell i out as a Value (a string payload is moved, not copied).
  Value TakeValue(size_t i);

  void AppendNull();
  void AppendInt(int64_t v) {
    if (layout_ != Layout::kInt64) return AppendOther(Value::Int(v));
    ints_.push_back(v);
    ++size_;
  }
  void AppendDouble(double v) {
    if (layout_ != Layout::kDouble) return AppendOther(Value::Double(v));
    doubles_.push_back(v);
    ++size_;
  }
  void AppendString(std::string v);
  void Append(const Value& v);
  void Append(Value&& v);
  void AppendCell(const CellRef& cell);

  /// Appends cells [begin, end) of `src`; the moving form leaves the moved
  /// string payloads of `src` empty.
  void AppendRange(const ColumnVector& src, size_t begin, size_t end);
  void MoveRange(ColumnVector* src, size_t begin, size_t end);
  /// Appends the cells of `src` at positions `idx[0..n)`.
  void Gather(const ColumnVector& src, const uint32_t* idx, size_t n);

  /// Drops every cell (and the layout) but keeps the allocations.
  void Clear();

  /// Bytes held: storage capacity plus string payloads.
  size_t bytes() const;

 private:
  template <bool kMove, typename Src>
  void AppendRangeImpl(Src& src, size_t begin, size_t end);
  /// Switches to `layout` for the next non-NULL cell: from kNull to a typed
  /// layout (placeholders for the NULLs so far) or from anything to kValue.
  void Promote(Layout layout);
  /// Appends a non-NULL cell whose type differs from the layout so far,
  /// promoting the column as needed.
  void AppendOther(Value v);
  void MarkNull(size_t i);

  Layout layout_ = Layout::kNull;
  size_t size_ = 0;
  size_t null_count_ = 0;
  size_t string_bytes_ = 0;
  std::vector<uint64_t> nulls_;  ///< bit i set: cell i is NULL
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<Value> values_;
};

/// The unit of batch-at-a-time execution: one ColumnVector per column, the
/// physical rows they hold, and an optional selection vector naming the
/// active rows in order. A Filter sets the selection instead of copying
/// rows. Producers fill it column by column (scans, projections, the SGB
/// operator) or row by row through Append (operators that still work on
/// materialized rows); row-at-a-time consumers read it through TakeRow.
class RowBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  size_t capacity() const { return capacity_; }
  /// Active rows: the selection's length, else every physical row.
  size_t size() const { return selected_ ? selection_.size() : rows_; }
  bool empty() const { return size() == 0; }
  bool Full() const { return size() >= capacity_; }
  /// No rows and no selection; keeps the columns' allocations.
  void Clear();

  size_t num_columns() const { return columns_.size(); }
  /// Sets the column count of an empty batch.
  void SetNumColumns(size_t n);
  ColumnVector& column(size_t c) { return columns_[c]; }
  const ColumnVector& column(size_t c) const { return columns_[c]; }

  /// Rows held by the columns, selected or not.
  size_t num_rows() const { return rows_; }
  /// Declares the columns filled, column by column, to `rows` rows.
  void SetNumRows(size_t rows) { rows_ = rows; }

  bool has_selection() const { return selected_; }
  const std::vector<uint32_t>& selection() const { return selection_; }
  /// Restricts the batch to physical rows `rows` (ascending).
  void SetSelection(std::vector<uint32_t> rows);
  /// The physical row of active row i.
  size_t RowIndex(size_t i) const { return selected_ ? selection_[i] : i; }

  /// Appends one row's cells (column count taken from the first row).
  void Append(const Row& row);
  /// Moves the cells out of `row`, whose storage the caller may reuse.
  void Append(Row&& row);
  /// Moves physical rows [begin, end) of `src`, which has no selection.
  void MoveRows(RowBatch* src, size_t begin, size_t end);
  /// Exchanges rows, columns and selection; capacities stay.
  void SwapContents(RowBatch* other);

  /// The row materialization point: moves active row i's cells into `*row`,
  /// reusing its storage. Used by operators that still run on rows
  /// (docs/VECTORIZATION.md).
  void TakeRow(size_t i, Row* row);

  /// Bytes held by the columns and the selection vector.
  size_t bytes() const;

 private:
  size_t capacity_;
  size_t rows_ = 0;
  bool selected_ = false;
  std::vector<uint32_t> selection_;
  std::vector<ColumnVector> columns_;
};

// ---- Inline hot paths: the per-cell work of scans and row materialization.

inline void ColumnVector::AppendString(std::string v) {
  if (layout_ != Layout::kString) return AppendOther(Value::Str(std::move(v)));
  string_bytes_ += v.size();
  strings_.push_back(std::move(v));
  ++size_;
}

inline void ColumnVector::Append(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return AppendNull();
    case DataType::kInt64:
      return AppendInt(v.AsInt());
    case DataType::kDouble:
      return AppendDouble(v.AsDouble());
    case DataType::kString:
      return AppendString(v.AsString());
  }
}

inline void ColumnVector::Append(Value&& v) {
  if (v.type() == DataType::kString) return AppendString(v.TakeString());
  Append(static_cast<const Value&>(v));
}

inline CellRef ColumnVector::CellAt(size_t i) const {
  CellRef cell;
  if (IsNull(i)) return cell;
  switch (layout_) {
    case Layout::kInt64:
      cell.type = DataType::kInt64;
      cell.i = ints_[i];
      break;
    case Layout::kDouble:
      cell.type = DataType::kDouble;
      cell.d = doubles_[i];
      break;
    case Layout::kString:
      cell.type = DataType::kString;
      cell.s = &strings_[i];
      break;
    case Layout::kValue:
      return CellRef::Of(values_[i]);
    case Layout::kNull:
      break;
  }
  return cell;
}

inline Value ColumnVector::TakeValue(size_t i) {
  if (IsNull(i)) return Value::Null();
  switch (layout_) {
    case Layout::kInt64:
      return Value::Int(ints_[i]);
    case Layout::kDouble:
      return Value::Double(doubles_[i]);
    case Layout::kString:
      return Value::Str(std::move(strings_[i]));
    case Layout::kValue:
      return std::move(values_[i]);
    case Layout::kNull:
      break;
  }
  return Value::Null();
}

}  // namespace sgb::engine

#endif  // SGB_ENGINE_ROW_BATCH_H_
