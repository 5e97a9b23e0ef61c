#include "engine/row_batch.h"

#include <utility>

namespace sgb::engine {

// ---- ColumnVector ----------------------------------------------------------

void ColumnVector::MarkNull(size_t i) {
  if (nulls_.size() <= (i >> 6)) nulls_.resize((i >> 6) + 1, 0);
  nulls_[i >> 6] |= uint64_t{1} << (i & 63);
  ++null_count_;
}

void ColumnVector::Promote(Layout layout) {
  if (layout_ == Layout::kNull) {
    switch (layout) {
      case Layout::kInt64:
        ints_.assign(size_, 0);
        break;
      case Layout::kDouble:
        doubles_.assign(size_, 0.0);
        break;
      case Layout::kString:
        strings_.assign(size_, std::string());
        break;
      case Layout::kValue:
        values_.assign(size_, Value());
        break;
      case Layout::kNull:
        break;
    }
    layout_ = layout;
    return;
  }
  // Mixed types: every cell so far becomes a Value.
  values_.clear();
  values_.reserve(size_);
  for (size_t i = 0; i < size_; ++i) values_.push_back(TakeValue(i));
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  layout_ = Layout::kValue;
}

void ColumnVector::AppendOther(Value v) {
  const DataType type = v.type();
  const Layout want = type == DataType::kInt64    ? Layout::kInt64
                      : type == DataType::kDouble ? Layout::kDouble
                                                  : Layout::kString;
  if (type == DataType::kString) string_bytes_ += v.AsString().size();
  if (layout_ != want && layout_ != Layout::kValue) {
    Promote(layout_ == Layout::kNull ? want : Layout::kValue);
  }
  switch (layout_) {
    case Layout::kInt64:
      ints_.push_back(v.AsInt());
      break;
    case Layout::kDouble:
      doubles_.push_back(v.AsDouble());
      break;
    case Layout::kString:
      strings_.push_back(v.TakeString());
      break;
    default:
      values_.push_back(std::move(v));
      break;
  }
  ++size_;
}

void ColumnVector::AppendNull() {
  switch (layout_) {
    case Layout::kInt64:
      ints_.push_back(0);
      break;
    case Layout::kDouble:
      doubles_.push_back(0.0);
      break;
    case Layout::kString:
      strings_.emplace_back();
      break;
    case Layout::kValue:
      values_.emplace_back();
      break;
    case Layout::kNull:
      break;
  }
  MarkNull(size_++);
}

void ColumnVector::AppendCell(const CellRef& cell) {
  switch (cell.type) {
    case DataType::kNull:
      return AppendNull();
    case DataType::kInt64:
      return AppendInt(cell.i);
    case DataType::kDouble:
      return AppendDouble(cell.d);
    case DataType::kString:
      return AppendString(*cell.s);
  }
}

Value ColumnVector::ValueAt(size_t i) const {
  if (layout_ == Layout::kValue) return values_[i];
  return CellAt(i).ToValue();
}

template <bool kMove, typename Src>
void ColumnVector::AppendRangeImpl(Src& src, size_t begin, size_t end) {
  const bool typed = src.layout_ != Layout::kNull &&
                     src.layout_ != Layout::kValue && src.null_count_ == 0;
  if (typed && (layout_ == src.layout_ || size_ == 0)) {
    // Same typed layout and no NULLs: one bulk copy.
    layout_ = src.layout_;
    switch (layout_) {
      case Layout::kInt64:
        ints_.insert(ints_.end(), src.ints_.begin() + begin,
                     src.ints_.begin() + end);
        break;
      case Layout::kDouble:
        doubles_.insert(doubles_.end(), src.doubles_.begin() + begin,
                        src.doubles_.begin() + end);
        break;
      default:
        for (size_t i = begin; i < end; ++i) {
          string_bytes_ += src.strings_[i].size();
          if constexpr (kMove) {
            strings_.push_back(std::move(src.strings_[i]));
          } else {
            strings_.push_back(src.strings_[i]);
          }
        }
        break;
    }
    size_ += end - begin;
    return;
  }
  for (size_t i = begin; i < end; ++i) {
    if constexpr (kMove) {
      Append(src.TakeValue(i));
    } else {
      AppendCell(src.CellAt(i));
    }
  }
}

void ColumnVector::AppendRange(const ColumnVector& src, size_t begin,
                               size_t end) {
  AppendRangeImpl<false>(src, begin, end);
}

void ColumnVector::MoveRange(ColumnVector* src, size_t begin, size_t end) {
  AppendRangeImpl<true>(*src, begin, end);
}

void ColumnVector::Gather(const ColumnVector& src, const uint32_t* idx,
                          size_t n) {
  if (src.null_count_ == 0 && src.layout_ == Layout::kDouble &&
      (layout_ == Layout::kDouble || size_ == 0)) {
    layout_ = Layout::kDouble;
    for (size_t k = 0; k < n; ++k) doubles_.push_back(src.doubles_[idx[k]]);
    size_ += n;
    return;
  }
  for (size_t k = 0; k < n; ++k) AppendCell(src.CellAt(idx[k]));
}

void ColumnVector::Clear() {
  layout_ = Layout::kNull;
  size_ = 0;
  null_count_ = 0;
  string_bytes_ = 0;
  nulls_.clear();
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  values_.clear();
}

size_t ColumnVector::bytes() const {
  return nulls_.capacity() * sizeof(uint64_t) +
         ints_.capacity() * sizeof(int64_t) +
         doubles_.capacity() * sizeof(double) +
         strings_.capacity() * sizeof(std::string) +
         values_.capacity() * sizeof(Value) + string_bytes_;
}

// ---- RowBatch --------------------------------------------------------------

void RowBatch::Clear() {
  rows_ = 0;
  selected_ = false;
  selection_.clear();
  for (ColumnVector& column : columns_) column.Clear();
}

void RowBatch::SetNumColumns(size_t n) { columns_.resize(n); }

void RowBatch::SetSelection(std::vector<uint32_t> rows) {
  selection_ = std::move(rows);
  selected_ = true;
}

void RowBatch::Append(const Row& row) {
  if (rows_ == 0) SetNumColumns(row.size());
  for (size_t c = 0; c < row.size(); ++c) columns_[c].Append(row[c]);
  ++rows_;
}

void RowBatch::Append(Row&& row) {
  if (rows_ == 0) SetNumColumns(row.size());
  for (size_t c = 0; c < row.size(); ++c) {
    columns_[c].Append(std::move(row[c]));
  }
  ++rows_;
}

void RowBatch::MoveRows(RowBatch* src, size_t begin, size_t end) {
  if (rows_ == 0) SetNumColumns(src->num_columns());
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].MoveRange(&src->columns_[c], begin, end);
  }
  rows_ += end - begin;
}

void RowBatch::SwapContents(RowBatch* other) {
  std::swap(rows_, other->rows_);
  std::swap(selected_, other->selected_);
  selection_.swap(other->selection_);
  columns_.swap(other->columns_);
}

void RowBatch::TakeRow(size_t i, Row* row) {
  const size_t r = RowIndex(i);
  row->resize(columns_.size());
  for (size_t c = 0; c < columns_.size(); ++c) {
    (*row)[c] = columns_[c].TakeValue(r);
  }
}

size_t RowBatch::bytes() const {
  size_t total = selection_.capacity() * sizeof(uint32_t);
  for (const ColumnVector& column : columns_) total += column.bytes();
  return total;
}

}  // namespace sgb::engine
