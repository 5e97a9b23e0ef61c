#ifndef SGB_ENGINE_TABLE_SOURCE_H_
#define SGB_ENGINE_TABLE_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/row_batch.h"
#include "engine/schema.h"
#include "engine/value.h"

namespace sgb::engine {

/// What backs a catalog entry: an immutable registered table, a CREATE
/// TABLE append-only table, a disk-backed paged table, or a virtual
/// system.* table materialized by a provider.
enum class TableKind { kTable, kAppendable, kPaged, kSystem };

/// system.tables' kind column.
constexpr std::string_view TableKindName(TableKind kind) {
  constexpr std::string_view kNames[] = {"table", "appendable", "paged",
                                         "system"};
  return kNames[static_cast<size_t>(kind)];
}

/// A pinned snapshot of a source, read batch by batch. The row count is
/// fixed when the source is pinned, and every pass yields exactly those
/// rows in the same order. A cursor borrows its source, which must outlive
/// it.
class TableCursor {
 public:
  virtual ~TableCursor() = default;
  virtual size_t rows() const = 0;

  /// Fills `out` (which arrives empty) with up to out->capacity() rows and
  /// returns true, or returns false once the pass is done. Storage I/O
  /// failures throw QueryAbort.
  virtual bool Next(RowBatch* out) = 0;

  /// Starts another pass over the same pin.
  virtual void Restart() = 0;
};

using TableCursorPtr = std::unique_ptr<TableCursor>;

/// The one table abstraction: every catalog entry is a TableSource, and
/// every reader — the scan operator, ANALYZE, system.tables — pins it and
/// streams the snapshot. No reader copies a whole table into memory.
class TableSource {
 public:
  virtual ~TableSource() = default;
  virtual const Schema& schema() const = 0;
  virtual TableKind kind() const = 0;

  /// Approximate bytes held: row bytes in memory, pages on disk for paged
  /// tables, 0 for virtual tables.
  virtual size_t bytes() const = 0;

  /// Pins the current snapshot; later appends stay invisible to it.
  /// Thread-safe. Virtual tables invoke their provider here.
  virtual Result<TableCursorPtr> Pin() const = 0;
};

using TableSourcePtr = std::shared_ptr<const TableSource>;

/// The cursor of an in-memory snapshot whose rows are addressable by
/// position: `row_at(i)` is row i for every i below `rows`.
template <typename RowAt>
class IndexedCursor final : public TableCursor {
 public:
  IndexedCursor(size_t rows, RowAt row_at)
      : rows_(rows), row_at_(std::move(row_at)) {}

  size_t rows() const override { return rows_; }
  /// Copies the cells of the next rows column by column.
  bool Next(RowBatch* out) override {
    const size_t end = std::min(rows_, next_ + out->capacity());
    if (next_ >= end) return false;
    rows_in_flight_.clear();
    for (size_t i = next_; i < end; ++i) rows_in_flight_.push_back(&row_at_(i));
    const size_t width = rows_in_flight_.front()->size();
    out->SetNumColumns(width);
    for (size_t c = 0; c < width; ++c) {
      ColumnVector& column = out->column(c);
      for (const Row* row : rows_in_flight_) column.Append((*row)[c]);
    }
    out->SetNumRows(end - next_);
    next_ = end;
    return true;
  }
  void Restart() override { next_ = 0; }

 private:
  size_t rows_;
  RowAt row_at_;
  size_t next_ = 0;
  std::vector<const Row*> rows_in_flight_;
};

template <typename RowAt>
TableCursorPtr MakeIndexedCursor(size_t rows, RowAt row_at) {
  return std::make_unique<IndexedCursor<RowAt>>(rows, std::move(row_at));
}

}  // namespace sgb::engine

#endif  // SGB_ENGINE_TABLE_SOURCE_H_
