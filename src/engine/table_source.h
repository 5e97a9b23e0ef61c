#ifndef SGB_ENGINE_TABLE_SOURCE_H_
#define SGB_ENGINE_TABLE_SOURCE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "engine/schema.h"
#include "engine/value.h"

namespace sgb::engine {

/// Fixed-capacity container of rows for batch-at-a-time execution. A batch
/// is filled by one NextBatch() call and consumed wholesale by the parent,
/// amortizing the per-row virtual-call and timing overhead of the Volcano
/// interface across kDefaultCapacity rows.
class RowBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit RowBatch(size_t capacity = kDefaultCapacity)
      : capacity_(capacity == 0 ? 1 : capacity) {
    rows_.reserve(capacity_);
  }

  size_t capacity() const { return capacity_; }
  size_t size() const { return rows_.size(); }
  bool empty() const { return rows_.empty(); }
  bool Full() const { return rows_.size() >= capacity_; }
  void Clear() { rows_.clear(); }
  void Append(Row row) { rows_.push_back(std::move(row)); }

  std::vector<Row>& rows() { return rows_; }
  const std::vector<Row>& rows() const { return rows_; }

 private:
  size_t capacity_;
  std::vector<Row> rows_;
};

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
  bool Next(RowBatch* out) override {
    const size_t end = std::min(rows_, next_ + out->capacity());
    for (; next_ < end; ++next_) out->Append(row_at_(next_));
    return !out->empty();
  }
  void Restart() override { next_ = 0; }

 private:
  size_t rows_;
  RowAt row_at_;
  size_t next_ = 0;
};

template <typename RowAt>
TableCursorPtr MakeIndexedCursor(size_t rows, RowAt row_at) {
  return std::make_unique<IndexedCursor<RowAt>>(rows, std::move(row_at));
}

}  // namespace sgb::engine

#endif  // SGB_ENGINE_TABLE_SOURCE_H_
