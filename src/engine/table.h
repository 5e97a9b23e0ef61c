#ifndef SGB_ENGINE_TABLE_H_
#define SGB_ENGINE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/schema.h"
#include "engine/table_source.h"
#include "engine/value.h"

namespace sgb::engine {

/// An immutable-once-registered in-memory row store: registered tables,
/// materialized query results, and virtual-table snapshots.
class Table final : public TableSource {
 public:
  Table() = default;
  explicit Table(Schema schema) : schema_(std::move(schema)) {}

  const Schema& schema() const override { return schema_; }
  TableKind kind() const override { return TableKind::kTable; }
  size_t bytes() const override;
  /// Borrows the table: it must not be appended to while pinned.
  Result<TableCursorPtr> Pin() const override;
  const std::vector<Row>& rows() const { return rows_; }
  size_t NumRows() const { return rows_.size(); }

  /// Appends a row; the arity must match the schema.
  Status Append(Row row);

  void Reserve(size_t rows) { rows_.reserve(rows); }

  /// Renders the table as an aligned text grid (for examples and docs).
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Row> rows_;
};

using TablePtr = std::shared_ptr<const Table>;

/// Rough bytes held by a materialized row vector (Row headers + Value
/// slots; string payloads are not walked). Used for peak-memory estimates.
size_t ApproxRowVectorBytes(const std::vector<Row>& rows);

}  // namespace sgb::engine

#endif  // SGB_ENGINE_TABLE_H_
