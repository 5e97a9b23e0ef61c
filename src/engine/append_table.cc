#include "engine/append_table.h"

#include <utility>

#include "common/fault_injection.h"

namespace sgb::engine {

// Armed faults simulate storage exhaustion mid-INSERT; the statement fails
// atomically (no partial rows become visible).
static FaultSite g_append_insert_fault("engine.append.insert",
                                       Status::Code::kResourceExhausted);

namespace {

/// Rough per-row footprint, mirroring ApproxRowVectorBytes's accounting.
size_t ApproxRowBytes(const Row& row) {
  size_t bytes = sizeof(Row) + row.capacity() * sizeof(Value);
  for (const Value& v : row) {
    if (v.type() == DataType::kString) bytes += v.AsString().capacity();
  }
  return bytes;
}

/// Coerces `v` to the column type; InvalidArgument when the value cannot
/// represent the column's type (e.g. a string into an INT column).
Result<Value> CoerceToColumn(const Value& v, const Column& col) {
  if (v.is_null()) return Value::Null();
  switch (col.type) {
    case DataType::kInt64:
      if (v.type() == DataType::kInt64) return v;
      if (v.type() == DataType::kDouble) {
        return Value::Int(static_cast<int64_t>(v.AsDouble()));
      }
      break;
    case DataType::kDouble:
      if (v.type() == DataType::kDouble) return v;
      if (v.type() == DataType::kInt64) {
        return Value::Double(static_cast<double>(v.AsInt()));
      }
      break;
    case DataType::kString:
      if (v.type() == DataType::kString) return v;
      break;
    case DataType::kNull:
      return v;  // untyped column admits anything
  }
  return Status::InvalidArgument(
      "cannot store " + std::string(ToString(v.type())) + " value in " +
      std::string(ToString(col.type)) + " column '" + col.name + "'");
}

}  // namespace

Status CoerceRowsToSchema(const Schema& schema, std::vector<Row>* rows) {
  for (Row& row : *rows) {
    if (row.size() != schema.size()) {
      return Status::InvalidArgument(
          "INSERT arity " + std::to_string(row.size()) +
          " does not match table arity " + std::to_string(schema.size()));
    }
    for (size_t c = 0; c < row.size(); ++c) {
      auto coerced = CoerceToColumn(row[c], schema.column(c));
      if (!coerced.ok()) return coerced.status();
      row[c] = std::move(coerced).value();
    }
  }
  return Status::OK();
}

AppendOnlyTable::AppendOnlyTable(Schema schema)
    : schema_(std::move(schema)), chunks_(kMaxChunks) {}

Status AppendOnlyTable::Append(std::vector<Row> rows) {
  SGB_RETURN_IF_ERROR(g_append_insert_fault.Check());
  // Validate + coerce before taking the writer lock; a bad statement
  // appends nothing.
  SGB_RETURN_IF_ERROR(CoerceRowsToSchema(schema_, &rows));

  std::lock_guard<std::mutex> lock(write_mu_);
  const size_t start = size_.load(std::memory_order_relaxed);
  if (start + rows.size() > kMaxChunks * kChunkRows) {
    return Status::ResourceExhausted(
        "append-only table full (" +
        std::to_string(kMaxChunks * kChunkRows) + " row capacity)");
  }
  size_t added_bytes = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t pos = start + i;
    const size_t chunk = pos / kChunkRows;
    if (chunks_[chunk] == nullptr) {
      chunks_[chunk] = std::make_unique<Row[]>(kChunkRows);
    }
    added_bytes += ApproxRowBytes(rows[i]);
    chunks_[chunk][pos % kChunkRows] = std::move(rows[i]);
  }
  bytes_.fetch_add(added_bytes, std::memory_order_relaxed);
  // Publish the whole statement at once: rows (and the chunk slots holding
  // them) are in place before this release store, so an acquire reader
  // that sees the new size sees every row below it.
  size_.store(start + rows.size(), std::memory_order_release);
  return Status::OK();
}

Result<TableCursorPtr> AppendOnlyTable::Pin() const {
  // Acquire pairs with Append's release store: every row (and chunk slot)
  // below the loaded size is in place.
  return MakeIndexedCursor(
      size_.load(std::memory_order_acquire), [this](size_t i) -> const Row& {
        return chunks_[i / kChunkRows][i % kChunkRows];
      });
}

}  // namespace sgb::engine
