#ifndef SGB_ENGINE_APPEND_TABLE_H_
#define SGB_ENGINE_APPEND_TABLE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/schema.h"
#include "engine/table.h"
#include "engine/table_source.h"

namespace sgb::engine {

/// Validates INSERT arity and coerces every value to its column type, in
/// place (int <-> double; NULL always admitted; a string into a numeric
/// column is InvalidArgument). Shared by the append-only (in-memory) and
/// paged (disk-backed) storage backends so both enforce identical typing.
Status CoerceRowsToSchema(const Schema& schema, std::vector<Row>* rows);

/// A mutable, append-only table supporting single-writer-at-a-time appends
/// and fully concurrent lock-free snapshot reads — the storage behind
/// CREATE TABLE / INSERT and the server's multi-session traffic
/// (docs/SERVER.md "Snapshot semantics").
///
/// Storage is chunked: rows live in fixed-size chunks whose addresses never
/// change once allocated, and the published row count is an atomic updated
/// with release ordering only after every row of an Append() is in place.
/// A reader that loads the count with acquire ordering may then index any
/// row below it without locking — it can never see a torn row or a torn
/// statement (an INSERT's rows become visible all at once), and writers
/// never block readers.
///
/// Capacity is bounded at kMaxChunks * kChunkRows rows (the chunk directory
/// is preallocated so it never reallocates under readers); appends beyond
/// that fail with ResourceExhausted.
class AppendOnlyTable final : public TableSource {
 public:
  static constexpr size_t kChunkRows = 1024;
  static constexpr size_t kMaxChunks = 8192;  ///< ~8.4M row capacity

  explicit AppendOnlyTable(Schema schema);

  const Schema& schema() const override { return schema_; }
  TableKind kind() const override { return TableKind::kAppendable; }
  size_t bytes() const override {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// Pins the published row count: every row below it is immutable, and
  /// rows appended later stay invisible to the pin.
  Result<TableCursorPtr> Pin() const override;

  /// Appends `rows` as one atomic statement: concurrent snapshots see
  /// either none or all of them. Arity must match the schema; values are
  /// coerced to the column types (int <-> double; NULL always admitted).
  /// Fault site: `engine.append.insert` (once per call).
  Status Append(std::vector<Row> rows);

 private:
  Schema schema_;
  /// Fixed-size chunk directory: slots are allocated front to back under
  /// `write_mu_`; a slot, once set, never changes. Readers only touch
  /// slots wholly below the published size.
  std::vector<std::unique_ptr<Row[]>> chunks_;
  std::atomic<size_t> size_{0};
  std::atomic<size_t> bytes_{0};
  std::mutex write_mu_;  ///< serializes writers; readers never take it
};

using AppendTablePtr = std::shared_ptr<AppendOnlyTable>;

}  // namespace sgb::engine

#endif  // SGB_ENGINE_APPEND_TABLE_H_
