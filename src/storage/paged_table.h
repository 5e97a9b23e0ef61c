#ifndef SGB_STORAGE_PAGED_TABLE_H_
#define SGB_STORAGE_PAGED_TABLE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "engine/schema.h"
#include "engine/table_source.h"
#include "storage/buffer_manager.h"
#include "storage/page.h"
#include "storage/page_file.h"

namespace sgb::storage {

/// A disk-backed table: rows encoded with the spill codec, packed into
/// append-only slotted pages of one segment file, cached through the shared
/// BufferManager. Mirrors AppendOnlyTable's snapshot contract — a single
/// writer at a time (the StorageEngine's mutation lock) appends whole
/// statements, publishes the row count with a release store, and concurrent
/// scans pin that count and read only bytes published before it
/// (docs/STORAGE.md "Concurrency").
///
/// The page index (`rows_per_page_`) can run ahead of the published row
/// count while a statement is mid-append; Pin() clamps the per-page counts
/// down to the published total, so readers never see a torn statement.
/// Its cursors stream one page at a time through the pool, so a table
/// larger than the pool scans in constant memory.
class PagedTable final : public engine::TableSource {
 public:
  /// Co-owns `pool` (scans may hold a PagedTablePtr past the engine's
  /// lifetime, so the pool must survive until the last table dies); the
  /// segment registers with it here and unregisters in the destructor.
  /// `table_id` is the stable id behind the segment file name
  /// (manifest/WAL recovery reassigns it deterministically).
  PagedTable(std::string name, engine::Schema schema,
             std::shared_ptr<BufferManager> pool,
             std::unique_ptr<PageFile> file, uint64_t table_id);
  ~PagedTable();
  PagedTable(const PagedTable&) = delete;
  PagedTable& operator=(const PagedTable&) = delete;

  const std::string& name() const { return name_; }
  const engine::Schema& schema() const override { return schema_; }
  engine::TableKind kind() const override { return engine::TableKind::kPaged; }
  /// Approximate on-disk bytes (pages * page size).
  size_t bytes() const override;
  /// Pins the published row count with its per-page record counts.
  Result<engine::TableCursorPtr> Pin() const override;
  uint64_t table_id() const { return table_id_; }
  uint32_t segment() const { return seg_; }
  PageFile* file() { return file_.get(); }

  /// The published row count: every row below it is immutable, durable in
  /// the WAL, and safe to read from any thread.
  size_t SnapshotRows() const {
    return rows_.load(std::memory_order_acquire);
  }

  /// Page/row metadata for the checkpoint manifest. Only meaningful while
  /// the caller holds the engine's mutation lock (no writer mid-statement).
  struct Meta {
    uint64_t pages = 0;
    uint64_t rows = 0;
    uint32_t tail_records = 0;  ///< records on the last page
  };
  Meta MetaSnapshot() const;

  /// Appends pre-encoded records (EncodeRow bytes) as one statement:
  /// fills the tail page, allocates new pages through the pool, and
  /// publishes the new row count last. Serialized by the StorageEngine's
  /// mutation lock; any failure leaves the engine poisoned (the WAL has
  /// already committed the statement), so no rollback happens here.
  Status AppendEncoded(const std::vector<std::string_view>& records);

  /// Decodes the first `count` records of `page_no` into `out` (appends).
  /// Safe concurrently with a writer appending beyond `count`.
  Status ReadPageRows(uint64_t page_no, uint32_t count,
                      std::vector<engine::Row>* out) const;

  /// Recovery seeds the page index after validating/trimming the segment.
  void RestoreMeta(std::vector<uint32_t> rows_per_page, size_t rows);

  /// Flushes the segment's dirty pages through the pool (checkpoint step;
  /// fsync is the caller's job).
  Status Flush();

  /// DROP TABLE: the destructor also unlinks the segment file. Scans in
  /// flight keep the table alive via shared_ptr; the file disappears when
  /// the last reference dies.
  void MarkDropped() { dropped_.store(true, std::memory_order_relaxed); }

  /// Largest record a page of `page_size` can hold.
  static size_t MaxRecordBytes(size_t page_size) {
    return page_size - SlottedPage::kHeaderBytes - SlottedPage::kSlotBytes;
  }

 private:
  const std::string name_;
  const engine::Schema schema_;
  std::shared_ptr<BufferManager> pool_;
  std::unique_ptr<PageFile> file_;
  const uint64_t table_id_;
  uint32_t seg_ = 0;
  std::atomic<bool> dropped_{false};

  std::atomic<size_t> rows_{0};
  mutable std::mutex meta_mu_;  ///< guards rows_per_page_
  std::vector<uint32_t> rows_per_page_;
};

using PagedTablePtr = std::shared_ptr<PagedTable>;

}  // namespace sgb::storage

#endif  // SGB_STORAGE_PAGED_TABLE_H_
