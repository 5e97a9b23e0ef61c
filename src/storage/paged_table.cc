#include "storage/paged_table.h"

#include <unistd.h>

#include <algorithm>
#include <utility>

#include "common/query_context.h"
#include "engine/spill.h"
#include "storage/page.h"

namespace sgb::storage {

PagedTable::PagedTable(std::string name, engine::Schema schema,
                       std::shared_ptr<BufferManager> pool,
                       std::unique_ptr<PageFile> file, uint64_t table_id)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      pool_(std::move(pool)),
      file_(std::move(file)),
      table_id_(table_id) {
  seg_ = pool_->RegisterSegment(file_.get());
}

PagedTable::~PagedTable() {
  // No scan can be in flight here (they hold shared_ptrs), so every frame
  // of the segment is unpinned.
  (void)pool_->UnregisterSegment(seg_);
  if (dropped_.load(std::memory_order_relaxed)) {
    ::unlink(file_->path().c_str());
  }
}

size_t PagedTable::bytes() const {
  std::lock_guard<std::mutex> lock(meta_mu_);
  return rows_per_page_.size() * pool_->page_size();
}

namespace {

/// A consistent snapshot — per-page record counts clamped to the published
/// row total — decoded one page at a time into the columns of `pending_`.
class PagedCursor final : public engine::TableCursor {
 public:
  PagedCursor(const PagedTable& table, size_t rows,
              std::vector<uint32_t> rows_per_page)
      : table_(table), rows_(rows), rows_per_page_(std::move(rows_per_page)) {}

  size_t rows() const override { return rows_; }
  bool Next(engine::RowBatch* out) override {
    while (!out->Full()) {
      if (pos_ >= pending_.num_rows() && !LoadNextPage()) break;
      const size_t end = std::min(pending_.num_rows(),
                                  pos_ + out->capacity() - out->size());
      out->MoveRows(&pending_, pos_, end);
      pos_ = end;
    }
    return !out->empty();
  }
  void Restart() override {
    page_ = 0;
    pending_.Clear();
    pos_ = 0;
  }

 private:
  /// Decodes the next non-empty page into pending_; false when the pin is
  /// exhausted. I/O failures abort the query.
  bool LoadNextPage() {
    while (page_ < rows_per_page_.size()) {
      pending_.Clear();
      pos_ = 0;
      const Status status =
          table_.ReadPageRows(page_, rows_per_page_[page_], &pending_);
      if (!status.ok()) throw QueryAbort(status);
      ++page_;
      if (!pending_.empty()) return true;
    }
    return false;
  }

  const PagedTable& table_;
  const size_t rows_;
  const std::vector<uint32_t> rows_per_page_;
  size_t page_ = 0;
  engine::RowBatch pending_;
  size_t pos_ = 0;
};

}  // namespace

Result<engine::TableCursorPtr> PagedTable::Pin() const {
  // Acquire-load first: every byte of every row below `rows` was written
  // before the writer's release store. The page index may already count
  // records of an in-flight statement — clamp them away.
  const size_t rows = rows_.load(std::memory_order_acquire);
  std::vector<uint32_t> rows_per_page;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    size_t remaining = rows;
    for (uint32_t count : rows_per_page_) {
      if (remaining == 0) break;
      const uint32_t take =
          static_cast<uint32_t>(std::min<size_t>(count, remaining));
      rows_per_page.push_back(take);
      remaining -= take;
    }
  }
  return engine::TableCursorPtr(
      std::make_unique<PagedCursor>(*this, rows, std::move(rows_per_page)));
}

PagedTable::Meta PagedTable::MetaSnapshot() const {
  Meta meta;
  meta.rows = rows_.load(std::memory_order_acquire);
  std::lock_guard<std::mutex> lock(meta_mu_);
  meta.pages = rows_per_page_.size();
  meta.tail_records = rows_per_page_.empty() ? 0 : rows_per_page_.back();
  return meta;
}

Status PagedTable::AppendEncoded(
    const std::vector<std::string_view>& records) {
  const size_t page_size = pool_->page_size();
  for (const std::string_view record : records) {
    if (record.size() > MaxRecordBytes(page_size)) {
      return Status::InvalidArgument(
          "row of " + std::to_string(record.size()) +
          " encoded bytes does not fit a " + std::to_string(page_size) +
          "-byte page");
    }
  }
  size_t num_pages;
  {
    std::lock_guard<std::mutex> lock(meta_mu_);
    num_pages = rows_per_page_.size();
  }
  BufferManager::PageGuard guard;
  for (const std::string_view record : records) {
    if (!guard.valid() && num_pages > 0) {
      auto pinned = pool_->Pin(seg_, num_pages - 1);
      if (!pinned.ok()) return pinned.status();
      guard = std::move(pinned).value();
    }
    if (guard.valid() &&
        !SlottedPage(guard.data(), page_size).HasRoomFor(record.size())) {
      guard.Reset();  // unpin the full tail before allocating its successor
    }
    if (!guard.valid()) {
      auto pinned = pool_->PinNew(seg_, num_pages);
      if (!pinned.ok()) return pinned.status();
      guard = std::move(pinned).value();
      SlottedPage(guard.data(), page_size).Init();
      ++num_pages;
      std::lock_guard<std::mutex> lock(meta_mu_);
      rows_per_page_.push_back(0);
    }
    SlottedPage page(guard.data(), page_size);
    page.AddRecord(record);  // room was checked above; cannot fail
    guard.MarkDirty();
    std::lock_guard<std::mutex> lock(meta_mu_);
    ++rows_per_page_.back();
  }
  guard.Reset();
  // Publish the whole statement at once (record bytes and the page index
  // are in place before this release store).
  rows_.store(rows_.load(std::memory_order_relaxed) + records.size(),
              std::memory_order_release);
  return Status::OK();
}

Status PagedTable::ReadPageRows(uint64_t page_no, uint32_t count,
                                engine::RowBatch* out) const {
  auto pinned = pool_->Pin(seg_, page_no);
  if (!pinned.ok()) return pinned.status();
  const SlottedPage page(pinned.value().data(), pool_->page_size());
  for (uint32_t slot = 0; slot < count; ++slot) {
    const std::string_view record = page.Record(slot);
    size_t offset = 0;
    SGB_RETURN_IF_ERROR(
        engine::DecodeRow(record.data(), record.size(), &offset, out));
  }
  return Status::OK();
}

void PagedTable::RestoreMeta(std::vector<uint32_t> rows_per_page,
                             size_t rows) {
  std::lock_guard<std::mutex> lock(meta_mu_);
  rows_per_page_ = std::move(rows_per_page);
  rows_.store(rows, std::memory_order_release);
}

Status PagedTable::Flush() { return pool_->FlushSegment(seg_); }

}  // namespace sgb::storage
