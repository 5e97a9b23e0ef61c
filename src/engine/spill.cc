#include "engine/spill.h"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <cstring>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "storage/file_registry.h"

namespace sgb::engine {

// Fire on the buffered-flush / buffered-refill paths, so a failing disk
// surfaces mid-spill (the regime where orphan temp files and half-written
// partitions would otherwise go unnoticed).
static FaultSite g_spill_write_fault("engine.spill.write",
                                     Status::Code::kIoError);
static FaultSite g_spill_read_fault("engine.spill.read",
                                    Status::Code::kIoError);

namespace {

void AppendVarint(uint64_t v, std::string* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

bool ReadVarint(const char* data, size_t size, size_t* offset, uint64_t* v) {
  uint64_t value = 0;
  int shift = 0;
  while (*offset < size && shift <= 63) {
    const uint8_t byte = static_cast<uint8_t>(data[(*offset)++]);
    value |= static_cast<uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      *v = value;
      return true;
    }
    shift += 7;
  }
  return false;
}

// Value type tags; stable on-disk format within one process lifetime.
enum : uint8_t { kTagNull = 0, kTagInt64 = 1, kTagDouble = 2, kTagString = 3 };

void AppendFixed64(uint64_t bits, std::string* out) {
  char buf[8];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<char>(bits >> (8 * i));
  out->append(buf, 8);
}

bool ReadFixed64(const char* data, size_t size, size_t* offset,
                 uint64_t* bits) {
  if (size - *offset < 8) return false;
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data[*offset + i]))
         << (8 * i);
  }
  *offset += 8;
  *bits = v;
  return true;
}

}  // namespace

void EncodeRow(const Row& row, std::string* out) {
  AppendVarint(row.size(), out);
  for (const Value& v : row) {
    switch (v.type()) {
      case DataType::kNull:
        out->push_back(static_cast<char>(kTagNull));
        break;
      case DataType::kInt64:
        out->push_back(static_cast<char>(kTagInt64));
        AppendFixed64(static_cast<uint64_t>(v.AsInt()), out);
        break;
      case DataType::kDouble: {
        out->push_back(static_cast<char>(kTagDouble));
        uint64_t bits;
        const double d = v.AsDouble();
        std::memcpy(&bits, &d, sizeof bits);  // exact, incl. NaN payloads
        AppendFixed64(bits, out);
        break;
      }
      case DataType::kString: {
        out->push_back(static_cast<char>(kTagString));
        const std::string& s = v.AsString();
        AppendVarint(s.size(), out);
        out->append(s);
        break;
      }
    }
  }
}

namespace {

/// Decodes one row's cells into `sink`, which takes Begin(column count)
/// and then one Null/Int/Double/String call per cell in order.
template <typename Sink>
Status DecodeCells(const char* data, size_t size, size_t* offset,
                   Sink&& sink) {
  uint64_t cols = 0;
  if (!ReadVarint(data, size, offset, &cols)) {
    return Status::IoError("spill codec: truncated row header");
  }
  SGB_RETURN_IF_ERROR(sink.Begin(cols));
  for (uint64_t c = 0; c < cols; ++c) {
    if (*offset >= size) {
      return Status::IoError("spill codec: truncated value tag");
    }
    const uint8_t tag = static_cast<uint8_t>(data[(*offset)++]);
    switch (tag) {
      case kTagNull:
        sink.Null(c);
        break;
      case kTagInt64: {
        uint64_t bits;
        if (!ReadFixed64(data, size, offset, &bits)) {
          return Status::IoError("spill codec: truncated int64");
        }
        sink.Int(c, static_cast<int64_t>(bits));
        break;
      }
      case kTagDouble: {
        uint64_t bits;
        if (!ReadFixed64(data, size, offset, &bits)) {
          return Status::IoError("spill codec: truncated double");
        }
        double d;
        std::memcpy(&d, &bits, sizeof d);
        sink.Double(c, d);
        break;
      }
      case kTagString: {
        uint64_t len;
        if (!ReadVarint(data, size, offset, &len) || size - *offset < len) {
          return Status::IoError("spill codec: truncated string");
        }
        sink.String(c, std::string(data + *offset, len));
        *offset += len;
        break;
      }
      default:
        return Status::IoError("spill codec: unknown value tag " +
                               std::to_string(tag));
    }
  }
  return Status::OK();
}

struct RowSink {
  Row* row;
  Status Begin(uint64_t cols) {
    row->clear();
    row->reserve(cols);
    return Status::OK();
  }
  void Null(uint64_t) { row->push_back(Value::Null()); }
  void Int(uint64_t, int64_t v) { row->push_back(Value::Int(v)); }
  void Double(uint64_t, double v) { row->push_back(Value::Double(v)); }
  void String(uint64_t, std::string v) {
    row->push_back(Value::Str(std::move(v)));
  }
};

struct BatchSink {
  RowBatch* batch;
  Status Begin(uint64_t cols) {
    if (batch->num_rows() == 0) batch->SetNumColumns(cols);
    if (cols != batch->num_columns()) {
      return Status::IoError("spill codec: row of " + std::to_string(cols) +
                             " columns in a batch of " +
                             std::to_string(batch->num_columns()));
    }
    batch->SetNumRows(batch->num_rows() + 1);
    return Status::OK();
  }
  void Null(uint64_t c) { batch->column(c).AppendNull(); }
  void Int(uint64_t c, int64_t v) { batch->column(c).AppendInt(v); }
  void Double(uint64_t c, double v) { batch->column(c).AppendDouble(v); }
  void String(uint64_t c, std::string v) {
    batch->column(c).AppendString(std::move(v));
  }
};

}  // namespace

Status DecodeRow(const char* data, size_t size, size_t* offset, Row* out) {
  return DecodeCells(data, size, offset, RowSink{out});
}

Status DecodeRow(const char* data, size_t size, size_t* offset,
                 RowBatch* out) {
  return DecodeCells(data, size, offset, BatchSink{out});
}

// ---- SpillFile ----------------------------------------------------------

std::string SpillFile::SpillDirectory() {
  for (const char* var : {"SGB_SPILL_DIR", "TMPDIR"}) {
    const char* v = std::getenv(var);
    if (v != nullptr && *v != '\0') return v;
  }
  return "/tmp";
}

uint64_t SpillFile::LiveFileCount() {
  // Spill names and live counts come from the shared storage FileRegistry
  // (one namespace with segment page files and WALs), so this probe and the
  // registry's total stay consistent.
  return storage::FileRegistry::Global().LiveCount(
      storage::FileRegistry::kSpill);
}

Result<std::unique_ptr<SpillFile>> SpillFile::Create(const std::string& dir) {
  const std::string base = dir.empty() ? SpillDirectory() : dir;
  std::string path = storage::FileRegistry::Global().MakeTempName(
      base, storage::FileRegistry::kSpill);
  std::FILE* file = std::fopen(path.c_str(), "wb+");
  if (file == nullptr) {
    return Status::IoError("spill: cannot create temp file " + path);
  }
  obs::MetricsRegistry::Global().GetCounter("spill.files").Add(1);
  return std::unique_ptr<SpillFile>(new SpillFile(std::move(path), file));
}

SpillFile::SpillFile(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {
  storage::FileRegistry::Global().Acquire(storage::FileRegistry::kSpill);
}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  std::remove(path_.c_str());
  storage::FileRegistry::Global().Release(storage::FileRegistry::kSpill);
}

Status SpillFile::Append(const Row& row) {
  EncodeRow(row, &write_buffer_);
  ++rows_;
  if (write_buffer_.size() >= kBufferBytes) {
    SGB_RETURN_IF_ERROR(FlushWriteBuffer());
  }
  return Status::OK();
}

Status SpillFile::FlushWriteBuffer() {
  SGB_RETURN_IF_ERROR(g_spill_write_fault.Check());
  if (!write_buffer_.empty()) {
    const size_t n =
        std::fwrite(write_buffer_.data(), 1, write_buffer_.size(), file_);
    if (n != write_buffer_.size()) {
      return Status::IoError("spill: short write to " + path_);
    }
    bytes_ += write_buffer_.size();
    obs::MetricsRegistry::Global()
        .GetCounter("spill.bytes")
        .Add(write_buffer_.size());
    write_buffer_.clear();
  }
  return Status::OK();
}

Status SpillFile::FinishWrites() {
  if (finished_) return Status::OK();
  SGB_RETURN_IF_ERROR(FlushWriteBuffer());
  if (std::fflush(file_) != 0) {
    return Status::IoError("spill: flush failed on " + path_);
  }
  finished_ = true;
  return Rewind();
}

Status SpillFile::Rewind() {
  if (!finished_) {
    return Status::Internal("spill: Rewind before FinishWrites on " + path_);
  }
  if (std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::IoError("spill: seek failed on " + path_);
  }
  read_buffer_.clear();
  read_offset_ = 0;
  eof_ = false;
  return Status::OK();
}

Status SpillFile::RefillReadBuffer() {
  SGB_RETURN_IF_ERROR(g_spill_read_fault.Check());
  // Keep the unconsumed tail (a row can straddle a buffer boundary).
  read_buffer_.erase(0, read_offset_);
  read_offset_ = 0;
  const size_t old = read_buffer_.size();
  read_buffer_.resize(old + kBufferBytes);
  const size_t n = std::fread(read_buffer_.data() + old, 1, kBufferBytes,
                              file_);
  read_buffer_.resize(old + n);
  if (n == 0) {
    if (std::ferror(file_) != 0) {
      return Status::IoError("spill: read failed on " + path_);
    }
    eof_ = true;
  }
  return Status::OK();
}

Result<bool> SpillFile::Next(Row* out) {
  if (!finished_) {
    return Status::Internal("spill: Next before FinishWrites on " + path_);
  }
  while (true) {
    size_t offset = read_offset_;
    Status decoded = DecodeRow(read_buffer_.data(), read_buffer_.size(),
                               &offset, out);
    if (decoded.ok()) {
      read_offset_ = offset;
      return true;
    }
    // A decode failure at the buffer edge means "need more bytes" — unless
    // the file is already drained, in which case leftover bytes are real
    // corruption.
    if (eof_) {
      if (read_offset_ >= read_buffer_.size()) return false;
      return decoded;
    }
    SGB_RETURN_IF_ERROR(RefillReadBuffer());
  }
}

// ---- SpillPartitionSet --------------------------------------------------

SpillPartitionSet::SpillPartitionSet(size_t fanout, int level,
                                     std::string dir)
    : level_(level), dir_(std::move(dir)) {
  partitions_.resize(fanout == 0 ? 1 : fanout);
}

size_t SpillPartitionSet::PartitionOf(size_t key_hash, int level,
                                      size_t fanout) {
  // SplitMix64 finalizer over the level-salted hash: each level slices the
  // key space with an independent permutation.
  uint64_t z = static_cast<uint64_t>(key_hash) +
               0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(level + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return static_cast<size_t>(z % fanout);
}

Status SpillPartitionSet::Add(size_t key_hash, const Row& row) {
  const size_t p = PartitionOf(key_hash, level_, partitions_.size());
  if (partitions_[p] == nullptr) {
    auto file = SpillFile::Create(dir_);
    if (!file.ok()) return file.status();
    partitions_[p] = std::move(file).value();
  }
  SGB_RETURN_IF_ERROR(partitions_[p]->Append(row));
  ++rows_;
  return Status::OK();
}

Status SpillPartitionSet::FinishWrites() {
  for (auto& partition : partitions_) {
    if (partition != nullptr) SGB_RETURN_IF_ERROR(partition->FinishWrites());
  }
  return Status::OK();
}

uint64_t SpillPartitionSet::bytes() const {
  uint64_t total = 0;
  for (const auto& partition : partitions_) {
    if (partition != nullptr) total += partition->bytes();
  }
  return total;
}

}  // namespace sgb::engine
