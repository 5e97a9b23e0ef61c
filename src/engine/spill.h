#ifndef SGB_ENGINE_SPILL_H_
#define SGB_ENGINE_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "engine/row_batch.h"
#include "engine/value.h"

namespace sgb::engine {

/// Out-of-core execution substrate for the blocking operators
/// (docs/ROBUSTNESS.md "Spill-to-disk"): when a memory charge would breach
/// the query budget, hash aggregate / hash join / sort / the SGB drain move
/// their bulk state into temp files managed by this layer and retry
/// per-partition instead of failing with ResourceExhausted.
///
/// The layer has two pieces:
///  * SpillFile — one append-then-scan temp file of rows in a compact
///    binary codec (exact: doubles round-trip bit-for-bit, incl. NaN
///    payloads and ±inf);
///  * SpillPartitionSet — a fan-out of SpillFiles keyed by a level-salted
///    row hash, supporting recursive repartitioning of partitions that
///    still do not fit.
///
/// Temp-file lifecycle: files are created in SpillDirectory() with
/// process-unique names, unlinked in the SpillFile destructor on every
/// path (success, fault, abort), and counted by LiveFileCount() so tests
/// can assert nothing leaks. Fault sites `engine.spill.write` /
/// `engine.spill.read` make both I/O directions fail injectable.

// ---- Row codec ----------------------------------------------------------

/// Appends the binary encoding of `row` to `out`. Layout per row:
/// varint column count, then per value a 1-byte type tag followed by the
/// payload (int64/double: 8 bytes little-endian / raw bit pattern; string:
/// varint length + bytes). Exact for every Value, including NaN bit
/// patterns, ±inf, and empty strings.
void EncodeRow(const Row& row, std::string* out);

/// Decodes one row starting at `*offset`, advancing it past the row.
/// Corruption (truncated payload, unknown tag) returns IoError.
Status DecodeRow(const char* data, size_t size, size_t* offset, Row* out);
/// The same, appending the row's cells straight to `out`'s columns.
Status DecodeRow(const char* data, size_t size, size_t* offset,
                 RowBatch* out);

// ---- SpillFile ----------------------------------------------------------

/// One spill temp file: append rows, FinishWrites(), then scan (repeatedly;
/// Rewind() restarts). Writes and reads are buffered in kBufferBytes
/// chunks; the file is removed from disk when the object dies.
class SpillFile {
 public:
  static constexpr size_t kBufferBytes = 64 * 1024;

  /// Creates the temp file in `dir` (empty = SpillDirectory()). Fails with
  /// IoError when the directory is not writable.
  static Result<std::unique_ptr<SpillFile>> Create(const std::string& dir);

  ~SpillFile();
  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  Status Append(const Row& row);

  /// Flushes buffered writes; the file becomes scannable. Idempotent.
  Status FinishWrites();

  /// Restarts the scan from the first row.
  Status Rewind();

  /// Reads the next row into `out`; value() is false at end-of-file.
  Result<bool> Next(Row* out);

  uint64_t rows() const { return rows_; }
  uint64_t bytes() const { return bytes_; }
  const std::string& path() const { return path_; }

  /// Resolution order: SGB_SPILL_DIR, TMPDIR, /tmp.
  static std::string SpillDirectory();

  /// Spill files currently alive in this process — the leak check tests
  /// assert this returns to its baseline after every spilling query.
  static uint64_t LiveFileCount();

 private:
  SpillFile(std::string path, std::FILE* file);

  Status FlushWriteBuffer();
  Status RefillReadBuffer();

  std::string path_;
  std::FILE* file_;
  std::string write_buffer_;
  std::string read_buffer_;
  size_t read_offset_ = 0;   ///< consumed prefix of read_buffer_
  bool finished_ = false;
  bool eof_ = false;
  uint64_t rows_ = 0;
  uint64_t bytes_ = 0;
};

// ---- SpillPartitionSet --------------------------------------------------

/// A hash fan-out of spill files. Rows are routed by PartitionOf(hash,
/// level, fanout); the level salts the hash so a recursive repartition of
/// one overflowing partition redistributes its rows instead of mapping
/// them all back into a single child (keys with genuinely identical
/// hashes — e.g. all-duplicate group keys — cannot be redistributed at any
/// level; callers detect that as "no progress" and stop recursing).
class SpillPartitionSet {
 public:
  /// `level` is the recursion depth (0 = first spill); partitions are
  /// created lazily, so an empty partition costs nothing.
  SpillPartitionSet(size_t fanout, int level, std::string dir);

  /// Routes `row` to the partition selected by `key_hash`.
  Status Add(size_t key_hash, const Row& row);

  /// Flushes every partition. Call before reading any of them.
  Status FinishWrites();

  size_t fanout() const { return partitions_.size(); }
  int level() const { return level_; }
  uint64_t rows() const { return rows_; }
  uint64_t bytes() const;
  uint64_t partition_rows(size_t i) const {
    return partitions_[i] == nullptr ? 0 : partitions_[i]->rows();
  }

  /// Transfers ownership of partition `i` (nullptr when it stayed empty).
  std::unique_ptr<SpillFile> TakePartition(size_t i) {
    return std::move(partitions_[i]);
  }

  /// Level-salted partition routing (SplitMix64 of hash ^ level salt), so
  /// each recursion level slices the key space independently.
  static size_t PartitionOf(size_t key_hash, int level, size_t fanout);

 private:
  const int level_;
  const std::string dir_;
  std::vector<std::unique_ptr<SpillFile>> partitions_;
  uint64_t rows_ = 0;
};

}  // namespace sgb::engine

#endif  // SGB_ENGINE_SPILL_H_
