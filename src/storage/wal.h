#ifndef SGB_STORAGE_WAL_H_
#define SGB_STORAGE_WAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace sgb::storage {

/// Logical redo records (docs/STORAGE.md "WAL format"). The WAL layer
/// frames opaque payloads; the StorageEngine encodes/decodes them.
enum class WalRecordType : uint8_t {
  kCreateTable = 1,  ///< name + schema
  kInsert = 2,       ///< name + first_row + encoded rows
  kDropTable = 3,    ///< name
};

struct WalRecord {
  WalRecordType type;
  std::string payload;
};

/// Append-only redo log. Frame layout, little-endian:
///
///   u32 payload_len | u32 crc32(type byte + payload) | u8 type | payload
///
/// Append() writes the frame unbuffered; Sync() is the commit point (an
/// INSERT/DDL statement is durable once its frame is fsynced). A crash —
/// real or injected — can leave a torn final frame; ReadAll() stops at the
/// first frame whose length or CRC does not check out and reports how many
/// bytes of valid prefix precede it, which recovery uses to truncate the
/// tail.
///
/// Fault sites: `storage.wal.append` fires mid-frame (a torn tail is left
/// on disk), `storage.wal.fsync` at the commit point — after fsync fails,
/// the statement may or may not be durable, and the recovery tests accept
/// both outcomes (docs/STORAGE.md "Crash semantics").
class WriteAheadLog {
 public:
  /// Opens or creates the log and positions appends at the end of the
  /// valid prefix (a torn tail from a previous crash is truncated away).
  static Result<std::unique_ptr<WriteAheadLog>> Open(const std::string& path);

  ~WriteAheadLog();
  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  Status Append(WalRecordType type, const std::string& payload);
  Status Sync();

  /// Drops bytes past `bytes` — the fail-atomic INSERT path rolls an
  /// appended-but-not-applied frame back with this.
  Status TruncateTo(uint64_t bytes);

  uint64_t bytes() const { return end_; }

  /// Every valid record from the start of `path`; `*valid_prefix_bytes`
  /// (optional) gets the byte length of the scanned valid prefix. A torn
  /// or corrupt tail is not an error — the scan just stops.
  static Result<std::vector<WalRecord>> ReadAll(const std::string& path,
                                                uint64_t* valid_prefix_bytes);

 private:
  WriteAheadLog(std::string path, int fd, uint64_t end);

  std::string path_;
  int fd_;
  uint64_t end_;  ///< append position == valid byte length
};

}  // namespace sgb::storage

#endif  // SGB_STORAGE_WAL_H_
