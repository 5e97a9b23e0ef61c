#include "storage/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "storage/file_registry.h"
#include "storage/page.h"

namespace sgb::storage {

// The append site fires after the frame header but before the payload
// lands, leaving a torn tail exactly like a crash mid-write; fsync is the
// commit point, so a failure there leaves the statement's durability
// genuinely indeterminate (the frame may be complete on disk).
static FaultSite g_wal_append_fault("storage.wal.append",
                                    Status::Code::kIoError);
static FaultSite g_wal_fsync_fault("storage.wal.fsync",
                                   Status::Code::kIoError);

namespace {

constexpr size_t kFrameHeaderBytes = 8;  // u32 len + u32 crc

void PutU32(uint8_t* at, uint32_t v) {
  at[0] = static_cast<uint8_t>(v);
  at[1] = static_cast<uint8_t>(v >> 8);
  at[2] = static_cast<uint8_t>(v >> 16);
  at[3] = static_cast<uint8_t>(v >> 24);
}

uint32_t GetU32(const uint8_t* at) {
  return static_cast<uint32_t>(at[0]) | static_cast<uint32_t>(at[1]) << 8 |
         static_cast<uint32_t>(at[2]) << 16 |
         static_cast<uint32_t>(at[3]) << 24;
}

Status WriteAllAt(int fd, const uint8_t* buf, size_t n, uint64_t at,
                  const std::string& path) {
  size_t done = 0;
  while (done < n) {
    const ssize_t w = ::pwrite(fd, buf + done, n - done,
                               static_cast<off_t>(at + done));
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("wal: pwrite failed on " + path + ": " +
                             std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Result<std::vector<WalRecord>> WriteAheadLog::ReadAll(
    const std::string& path, uint64_t* valid_prefix_bytes) {
  std::vector<WalRecord> records;
  uint64_t valid = 0;
  std::string contents;
  {
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0) {
      if (valid_prefix_bytes != nullptr) *valid_prefix_bytes = 0;
      return records;  // no log yet — nothing to replay
    }
    char buf[1 << 16];
    ssize_t r;
    while ((r = ::read(fd, buf, sizeof buf)) > 0) {
      contents.append(buf, static_cast<size_t>(r));
    }
    const bool read_failed = r < 0;
    ::close(fd);
    if (read_failed) {
      return Status::IoError("wal: read failed on " + path + ": " +
                             std::strerror(errno));
    }
  }
  size_t at = 0;
  while (contents.size() - at >= kFrameHeaderBytes + 1) {
    const uint8_t* p = reinterpret_cast<const uint8_t*>(contents.data()) + at;
    const uint32_t len = GetU32(p);
    const uint32_t crc = GetU32(p + 4);
    if (len > contents.size() - at - kFrameHeaderBytes - 1) break;  // torn
    if (Crc32(p + kFrameHeaderBytes, 1 + len) != crc) break;  // torn/corrupt
    WalRecord record;
    record.type = static_cast<WalRecordType>(p[kFrameHeaderBytes]);
    record.payload.assign(contents, at + kFrameHeaderBytes + 1, len);
    records.push_back(std::move(record));
    at += kFrameHeaderBytes + 1 + len;
    valid = at;
  }
  if (valid_prefix_bytes != nullptr) *valid_prefix_bytes = valid;
  return records;
}

Result<std::unique_ptr<WriteAheadLog>> WriteAheadLog::Open(
    const std::string& path) {
  uint64_t valid = 0;
  auto scanned = ReadAll(path, &valid);
  if (!scanned.ok()) return scanned.status();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) {
    return Status::IoError("wal: cannot open " + path + ": " +
                           std::strerror(errno));
  }
  // Drop any torn tail so new frames append onto a valid prefix.
  if (::ftruncate(fd, static_cast<off_t>(valid)) != 0) {
    const Status status = Status::IoError("wal: ftruncate failed on " + path +
                                          ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  return std::unique_ptr<WriteAheadLog>(new WriteAheadLog(path, fd, valid));
}

WriteAheadLog::WriteAheadLog(std::string path, int fd, uint64_t end)
    : path_(std::move(path)), fd_(fd), end_(end) {
  FileRegistry::Global().Acquire(FileRegistry::kWal);
}

WriteAheadLog::~WriteAheadLog() {
  ::close(fd_);
  FileRegistry::Global().Release(FileRegistry::kWal);
}

Status WriteAheadLog::Append(WalRecordType type, const std::string& payload) {
  std::string frame;
  frame.resize(kFrameHeaderBytes);
  frame.push_back(static_cast<char>(type));
  frame.append(payload);
  uint8_t* p = reinterpret_cast<uint8_t*>(frame.data());
  PutU32(p, static_cast<uint32_t>(payload.size()));
  PutU32(p + 4, Crc32(frame.data() + kFrameHeaderBytes, 1 + payload.size()));

  // Torn-tail simulation: the header reaches the disk, then the armed
  // fault "crashes" the append before the body does. ReadAll sees an
  // invalid final frame and truncates it at the next open.
  SGB_RETURN_IF_ERROR(
      WriteAllAt(fd_, p, kFrameHeaderBytes, end_, path_));
  SGB_RETURN_IF_ERROR(g_wal_append_fault.Check());
  SGB_RETURN_IF_ERROR(WriteAllAt(fd_, p + kFrameHeaderBytes,
                                 frame.size() - kFrameHeaderBytes,
                                 end_ + kFrameHeaderBytes, path_));
  end_ += frame.size();
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("storage.wal.appends").Add(1);
  registry.GetCounter("storage.wal.bytes").Add(frame.size());
  return Status::OK();
}

Status WriteAheadLog::Sync() {
  SGB_RETURN_IF_ERROR(g_wal_fsync_fault.Check());
  if (::fsync(fd_) != 0) {
    return Status::IoError("wal: fsync failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  obs::MetricsRegistry::Global().GetCounter("storage.wal.syncs").Add(1);
  return Status::OK();
}

Status WriteAheadLog::TruncateTo(uint64_t bytes) {
  if (bytes > end_) {
    return Status::Internal("wal: TruncateTo past the end of " + path_);
  }
  if (::ftruncate(fd_, static_cast<off_t>(bytes)) != 0) {
    return Status::IoError("wal: ftruncate failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  end_ = bytes;
  return Status::OK();
}

}  // namespace sgb::storage
