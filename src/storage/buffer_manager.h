#ifndef SGB_STORAGE_BUFFER_MANAGER_H_
#define SGB_STORAGE_BUFFER_MANAGER_H_

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/memory_tracker.h"
#include "common/status.h"
#include "storage/page_file.h"

namespace sgb::storage {

/// Pluggable page-replacement policy (docs/STORAGE.md "Buffer manager").
/// The buffer manager reports residency changes; PickVictim must return an
/// unpinned resident page (the `evictable` predicate encodes pin state), so
/// a policy can never cause I/O on — or loss of — a pinned page.
enum class EvictionPolicyKind { kLru, k2Q };

const char* ToString(EvictionPolicyKind kind);
Result<EvictionPolicyKind> ParseEvictionPolicy(const std::string& name);

class EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;
  virtual const char* name() const = 0;

  /// A page became resident (miss path).
  virtual void OnInsert(uint64_t key) = 0;
  /// A resident page was pinned again (hit path).
  virtual void OnAccess(uint64_t key) = 0;
  /// A page left the pool. `evicted` distinguishes replacement (2Q keeps a
  /// ghost entry) from discard (DROP TABLE / recovery trim — no ghost).
  virtual void OnRemove(uint64_t key, bool evicted) = 0;
  /// Picks the replacement victim among pages where `evictable(key)`;
  /// false when every resident page is pinned or busy.
  virtual bool PickVictim(const std::function<bool(uint64_t)>& evictable,
                          uint64_t* key) = 0;
};

/// `capacity_pages` sizes 2Q's A1in/A1out queues (Kin = capacity/4,
/// Kout = capacity/2, both at least 1); LRU ignores it.
std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   size_t capacity_pages);

/// Snapshot for system.buffer_pool.
struct BufferPoolStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;  ///< dirty-page writes (evictions + flushes)
  uint64_t capacity_pages = 0;
  uint64_t resident_pages = 0;
  uint64_t dirty_pages = 0;
  uint64_t pinned_pages = 0;
  size_t page_size = 0;
  std::string policy;
};

/// The shared page cache between PagedTables and their segment files:
/// frames are charged to a MemoryTracker parented to the engine-global one
/// (so pages, spills, and operator state live under one accounting regime),
/// pins are RAII PageGuards, and replacement is delegated to an
/// EvictionPolicy that only ever sees unpinned candidates.
///
/// Thread safety: all methods are safe from any thread. Frame I/O (miss
/// reads, dirty write-back) happens outside the pool mutex; a frame doing
/// I/O is `busy` and concurrent pins of it wait on a condvar.
class BufferManager {
 public:
  /// `parent` (usually MemoryTracker::EngineGlobal()) must outlive this.
  BufferManager(size_t pool_bytes, size_t page_size, EvictionPolicyKind kind,
                MemoryTracker* parent);
  ~BufferManager();
  BufferManager(const BufferManager&) = delete;
  BufferManager& operator=(const BufferManager&) = delete;

  struct Frame;

  /// RAII pin: while alive, the page stays resident and its bytes stable
  /// on disk-backed reload paths (eviction never touches pinned frames).
  class PageGuard {
   public:
    PageGuard() = default;
    PageGuard(PageGuard&& other) noexcept { *this = std::move(other); }
    PageGuard& operator=(PageGuard&& other) noexcept;
    ~PageGuard() { Reset(); }
    PageGuard(const PageGuard&) = delete;
    PageGuard& operator=(const PageGuard&) = delete;

    bool valid() const { return frame_ != nullptr; }
    uint8_t* data() const;
    /// Marks the page for write-back before eviction/checkpoint.
    void MarkDirty();
    void Reset();

   private:
    friend class BufferManager;
    PageGuard(BufferManager* bm, Frame* frame) : bm_(bm), frame_(frame) {}
    BufferManager* bm_ = nullptr;
    Frame* frame_ = nullptr;
  };

  /// Registers a segment file (not owned; must outlive its registration).
  uint32_t RegisterSegment(PageFile* file);

  /// Discards every frame of `seg` (no write-back — callers either flushed
  /// or are dropping the data) and forgets the file. Frames of the segment
  /// must be unpinned.
  Status UnregisterSegment(uint32_t seg);

  /// Pins page `page_no` of `seg`, reading it from disk when absent.
  Result<PageGuard> Pin(uint32_t seg, uint64_t page_no);

  /// Pins a brand-new zeroed page (no disk read), already marked dirty.
  Result<PageGuard> PinNew(uint32_t seg, uint64_t page_no);

  /// Writes back every dirty frame of `seg`, stamping
  /// page checksums. Frames stay resident and become clean. Pinned frames
  /// are flushed too — write-back does not mutate or drop the frame.
  Status FlushSegment(uint32_t seg);

  /// Shrinks/grows the pool; evicts (writing back dirty pages) down to the
  /// new capacity. Pinned frames in excess of the capacity survive — the
  /// pool re-converges as pins release.
  Status SetCapacityBytes(size_t bytes);

  /// Swaps the replacement policy; resident pages are re-seeded into the
  /// new policy in key order (their recency history does not carry over).
  Status SetPolicy(EvictionPolicyKind kind);

  BufferPoolStats stats() const;
  size_t page_size() const { return page_size_; }
  size_t capacity_pages() const;

  /// Whether (seg, page_no) is resident right now (buffer_test's
  /// pinned-pages-stay-resident invariant).
  bool IsResident(uint32_t seg, uint64_t page_no) const;

 private:
  static uint64_t Key(uint32_t seg, uint64_t page_no) {
    return (static_cast<uint64_t>(seg) << 40) | page_no;
  }

  /// Makes room for one more frame, evicting victims as needed. May drop
  /// and retake `lock` around write-back I/O.
  Status EnsureRoomLocked(std::unique_lock<std::mutex>& lock);

  /// Writes `frame` back to its segment file with a stamped checksum.
  /// Caller marked the frame busy; `lock` is dropped around the I/O.
  Status WriteBackLocked(std::unique_lock<std::mutex>& lock, Frame* frame);

  void Unpin(Frame* frame);

  mutable std::mutex mu_;
  std::condition_variable cv_;  ///< busy-frame transitions
  const size_t page_size_;
  size_t capacity_pages_;
  MemoryTracker tracker_;
  std::unique_ptr<EvictionPolicy> policy_;
  std::unordered_map<uint64_t, std::unique_ptr<Frame>> frames_;
  std::unordered_map<uint32_t, PageFile*> segments_;
  uint32_t next_segment_ = 1;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
  uint64_t writebacks_ = 0;
};

}  // namespace sgb::storage

#endif  // SGB_STORAGE_BUFFER_MANAGER_H_
