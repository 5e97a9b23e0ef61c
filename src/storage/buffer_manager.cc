#include "storage/buffer_manager.h"

#include <algorithm>
#include <cstring>
#include <list>
#include <map>

#include "obs/metrics.h"
#include "storage/page.h"

namespace sgb::storage {

const char* ToString(EvictionPolicyKind kind) {
  return kind == EvictionPolicyKind::k2Q ? "2q" : "lru";
}

Result<EvictionPolicyKind> ParseEvictionPolicy(const std::string& name) {
  if (name == "lru") return EvictionPolicyKind::kLru;
  if (name == "2q") return EvictionPolicyKind::k2Q;
  return Status::InvalidArgument("SET eviction: expected lru or 2q, got '" +
                                 name + "'");
}

namespace {

/// Classic LRU over resident keys: most-recent at the front, victim is the
/// least recent evictable page.
class LruPolicy final : public EvictionPolicy {
 public:
  const char* name() const override { return "lru"; }

  void OnInsert(uint64_t key) override {
    order_.push_front(key);
    where_[key] = order_.begin();
  }
  void OnAccess(uint64_t key) override {
    auto it = where_.find(key);
    if (it == where_.end()) return;
    order_.splice(order_.begin(), order_, it->second);
  }
  void OnRemove(uint64_t key, bool /*evicted*/) override {
    auto it = where_.find(key);
    if (it == where_.end()) return;
    order_.erase(it->second);
    where_.erase(it);
  }
  bool PickVictim(const std::function<bool(uint64_t)>& evictable,
                  uint64_t* key) override {
    for (auto it = order_.rbegin(); it != order_.rend(); ++it) {
      if (evictable(*it)) {
        *key = *it;
        return true;
      }
    }
    return false;
  }

 private:
  std::list<uint64_t> order_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> where_;
};

/// Simplified 2Q (Johnson & Shasha, VLDB '94): new pages enter the A1in
/// FIFO; pages re-referenced *after* leaving A1in (their key still in the
/// A1out ghost list) are promoted to the Am LRU — one-shot scans wash
/// through A1in without displacing the hot set in Am. Kin = capacity/4,
/// Kout = capacity/2 (each at least 1).
///
/// Victim selection: when |A1in| > Kin (or Am is empty) the oldest
/// evictable A1in page goes (its key becomes a ghost); otherwise the least
/// recent evictable Am page. If the preferred queue has no evictable
/// candidate the other queue is scanned. buffer_test mirrors exactly these
/// rules in its reference model.
class TwoQueuePolicy final : public EvictionPolicy {
 public:
  explicit TwoQueuePolicy(size_t capacity_pages)
      : kin_(std::max<size_t>(1, capacity_pages / 4)),
        kout_(std::max<size_t>(1, capacity_pages / 2)) {}

  const char* name() const override { return "2q"; }

  void OnInsert(uint64_t key) override {
    auto ghost = a1out_where_.find(key);
    if (ghost != a1out_where_.end()) {
      a1out_.erase(ghost->second);
      a1out_where_.erase(ghost);
      am_.push_front(key);
      am_where_[key] = am_.begin();
      return;
    }
    a1in_.push_front(key);
    a1in_where_[key] = a1in_.begin();
  }

  void OnAccess(uint64_t key) override {
    auto am = am_where_.find(key);
    if (am != am_where_.end()) {
      am_.splice(am_.begin(), am_, am->second);
    }
    // A hit in A1in leaves the FIFO order untouched (the 2Q rule that
    // makes correlated re-references within a scan not look "hot").
  }

  void OnRemove(uint64_t key, bool evicted) override {
    auto a1 = a1in_where_.find(key);
    if (a1 != a1in_where_.end()) {
      a1in_.erase(a1->second);
      a1in_where_.erase(a1);
      if (evicted) AddGhost(key);
      return;
    }
    auto am = am_where_.find(key);
    if (am != am_where_.end()) {
      am_.erase(am->second);
      am_where_.erase(am);
    }
  }

  bool PickVictim(const std::function<bool(uint64_t)>& evictable,
                  uint64_t* key) override {
    const bool prefer_a1in = a1in_.size() > kin_ || am_.empty();
    if (prefer_a1in) {
      if (PickFrom(a1in_, evictable, key)) return true;
      return PickFrom(am_, evictable, key);
    }
    if (PickFrom(am_, evictable, key)) return true;
    return PickFrom(a1in_, evictable, key);
  }

 private:
  static bool PickFrom(const std::list<uint64_t>& queue,
                       const std::function<bool(uint64_t)>& evictable,
                       uint64_t* key) {
    for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
      if (evictable(*it)) {
        *key = *it;
        return true;
      }
    }
    return false;
  }

  void AddGhost(uint64_t key) {
    a1out_.push_front(key);
    a1out_where_[key] = a1out_.begin();
    while (a1out_.size() > kout_) {
      a1out_where_.erase(a1out_.back());
      a1out_.pop_back();
    }
  }

  const size_t kin_;
  const size_t kout_;
  std::list<uint64_t> a1in_;  ///< FIFO, front = newest
  std::list<uint64_t> am_;    ///< LRU, front = most recent
  std::list<uint64_t> a1out_;  ///< ghost FIFO of evicted A1in keys
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> a1in_where_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> am_where_;
  std::unordered_map<uint64_t, std::list<uint64_t>::iterator> a1out_where_;
};

}  // namespace

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   size_t capacity_pages) {
  if (kind == EvictionPolicyKind::k2Q) {
    return std::make_unique<TwoQueuePolicy>(capacity_pages);
  }
  return std::make_unique<LruPolicy>();
}

// ---- BufferManager ------------------------------------------------------

struct BufferManager::Frame {
  uint64_t key = 0;
  uint32_t seg = 0;
  uint64_t page_no = 0;
  std::unique_ptr<uint8_t[]> data;
  int pins = 0;
  bool dirty = false;
  bool busy = false;  ///< I/O in flight outside the lock; pins must wait
};

BufferManager::BufferManager(size_t pool_bytes, size_t page_size,
                             EvictionPolicyKind kind, MemoryTracker* parent)
    : page_size_(page_size),
      capacity_pages_(std::max<size_t>(1, pool_bytes / page_size)),
      tracker_("storage.buffer_pool", parent),
      policy_(MakeEvictionPolicy(kind, capacity_pages_)) {}

BufferManager::~BufferManager() = default;

BufferManager::PageGuard& BufferManager::PageGuard::operator=(
    PageGuard&& other) noexcept {
  if (this != &other) {
    Reset();
    bm_ = other.bm_;
    frame_ = other.frame_;
    other.bm_ = nullptr;
    other.frame_ = nullptr;
  }
  return *this;
}

uint8_t* BufferManager::PageGuard::data() const { return frame_->data.get(); }

void BufferManager::PageGuard::MarkDirty() {
  std::lock_guard<std::mutex> lock(bm_->mu_);
  frame_->dirty = true;
}

void BufferManager::PageGuard::Reset() {
  if (frame_ != nullptr) bm_->Unpin(frame_);
  bm_ = nullptr;
  frame_ = nullptr;
}

void BufferManager::Unpin(Frame* frame) {
  std::lock_guard<std::mutex> lock(mu_);
  --frame->pins;
}

uint32_t BufferManager::RegisterSegment(PageFile* file) {
  std::lock_guard<std::mutex> lock(mu_);
  const uint32_t seg = next_segment_++;
  segments_[seg] = file;
  return seg;
}

Status BufferManager::UnregisterSegment(uint32_t seg) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = frames_.begin(); it != frames_.end();) {
    if (it->second->seg != seg) {
      ++it;
      continue;
    }
    if (it->second->pins > 0 || it->second->busy) {
      return Status::Internal(
          "buffer pool: unregistering segment with pinned pages");
    }
    policy_->OnRemove(it->first, /*evicted=*/false);
    tracker_.Release(page_size_);
    it = frames_.erase(it);
  }
  segments_.erase(seg);
  return Status::OK();
}

Status BufferManager::WriteBackLocked(std::unique_lock<std::mutex>& lock,
                                      Frame* frame) {
  PageFile* file = segments_.at(frame->seg);
  // Checksum is stamped into a scratch copy so the resident frame's bytes
  // never mutate during write-back — concurrent readers of a pinned clean
  // copy (FlushSegment path) see stable bytes.
  std::vector<uint8_t> scratch(page_size_);
  std::memcpy(scratch.data(), frame->data.get(), page_size_);
  lock.unlock();
  SlottedPage(scratch.data(), page_size_).UpdateChecksum();
  const Status status = file->Write(frame->page_no, scratch.data());
  lock.lock();
  if (status.ok()) {
    frame->dirty = false;
    ++writebacks_;
  }
  return status;
}

Status BufferManager::EnsureRoomLocked(std::unique_lock<std::mutex>& lock) {
  while (frames_.size() >= capacity_pages_) {
    uint64_t victim_key = 0;
    const auto evictable = [this](uint64_t key) {
      auto it = frames_.find(key);
      return it != frames_.end() && it->second->pins == 0 &&
             !it->second->busy;
    };
    if (!policy_->PickVictim(evictable, &victim_key)) {
      return Status::ResourceExhausted(
          "buffer pool: all " + std::to_string(capacity_pages_) +
          " pages pinned (raise SET buffer_pool_bytes)");
    }
    Frame* victim = frames_.at(victim_key).get();
    if (victim->dirty) {
      victim->busy = true;
      const Status status = WriteBackLocked(lock, victim);
      victim->busy = false;
      cv_.notify_all();
      if (!status.ok()) return status;
      // The write-back dropped the lock; pin state may have changed.
      if (victim->pins > 0) continue;
    }
    policy_->OnRemove(victim_key, /*evicted=*/true);
    tracker_.Release(page_size_);
    frames_.erase(victim_key);
    ++evictions_;
    obs::MetricsRegistry::Global().GetCounter("buffer.evictions").Add(1);
  }
  return Status::OK();
}

Result<BufferManager::PageGuard> BufferManager::Pin(uint32_t seg,
                                                    uint64_t page_no) {
  const uint64_t key = Key(seg, page_no);
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    auto it = frames_.find(key);
    if (it != frames_.end()) {
      Frame* frame = it->second.get();
      if (frame->busy) {
        cv_.wait(lock);
        continue;  // the frame may have been evicted or failed its load
      }
      ++frame->pins;
      policy_->OnAccess(key);
      ++hits_;
      return PageGuard(this, frame);
    }

    SGB_RETURN_IF_ERROR(EnsureRoomLocked(lock));
    if (frames_.count(key) != 0) continue;  // raced with another loader
    auto seg_it = segments_.find(seg);
    if (seg_it == segments_.end()) {
      return Status::Internal("buffer pool: unknown segment " +
                              std::to_string(seg));
    }
    PageFile* file = seg_it->second;
    SGB_RETURN_IF_ERROR(tracker_.TryConsume(page_size_));
    auto frame = std::make_unique<Frame>();
    Frame* raw = frame.get();
    raw->key = key;
    raw->seg = seg;
    raw->page_no = page_no;
    raw->data = std::make_unique<uint8_t[]>(page_size_);
    raw->pins = 1;
    raw->busy = true;
    frames_[key] = std::move(frame);
    policy_->OnInsert(key);
    ++misses_;

    lock.unlock();
    const Status status = file->Read(page_no, raw->data.get());
    lock.lock();
    raw->busy = false;
    cv_.notify_all();
    if (!status.ok()) {
      policy_->OnRemove(key, /*evicted=*/false);
      tracker_.Release(page_size_);
      frames_.erase(key);
      return status;
    }
    return PageGuard(this, raw);
  }
}

Result<BufferManager::PageGuard> BufferManager::PinNew(uint32_t seg,
                                                       uint64_t page_no) {
  const uint64_t key = Key(seg, page_no);
  std::unique_lock<std::mutex> lock(mu_);
  if (frames_.count(key) != 0) {
    return Status::Internal("buffer pool: PinNew of a resident page");
  }
  SGB_RETURN_IF_ERROR(EnsureRoomLocked(lock));
  if (segments_.count(seg) == 0) {
    return Status::Internal("buffer pool: unknown segment " +
                            std::to_string(seg));
  }
  SGB_RETURN_IF_ERROR(tracker_.TryConsume(page_size_));
  auto frame = std::make_unique<Frame>();
  Frame* raw = frame.get();
  raw->key = key;
  raw->seg = seg;
  raw->page_no = page_no;
  raw->data = std::make_unique<uint8_t[]>(page_size_);
  std::memset(raw->data.get(), 0, page_size_);
  raw->pins = 1;
  raw->dirty = true;
  frames_[key] = std::move(frame);
  policy_->OnInsert(key);
  ++misses_;
  return PageGuard(this, raw);
}

Status BufferManager::FlushSegment(uint32_t seg) {
  std::unique_lock<std::mutex> lock(mu_);
  // Collect targets first: write-backs drop the lock, and the frame map
  // must not be mutated out from under the iteration.
  std::vector<uint64_t> keys;
  keys.reserve(frames_.size());
  for (const auto& [key, frame] : frames_) {
    if (frame->seg == seg && frame->dirty) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());  // deterministic flush order
  for (uint64_t key : keys) {
    while (true) {
      // Re-find on every pass: a wait or write-back dropped the lock, and
      // the frame may have been evicted (and its pointer freed) meanwhile.
      auto it = frames_.find(key);
      if (it == frames_.end() || !it->second->dirty) break;
      Frame* frame = it->second.get();
      if (frame->busy) {
        cv_.wait(lock);
        continue;
      }
      frame->busy = true;
      const Status status = WriteBackLocked(lock, frame);
      frame->busy = false;
      cv_.notify_all();
      if (!status.ok()) return status;
      break;
    }
  }
  return Status::OK();
}

Status BufferManager::SetCapacityBytes(size_t bytes) {
  std::unique_lock<std::mutex> lock(mu_);
  capacity_pages_ = std::max<size_t>(1, bytes / page_size_);
  while (frames_.size() > capacity_pages_) {
    const size_t before = frames_.size();
    // Reuse the one-frame eviction step; stop once nothing is evictable
    // (the overage is all pinned and drains as pins release).
    Status status = EnsureRoomLocked(lock);
    if (status.code() == Status::Code::kResourceExhausted) break;
    if (!status.ok()) return status;
    if (frames_.size() >= before) break;
  }
  return Status::OK();
}

Status BufferManager::SetPolicy(EvictionPolicyKind kind) {
  std::lock_guard<std::mutex> lock(mu_);
  policy_ = MakeEvictionPolicy(kind, capacity_pages_);
  std::vector<uint64_t> keys;
  keys.reserve(frames_.size());
  for (const auto& [key, frame] : frames_) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  for (uint64_t key : keys) policy_->OnInsert(key);
  return Status::OK();
}

BufferPoolStats BufferManager::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BufferPoolStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.writebacks = writebacks_;
  s.capacity_pages = capacity_pages_;
  s.resident_pages = frames_.size();
  s.page_size = page_size_;
  s.policy = policy_->name();
  for (const auto& [key, frame] : frames_) {
    if (frame->dirty) ++s.dirty_pages;
    if (frame->pins > 0) ++s.pinned_pages;
  }
  return s;
}

size_t BufferManager::capacity_pages() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_pages_;
}

bool BufferManager::IsResident(uint32_t seg, uint64_t page_no) const {
  std::lock_guard<std::mutex> lock(mu_);
  return frames_.count(Key(seg, page_no)) != 0;
}

}  // namespace sgb::storage
