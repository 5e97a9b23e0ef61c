#include "index/group_grid.h"

#include <algorithm>
#include <cmath>

#include "common/query_context.h"

namespace sgb::index {

namespace {

/// Cell indices beyond ±(2³¹ − 1) (in either axis) send a group to the
/// overflow list; within it a cell index biases into 32 bits, so a cell's
/// key packs into one uint64_t.
constexpr int64_t kMaxCell = (int64_t{1} << 31) - 1;

/// Initial cell-table capacity (a power of two).
constexpr size_t kMinSlots = 64;

/// Half-width of the probe window on an axis where the probe sits at v:
/// ε plus a rounding margin far above what the tests of ClassifyGroup can
/// round by (docs/PARALLELISM.md, "SGB-All's group grid").
double Reach(double epsilon, double v) {
  return epsilon * (1.0 + 0x1p-40) + std::fabs(v) * 0x1p-48 + 0x1p-1060;
}

/// Requires |cx|, |cy| <= kMaxCell.
uint64_t PackCell(int64_t cx, int64_t cy) {
  return (static_cast<uint64_t>(cx + kMaxCell + 1) << 32) |
         static_cast<uint64_t>(cy + kMaxCell + 1);
}

size_t HashCell(uint64_t key) {
  key ^= key >> 29;
  key *= 0xBF58476D1CE4E5B9ull;
  key ^= key >> 32;
  return static_cast<size_t>(key);
}

}  // namespace

GroupGrid::~GroupGrid() {
  if (ctx_ != nullptr && charged_ > 0) ctx_->memory().Release(charged_);
}

void GroupGrid::Reset(double epsilon) {
  epsilon_ = epsilon;
  width_ = 2.0 * epsilon;
  if (!(width_ > 0.0) || !std::isfinite(width_)) width_ = 0.0;
  if (++stamp_ == 0) {  // wrapped: forget every stamp once
    for (Slot& s : slots_) s.stamp = 0;
    stamp_ = 1;
  }
  occupied_ = 0;
  links_.clear();
  free_ = kNil;
  overflow_ = kNil;
}

/// floor(v / 2ε) clamped to [-kMaxCell - 1, kMaxCell + 1]: monotone in v,
/// infinities included. Requires a usable grid and a v that is not NaN.
int64_t GroupGrid::CellOf(double v) const {
  const double c = std::floor(v / width_);
  if (c > static_cast<double>(kMaxCell)) return kMaxCell + 1;
  if (c < static_cast<double>(-kMaxCell)) return -kMaxCell - 1;
  return static_cast<int64_t>(c);
}

GroupGrid::Cells GroupGrid::CellsOf(const geom::Rect& mbr) const {
  const Cells overflow;
  if (width_ == 0.0 || !std::isfinite(mbr.lo.x) || !std::isfinite(mbr.lo.y) ||
      !std::isfinite(mbr.hi.x) || !std::isfinite(mbr.hi.y)) {
    return overflow;
  }
  Cells c;
  c.overflow = false;
  c.x0 = CellOf(mbr.lo.x);
  c.y0 = CellOf(mbr.lo.y);
  c.x1 = CellOf(mbr.hi.x);
  c.y1 = CellOf(mbr.hi.y);
  // A box touching more than two cells per axis cannot come from a group;
  // one that reaches past ±kMaxCell has no key. Both go to the overflow
  // list.
  if (c.x0 < -kMaxCell || c.y0 < -kMaxCell || c.x1 > kMaxCell ||
      c.y1 > kMaxCell || c.x1 - c.x0 > 1 || c.y1 - c.y0 > 1) {
    return overflow;
  }
  return c;
}

const GroupGrid::Slot* GroupGrid::Find(uint64_t key) const {
  if (slots_.empty()) return nullptr;
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashCell(key) & mask;; i = (i + 1) & mask) {
    const Slot& s = slots_[i];
    if (s.stamp != stamp_) return nullptr;
    if (s.key == key) return &s;
  }
}

uint32_t& GroupGrid::HeadOf(uint64_t key) {
  if ((occupied_ + 1) * 2 > slots_.size()) Grow();
  const size_t mask = slots_.size() - 1;
  for (size_t i = HashCell(key) & mask;; i = (i + 1) & mask) {
    Slot& s = slots_[i];
    if (s.stamp != stamp_) {
      s = Slot{key, stamp_, kNil};
      ++occupied_;
      return s.head;
    }
    if (s.key == key) return s.head;
  }
}

void GroupGrid::Grow() {
  std::vector<Slot> old(std::max(kMinSlots, 2 * slots_.size()));
  old.swap(slots_);
  const size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.stamp != stamp_) continue;
    size_t i = HashCell(s.key) & mask;
    while (slots_[i].stamp == stamp_) i = (i + 1) & mask;
    slots_[i] = s;
  }
  Charge();
}

void GroupGrid::Push(uint32_t& head, size_t gid) {
  uint32_t k = free_;
  if (k != kNil) {
    free_ = links_[k].next;
    links_[k] = Link{static_cast<uint32_t>(gid), head};
  } else {
    k = static_cast<uint32_t>(links_.size());
    const size_t capacity = links_.capacity();
    links_.push_back(Link{static_cast<uint32_t>(gid), head});
    if (links_.capacity() != capacity) Charge();
  }
  head = k;
}

void GroupGrid::Unlink(uint32_t& head, size_t gid) {
  for (uint32_t* at = &head; *at != kNil; at = &links_[*at].next) {
    if (links_[*at].gid != gid) continue;
    const uint32_t k = *at;
    *at = links_[k].next;
    links_[k].next = free_;
    free_ = k;
    return;
  }
}

void GroupGrid::Register(const Cells& cells, size_t gid) {
  if (cells.overflow) {
    Push(overflow_, gid);
    return;
  }
  for (int64_t x = cells.x0; x <= cells.x1; ++x) {
    for (int64_t y = cells.y0; y <= cells.y1; ++y) {
      Push(HeadOf(PackCell(x, y)), gid);
    }
  }
}

void GroupGrid::Unregister(const Cells& cells, size_t gid) {
  if (cells.overflow) {
    Unlink(overflow_, gid);
    return;
  }
  for (int64_t x = cells.x0; x <= cells.x1; ++x) {
    for (int64_t y = cells.y0; y <= cells.y1; ++y) {
      Unlink(HeadOf(PackCell(x, y)), gid);
    }
  }
}

void GroupGrid::Insert(const geom::Rect& mbr, size_t gid) {
  if (gid >= kNil) {
    throw QueryAbort(Status::InvalidArgument(
        "SGB-All group grid: more than 2^32 - 1 groups"));
  }
  Register(CellsOf(mbr), gid);
}

void GroupGrid::Remove(const geom::Rect& mbr, size_t gid) {
  Unregister(CellsOf(mbr), gid);
}

void GroupGrid::Move(const geom::Rect& before, const geom::Rect& after,
                     size_t gid) {
  const Cells from = CellsOf(before);
  const Cells to = CellsOf(after);
  if (from == to) return;
  Unregister(from, gid);
  Register(to, gid);
}

void GroupGrid::AppendList(uint32_t head, std::vector<size_t>* out) const {
  for (uint32_t k = head; k != kNil; k = links_[k].next) {
    out->push_back(links_[k].gid);
  }
}

bool GroupGrid::Probe(const geom::Point& p, std::vector<size_t>* out) const {
  if (!std::isfinite(p.x) || !std::isfinite(p.y)) return false;
  if (width_ == 0.0) {
    AppendList(overflow_, out);
    return true;
  }
  const double rx = Reach(epsilon_, p.x);
  const double ry = Reach(epsilon_, p.y);
  const int64_t x0 = std::max(CellOf(p.x - rx), -kMaxCell);
  const int64_t x1 = std::min(CellOf(p.x + rx), kMaxCell);
  const int64_t y0 = std::max(CellOf(p.y - ry), -kMaxCell);
  const int64_t y1 = std::min(CellOf(p.y + ry), kMaxCell);
  // A window is about one cell wide; only a bound that overflowed to
  // infinity spans more, and then the caller scans every group instead.
  if (x1 - x0 > 2 || y1 - y0 > 2) return false;
  AppendList(overflow_, out);
  for (int64_t x = x0; x <= x1; ++x) {
    for (int64_t y = y0; y <= y1; ++y) {
      if (const Slot* s = Find(PackCell(x, y))) AppendList(s->head, out);
    }
  }
  return true;
}

void GroupGrid::Charge() {
  const size_t bytes = slots_.capacity() * sizeof(Slot) +
                       links_.capacity() * sizeof(Link);
  if (bytes <= charged_) return;
  if (ctx_ != nullptr) {
    Status status = ctx_->memory().TryConsume(bytes - charged_);
    if (!status.ok()) throw QueryAbort(std::move(status));
  }
  charged_ = bytes;
}

}  // namespace sgb::index
