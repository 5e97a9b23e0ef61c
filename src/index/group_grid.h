#ifndef SGB_INDEX_GROUP_GRID_H_
#define SGB_INDEX_GROUP_GRID_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace sgb {
class QueryContext;
}

namespace sgb::index {

/// SGB-All's Groups_IX (the "on-the-fly Index" of Procedure 5) as a
/// uniform cell grid over the groups' member bounding boxes (MBRs).
///
/// Cells are 2ε wide. A group's members are pairwise within ε, so its MBR
/// spans about ε per axis and touches at most 2×2 cells; the group is
/// registered in every cell its MBR touches. `Move` re-registers a group
/// whose MBR changed cells (growth on insert, shrinkage on removal).
/// `Probe(p)` lists the groups registered in the cells that the window
/// around p touches, widened by a rounding margin; the caller sorts them
/// and runs its exact test on each.
///
/// Superset contract: every group whose MBR intersects
/// `Rect::Around(p, ε)`, or whose ε-All rectangle contains p (both as
/// computed in floating point), is listed. docs/PARALLELISM.md ("SGB-All's
/// group grid") has the rounding argument.
///
/// A group goes to an overflow list that every probe lists when its MBR
/// has a non-finite coordinate, when a cell index would lie beyond ±2³¹
/// (so that a cell's key packs into 64 bits), or when 2ε is 0 or not
/// finite (then every group does). `Probe` returns
/// false for a non-finite probe point: the caller then scans every group.
///
/// The arrays are flat (an open-addressing table of 16-byte cell slots,
/// one array of 8-byte links, no per-cell allocation) and are kept across `Reset`s, so one grid serves
/// every round and component a worker runs; their bytes are charged to
/// the governing `QueryContext` as they grow (a QueryAbort when the budget
/// refuses) and released with the grid. Not thread-safe.
class GroupGrid {
 public:
  explicit GroupGrid(QueryContext* ctx = nullptr) : ctx_(ctx) {}
  ~GroupGrid();

  GroupGrid(const GroupGrid&) = delete;
  GroupGrid& operator=(const GroupGrid&) = delete;

  /// Forgets every group and sets the threshold for the next round; keeps
  /// the arrays.
  void Reset(double epsilon);

  /// Registers group `gid` under member bounding box `mbr`.
  void Insert(const geom::Rect& mbr, size_t gid);

  /// Unregisters group `gid`, registered under `mbr`.
  void Remove(const geom::Rect& mbr, size_t gid);

  /// Re-registers group `gid` from `before` to `after` when the two boxes
  /// touch different cells.
  void Move(const geom::Rect& before, const geom::Rect& after, size_t gid);

  /// Appends to `out` the ids of every group the superset contract
  /// requires, unsorted and possibly repeated. Returns false, appending
  /// nothing, when it cannot bound them (a non-finite p).
  bool Probe(const geom::Point& p, std::vector<size_t>* out) const;

  /// Bytes held by the arrays (their capacity), as charged.
  size_t bytes() const { return charged_; }

 private:
  static constexpr uint32_t kNil = UINT32_MAX;

  /// Cells [x0, x1] × [y0, y1], or the overflow list.
  struct Cells {
    int64_t x0 = 0, y0 = 0, x1 = 0, y1 = 0;
    bool overflow = true;
    friend bool operator==(const Cells&, const Cells&) = default;
  };
  /// One occupied cell of the current round: its key and list head.
  struct Slot {
    uint64_t key = 0;    ///< PackCell(cx, cy)
    uint32_t stamp = 0;  ///< occupied in the round whose stamp_ this is
    uint32_t head = kNil;
  };
  /// A group id in one cell's (or the overflow) singly linked list.
  struct Link {
    uint32_t gid;
    uint32_t next;
  };

  int64_t CellOf(double v) const;
  Cells CellsOf(const geom::Rect& mbr) const;
  /// The slot of cell `key`, or null when it holds no list this round.
  const Slot* Find(uint64_t key) const;
  /// The list head of cell `key`, opening the cell when it is new.
  uint32_t& HeadOf(uint64_t key);
  void Grow();
  void Push(uint32_t& head, size_t gid);
  void Unlink(uint32_t& head, size_t gid);
  void Register(const Cells& cells, size_t gid);
  void Unregister(const Cells& cells, size_t gid);
  void AppendList(uint32_t head, std::vector<size_t>* out) const;
  /// Charges the arrays' capacity growth to the query's budget.
  void Charge();

  QueryContext* ctx_;
  size_t charged_ = 0;
  double epsilon_ = 0.0;
  double width_ = 0.0;  ///< 2ε; 0 when the grid is unusable
  std::vector<Slot> slots_;  ///< power-of-two open-addressing table
  size_t occupied_ = 0;      ///< slots opened this round
  uint32_t stamp_ = 1;  ///< slots stamped otherwise are empty
  std::vector<Link> links_;
  uint32_t free_ = kNil;  ///< recycled links
  uint32_t overflow_ = kNil;
};

}  // namespace sgb::index

#endif  // SGB_INDEX_GROUP_GRID_H_
