#ifndef SGB_INDEX_RTREE_H_
#define SGB_INDEX_RTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "geom/rect.h"

namespace sgb::index {

/// In-memory R-tree (Guttman 1984) over 2-D rectangles with uint64 payloads.
///
/// The paper's spatial access method (Sections 6.3 and 7.1). The engine's
/// own tiers run grids instead (index::GroupGrid for SGB-All,
/// index::SimilarityComponents for SGB-Any); the R-tree serves the
/// reference tiers the Figure 9/10 and Table 1 reproductions run, and the
/// streaming operators:
///  * SGB-All's kGroupsIndex keeps the ε-All rectangles of live groups in
///    a Groups_IX R-tree and answers FindCloseGroups with one window
///    query. Group rectangles change as members join/leave, so the tree
///    supports Remove + re-Insert.
///  * SGB-Any's kPointsIndex and the streaming SGB-Any keep every
///    processed point in a Points_IX R-tree (points are degenerate
///    rectangles) and find ε-neighbours with a window query.
///
/// Implementation notes: quadratic-split on overflow, condense-tree with
/// orphan reinsertion on underflow, least-enlargement subtree choice.
/// Not thread-safe; single-writer as used by the streaming operators.
class RTree {
 public:
  /// `max_entries` is Guttman's M (node capacity); the minimum fill is
  /// max(2, M * 2/5).
  explicit RTree(size_t max_entries = 8);
  ~RTree();

  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;
  RTree(RTree&&) noexcept;
  RTree& operator=(RTree&&) noexcept;

  /// Inserts an entry. Duplicate (rect, id) pairs are allowed and stored
  /// separately.
  void Insert(const geom::Rect& rect, uint64_t id);

  /// Convenience: inserts a point as a degenerate rectangle.
  void Insert(const geom::Point& p, uint64_t id) {
    Insert(geom::Rect{p, p}, id);
  }

  /// Removes one entry matching (rect, id) exactly. Returns false when no
  /// such entry exists.
  bool Remove(const geom::Rect& rect, uint64_t id);

  /// Invokes `visit` for every stored entry whose rectangle intersects
  /// `window`.
  void Search(const geom::Rect& window,
              const std::function<void(const geom::Rect&, uint64_t)>& visit)
      const;

  /// Window query returning just the payload ids.
  std::vector<uint64_t> SearchIds(const geom::Rect& window) const;

  /// Number of stored entries.
  size_t size() const { return size_; }

  bool empty() const { return size_ == 0; }

  /// Tree height (a lone leaf has height 1); exposed for tests/ablations.
  int height() const { return height_; }

  /// Verifies structural invariants (uniform leaf depth, fill factors,
  /// covering rectangles). Test-only helper.
  bool CheckInvariants() const;

 private:
  struct Node;
  struct Entry;

  std::unique_ptr<Node> MaybeSplit(Node* node);
  /// Places `entry` into a node at `target_level` (leaves are level 1).
  void InsertAtLevel(Entry entry, int target_level);
  bool RemoveRec(Node* node, int level, const geom::Rect& rect, uint64_t id,
                 std::vector<Entry>& orphans);

  size_t max_entries_;
  size_t min_entries_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
  int height_ = 1;
};

}  // namespace sgb::index

#endif  // SGB_INDEX_RTREE_H_
