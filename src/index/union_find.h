#ifndef SGB_INDEX_UNION_FIND_H_
#define SGB_INDEX_UNION_FIND_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sgb::index {

/// Disjoint-set forest with union by rank and path compression
/// (Tarjan & van Leeuwen). SGB-Any (Section 7) uses it to track existing,
/// newly created, and merged groups: amortized near-constant per operation.
///
/// Thread safety: not generally thread-safe, but designed for the
/// partition-parallel pattern of index::SimilarityComponents — concurrent
/// Find/Union calls are safe as long as every element index each thread
/// touches belongs to a disjoint index region (the set count is the only
/// member shared across regions, and it is atomic).
class UnionFind {
 public:
  UnionFind() = default;
  explicit UnionFind(size_t n) { Resize(n); }

  /// Grows the universe to n singleton elements (never shrinks).
  void Resize(size_t n);

  /// Adds one new singleton element and returns its id.
  size_t AddElement();

  size_t size() const { return parent_.size(); }

  /// Root representative of x's set (with path compression).
  size_t Find(size_t x);

  /// Merges the sets of a and b; returns the surviving root.
  size_t Union(size_t a, size_t b);

  bool Connected(size_t a, size_t b) { return Find(a) == Find(b); }

  /// Number of elements in x's set.
  size_t SetSize(size_t x) { return set_size_[Find(x)]; }

  /// Number of disjoint sets.
  size_t NumSets() const {
    return num_sets_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<size_t> parent_;
  std::vector<uint8_t> rank_;
  std::vector<size_t> set_size_;
  std::atomic<size_t> num_sets_{0};
};

}  // namespace sgb::index

#endif  // SGB_INDEX_UNION_FIND_H_
