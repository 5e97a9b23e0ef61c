#ifndef SGB_GEOM_KERNELS_H_
#define SGB_GEOM_KERNELS_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/point.h"
#include "geom/rect.h"

namespace sgb::geom {

/// Vectorized ε-predicate kernels over SoA point blocks.
///
/// The paper's cost model is dominated by ξδ,ε evaluations (Definitions
/// 1–2); this layer batches them: instead of calling geom::Similar once per
/// pair through pointer-chasing AoS loops, callers lay candidate points out
/// as separate x[]/y[] columns and evaluate one query point against a whole
/// block per call, receiving a selection bitmask. Three implementations
/// exist per kernel:
///
///  * Scalar   — the per-element reference loop, bit-identical to the
///               historical geom::Similar call sites; kept for differential
///               testing and as the remainder loop of the other variants.
///  * Portable — branchless unrolled loops that auto-vectorize under -O2.
///  * AVX2     — explicit intrinsics, compiled only under -DSGB_ENABLE_AVX2
///               and selected at runtime iff the CPU supports AVX2.
///
/// Exactness contract (docs/VECTORIZATION.md): every variant evaluates
/// EXACTLY the comparisons of the scalar predicate — `dx²+dy² <= ε²` under
/// L2 and `max(|dx|,|dy|) <= ε` under L∞ (fmax NaN semantics included) —
/// with no FMA contraction and no reassociation, so the selection masks,
/// and therefore the groupings built from them, are bit-identical across
/// variants.

/// Number of points per fixed-capacity block in the batch pipeline. 256
/// doubles per column = two 4KB columns per block: fits L1 alongside the
/// query state.
inline constexpr size_t kPointBlockCapacity = 256;

/// Mask words needed for an n-point block (one bit per point).
constexpr size_t KernelMaskWords(size_t n) { return (n + 63) / 64; }

/// Fixed-capacity SoA point block: the unit of the engine's batch-at-a-time
/// point extraction.
struct PointBlock {
  alignas(32) double x[kPointBlockCapacity];
  alignas(32) double y[kPointBlockCapacity];
  size_t size = 0;

  bool Full() const { return size == kPointBlockCapacity; }
  void Clear() { size = 0; }
  void PushBack(const Point& p) {
    x[size] = p.x;
    y[size] = p.y;
    ++size;
  }
  Point At(size_t i) const { return Point{x[i], y[i]}; }
};

/// Growable SoA point columns: group member lists, grid cells and join
/// sides keep their coordinates here so the block kernels scan contiguous
/// doubles instead of strided Point structs.
class PointColumns {
 public:
  void Reserve(size_t n) {
    xs_.reserve(n);
    ys_.reserve(n);
  }
  void Assign(std::span<const Point> pts) {
    xs_.clear();
    ys_.clear();
    Reserve(pts.size());
    for (const Point& p : pts) PushBack(p);
  }
  void PushBack(const Point& p) {
    xs_.push_back(p.x);
    ys_.push_back(p.y);
  }
  void Clear() {
    xs_.clear();
    ys_.clear();
  }
  size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  const double* xs() const { return xs_.data(); }
  const double* ys() const { return ys_.data(); }
  Point operator[](size_t i) const { return Point{xs_[i], ys_[i]}; }

 private:
  std::vector<double> xs_;
  std::vector<double> ys_;
};

/// Calls fn(i) for every set bit of an n-point selection mask, in ascending
/// index order — the order every scalar call site enumerated matches in, so
/// arbitration-order-sensitive consumers (union sequences, JOIN-ANY
/// candidate lists) behave identically.
template <typename Fn>
void ForEachSetBit(const uint64_t* mask, size_t n, Fn&& fn) {
  const size_t words = KernelMaskWords(n);
  for (size_t w = 0; w < words; ++w) {
    uint64_t bits = mask[w];
    while (bits != 0) {
      fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      bits &= bits - 1;
    }
  }
}

// ---- Kernel entry points (runtime-dispatched) ---------------------------
//
// Each writes KernelMaskWords(n) words to `mask` (bits >= n cleared), sets
// bit i iff the predicate holds for point i, and returns the number of set
// bits. They count nothing: BlockSimilarity counts its own calls, and each
// core adds its instances' counts to the registry once per call
// (PublishKernelCounts).

/// Bit i set iff (qx-xs[i])² + (qy-ys[i])² <= eps_sq.
size_t SimilarBlockL2(double qx, double qy, const double* xs,
                      const double* ys, size_t n, double eps_sq,
                      uint64_t* mask);

/// Bit i set iff fmax(|qx-xs[i]|, |qy-ys[i]|) <= eps (fmax NaN semantics).
size_t SimilarBlockLInf(double qx, double qy, const double* xs,
                        const double* ys, size_t n, double eps,
                        uint64_t* mask);

/// Bit i set iff rect.Contains({xs[i], ys[i]}) — the ε-rectangle pre-filter.
size_t RectFilterBlock(const Rect& rect, const double* xs, const double* ys,
                       size_t n, uint64_t* mask);

// ---- Named variants (differential tests, microbenchmarks) ---------------

size_t SimilarBlockL2Scalar(double qx, double qy, const double* xs,
                            const double* ys, size_t n, double eps_sq,
                            uint64_t* mask);
size_t SimilarBlockLInfScalar(double qx, double qy, const double* xs,
                              const double* ys, size_t n, double eps,
                              uint64_t* mask);
size_t RectFilterBlockScalar(const Rect& rect, const double* xs,
                             const double* ys, size_t n, uint64_t* mask);

size_t SimilarBlockL2Portable(double qx, double qy, const double* xs,
                              const double* ys, size_t n, double eps_sq,
                              uint64_t* mask);
size_t SimilarBlockLInfPortable(double qx, double qy, const double* xs,
                                const double* ys, size_t n, double eps,
                                uint64_t* mask);
size_t RectFilterBlockPortable(const Rect& rect, const double* xs,
                               const double* ys, size_t n, uint64_t* mask);

#if defined(SGB_HAVE_AVX2)
size_t SimilarBlockL2Avx2(double qx, double qy, const double* xs,
                          const double* ys, size_t n, double eps_sq,
                          uint64_t* mask);
size_t SimilarBlockLInfAvx2(double qx, double qy, const double* xs,
                            const double* ys, size_t n, double eps,
                            uint64_t* mask);
size_t RectFilterBlockAvx2(const Rect& rect, const double* xs,
                           const double* ys, size_t n, uint64_t* mask);
#endif

/// Adds one core call's kernel counts to the sgb.kernel.invocations /
/// sgb.kernel.pairs registry counters.
void PublishKernelCounts(size_t calls, size_t pairs);

/// Name of the variant the dispatched entry points resolved to at startup:
/// "scalar", "portable" or "avx2". Resolution order: the SGB_KERNEL_VARIANT
/// environment variable if set to an available variant, else AVX2 when
/// compiled in and supported by the CPU, else portable.
const char* ActiveKernelVariant();

/// Batched similarity predicate with the comparison threshold precomputed
/// once per operator (ε² for L2, ε for L∞) and the metric dispatched once
/// instead of per pair.
///
/// An instance counts the kernel calls and point pairs it evaluated in
/// plain fields, so it belongs to one thread at a time: parallel workers
/// each use their own and share no counter cache line.
class BlockSimilarity {
 public:
  BlockSimilarity(Metric metric, double epsilon)
      : scalar_(metric, epsilon) {}

  /// Evaluates q against an n-point SoA block; returns the match count and
  /// writes the selection mask (KernelMaskWords(n) words).
  size_t Match(const Point& q, const double* xs, const double* ys, size_t n,
               uint64_t* mask) {
    ++calls_;
    pairs_ += n;
    return scalar_.metric() == Metric::kL2
               ? SimilarBlockL2(q.x, q.y, xs, ys, n, scalar_.epsilon_sq(),
                                mask)
               : SimilarBlockLInf(q.x, q.y, xs, ys, n, scalar_.epsilon(),
                                  mask);
  }

  /// The hoisted-threshold scalar predicate, for single-pair call sites.
  const SimilarityPredicate& scalar() const { return scalar_; }

  /// Kernel calls made and point pairs evaluated through this instance.
  size_t calls() const { return calls_; }
  size_t pairs() const { return pairs_; }

 private:
  SimilarityPredicate scalar_;
  size_t calls_ = 0;
  size_t pairs_ = 0;
};

}  // namespace sgb::geom

#endif  // SGB_GEOM_KERNELS_H_
