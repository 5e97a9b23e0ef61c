#include "geom/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "obs/metrics.h"

namespace sgb::geom {

namespace {

/// Zeroes the mask words for an n-point block.
inline void ClearMask(uint64_t* mask, size_t n) {
  std::fill(mask, mask + KernelMaskWords(n), uint64_t{0});
}

/// Packs 8 comparison lanes (words holding 0 or 1) into 8 mask bits.
inline uint64_t PackCompareLanes(const uint64_t* ok) {
  uint64_t bits = 0;
  for (size_t k = 0; k < 8; ++k) bits |= ok[k] << k;
  return bits;
}

/// The L∞ predicate fmax(dx, dy) <= eps rewritten branch-free. With both
/// operands non-NaN this is dx <= eps && dy <= eps; std::fmax additionally
/// returns the non-NaN operand when exactly one is NaN, which the
/// !(v > eps) form (true for NaN) combined with the both-NaN rejection
/// reproduces exactly. Differential tests cover every NaN/±inf case.
inline bool LInfWithin(double dx, double dy, double eps) {
  return !(dx > eps) & !(dy > eps) & !((dx != dx) & (dy != dy));
}

}  // namespace

// ---- Scalar reference variants ------------------------------------------

size_t SimilarBlockL2Scalar(double qx, double qy, const double* xs,
                            const double* ys, size_t n, double eps_sq,
                            uint64_t* mask) {
  ClearMask(mask, n);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = qx - xs[i];
    const double dy = qy - ys[i];
    if (dx * dx + dy * dy <= eps_sq) {
      mask[i / 64] |= uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

size_t SimilarBlockLInfScalar(double qx, double qy, const double* xs,
                              const double* ys, size_t n, double eps,
                              uint64_t* mask) {
  ClearMask(mask, n);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    const double dx = std::fabs(qx - xs[i]);
    const double dy = std::fabs(qy - ys[i]);
    if (std::fmax(dx, dy) <= eps) {
      mask[i / 64] |= uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

size_t RectFilterBlockScalar(const Rect& rect, const double* xs,
                             const double* ys, size_t n, uint64_t* mask) {
  ClearMask(mask, n);
  size_t count = 0;
  for (size_t i = 0; i < n; ++i) {
    if (rect.Contains(Point{xs[i], ys[i]})) {
      mask[i / 64] |= uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

// ---- Portable auto-vectorizing variants ---------------------------------
//
// Shape shared by all three: process 8 points per step into a uint64_t lane
// array of 0/1 compare results (a branch-free loop the auto-vectorizer turns
// into packed compares — same-width integer lanes matter: GCC's vectorizer
// declines the double-compare-to-byte store pattern), shift-or the lanes
// into mask bits, and finish the sub-8 remainder with the scalar reference
// so block-boundary behaviour is identical by construction. 8 never
// straddles a mask word.

size_t SimilarBlockL2Portable(double qx, double qy, const double* xs,
                              const double* ys, size_t n, double eps_sq,
                              uint64_t* mask) {
  ClearMask(mask, n);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t ok[8];
    for (size_t k = 0; k < 8; ++k) {
      const double dx = qx - xs[i + k];
      const double dy = qy - ys[i + k];
      ok[k] = dx * dx + dy * dy <= eps_sq ? uint64_t{1} : uint64_t{0};
    }
    const uint64_t bits = PackCompareLanes(ok);
    mask[i / 64] |= bits << (i % 64);
    count += static_cast<size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    const double dx = qx - xs[i];
    const double dy = qy - ys[i];
    if (dx * dx + dy * dy <= eps_sq) {
      mask[i / 64] |= uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

size_t SimilarBlockLInfPortable(double qx, double qy, const double* xs,
                                const double* ys, size_t n, double eps,
                                uint64_t* mask) {
  ClearMask(mask, n);
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t ok[8];
    for (size_t k = 0; k < 8; ++k) {
      const double dx = std::fabs(qx - xs[i + k]);
      const double dy = std::fabs(qy - ys[i + k]);
      ok[k] = LInfWithin(dx, dy, eps) ? uint64_t{1} : uint64_t{0};
    }
    const uint64_t bits = PackCompareLanes(ok);
    mask[i / 64] |= bits << (i % 64);
    count += static_cast<size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    const double dx = std::fabs(qx - xs[i]);
    const double dy = std::fabs(qy - ys[i]);
    if (std::fmax(dx, dy) <= eps) {
      mask[i / 64] |= uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

size_t RectFilterBlockPortable(const Rect& rect, const double* xs,
                               const double* ys, size_t n, uint64_t* mask) {
  ClearMask(mask, n);
  const double lox = rect.lo.x, hix = rect.hi.x;
  const double loy = rect.lo.y, hiy = rect.hi.y;
  size_t count = 0;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t ok[8];
    for (size_t k = 0; k < 8; ++k) {
      const double x = xs[i + k];
      const double y = ys[i + k];
      ok[k] = ((x >= lox) & (x <= hix) & (y >= loy) & (y <= hiy))
                  ? uint64_t{1}
                  : uint64_t{0};
    }
    const uint64_t bits = PackCompareLanes(ok);
    mask[i / 64] |= bits << (i % 64);
    count += static_cast<size_t>(std::popcount(bits));
  }
  for (; i < n; ++i) {
    if (rect.Contains(Point{xs[i], ys[i]})) {
      mask[i / 64] |= uint64_t{1} << (i % 64);
      ++count;
    }
  }
  return count;
}

// ---- Runtime dispatch ---------------------------------------------------

namespace {

using SimilarBlockFn = size_t (*)(double, double, const double*,
                                  const double*, size_t, double, uint64_t*);
using RectFilterFn = size_t (*)(const Rect&, const double*, const double*,
                                size_t, uint64_t*);

struct KernelTable {
  SimilarBlockFn l2 = &SimilarBlockL2Portable;
  SimilarBlockFn linf = &SimilarBlockLInfPortable;
  RectFilterFn rect = &RectFilterBlockPortable;
  const char* name = "portable";
};

#if defined(SGB_HAVE_AVX2)
bool Avx2Supported() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}
#endif

KernelTable ResolveKernels() {
  KernelTable scalar{&SimilarBlockL2Scalar, &SimilarBlockLInfScalar,
                     &RectFilterBlockScalar, "scalar"};
  KernelTable portable{};
  KernelTable best = portable;
#if defined(SGB_HAVE_AVX2)
  if (Avx2Supported()) {
    best = KernelTable{&SimilarBlockL2Avx2, &SimilarBlockLInfAvx2,
                       &RectFilterBlockAvx2, "avx2"};
  }
#endif
  const char* env = std::getenv("SGB_KERNEL_VARIANT");
  if (env != nullptr) {
    const std::string want(env);
    if (want == "scalar") return scalar;
    if (want == "portable") return portable;
    // "avx2" (or anything else) falls through to the best available, so a
    // pinned variant never silently executes unsupported instructions.
  }
  return best;
}

const KernelTable& Kernels() {
  static const KernelTable table = ResolveKernels();
  return table;
}

}  // namespace

size_t SimilarBlockL2(double qx, double qy, const double* xs,
                      const double* ys, size_t n, double eps_sq,
                      uint64_t* mask) {
  return Kernels().l2(qx, qy, xs, ys, n, eps_sq, mask);
}

size_t SimilarBlockLInf(double qx, double qy, const double* xs,
                        const double* ys, size_t n, double eps,
                        uint64_t* mask) {
  return Kernels().linf(qx, qy, xs, ys, n, eps, mask);
}

size_t RectFilterBlock(const Rect& rect, const double* xs, const double* ys,
                       size_t n, uint64_t* mask) {
  return Kernels().rect(rect, xs, ys, n, mask);
}

void PublishKernelCounts(size_t calls, size_t pairs) {
  // Counter objects live for the registry's lifetime, so the references
  // resolved once stay valid across Reset().
  static obs::Counter& invocations =
      obs::MetricsRegistry::Global().GetCounter("sgb.kernel.invocations");
  static obs::Counter& pair_counter =
      obs::MetricsRegistry::Global().GetCounter("sgb.kernel.pairs");
  if (calls == 0) return;
  invocations.Add(calls);
  pair_counter.Add(pairs);
}

const char* ActiveKernelVariant() { return Kernels().name; }

}  // namespace sgb::geom
