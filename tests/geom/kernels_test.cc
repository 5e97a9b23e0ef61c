#include "geom/kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/random.h"
#include "geom/point.h"
#include "geom/rect.h"

namespace sgb::geom {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Coordinate pool mixing ordinary values with every special the kernels
/// must agree on: NaN, ±inf, signed zero, subnormal-adjacent magnitudes.
const double kSpecials[] = {0.0,  -0.0, 1.0,   -1.5,  1e-300, -1e300,
                            kNaN, kInf, -kInf, 0.125, 3.75,   -2.5};

/// Fills n-point SoA columns from the mixed pool, deterministically.
void FillColumns(Rng& rng, size_t n, std::vector<double>* xs,
                 std::vector<double>* ys) {
  xs->clear();
  ys->clear();
  for (size_t i = 0; i < n; ++i) {
    // Every 4th point draws from the specials pool so blocks of any size
    // contain NaN/inf lanes in SIMD and remainder positions alike.
    if (i % 4 == 3) {
      xs->push_back(kSpecials[rng.NextBounded(std::size(kSpecials))]);
      ys->push_back(kSpecials[rng.NextBounded(std::size(kSpecials))]);
    } else {
      xs->push_back(rng.NextUniform(-3.0, 3.0));
      ys->push_back(rng.NextUniform(-3.0, 3.0));
    }
  }
}

/// Bitwise mask + count comparison of one variant against the scalar
/// reference, for all block sizes 0..130 (covers whole SIMD quads/octets,
/// every remainder length, and the 64/128-bit mask-word boundaries).
template <typename RefFn, typename VarFn>
void ExpectSimilarVariantMatches(const char* variant_name, RefFn ref,
                                 VarFn var, double threshold) {
  Rng rng(42);
  std::vector<double> xs, ys;
  for (size_t n = 0; n <= 130; ++n) {
    FillColumns(rng, n, &xs, &ys);
    const double qx = (n % 5 == 4) ? kNaN : rng.NextUniform(-3.0, 3.0);
    const double qy = rng.NextUniform(-3.0, 3.0);
    std::vector<uint64_t> want(KernelMaskWords(n) + 1, ~uint64_t{0});
    std::vector<uint64_t> got(KernelMaskWords(n) + 1, ~uint64_t{0});
    const size_t want_count =
        ref(qx, qy, xs.data(), ys.data(), n, threshold, want.data());
    const size_t got_count =
        var(qx, qy, xs.data(), ys.data(), n, threshold, got.data());
    EXPECT_EQ(want_count, got_count)
        << variant_name << " count mismatch at n=" << n;
    for (size_t w = 0; w < KernelMaskWords(n); ++w) {
      EXPECT_EQ(want[w], got[w])
          << variant_name << " mask word " << w << " at n=" << n;
    }
  }
}

TEST(KernelsTest, PortableL2MatchesScalarBitwise) {
  ExpectSimilarVariantMatches("portable", SimilarBlockL2Scalar,
                              SimilarBlockL2Portable, 1.5 * 1.5);
}

TEST(KernelsTest, PortableLInfMatchesScalarBitwise) {
  ExpectSimilarVariantMatches("portable", SimilarBlockLInfScalar,
                              SimilarBlockLInfPortable, 1.5);
}

TEST(KernelsTest, DispatchedL2MatchesScalarBitwise) {
  ExpectSimilarVariantMatches("dispatched", SimilarBlockL2Scalar,
                              SimilarBlockL2, 2.0 * 2.0);
}

TEST(KernelsTest, DispatchedLInfMatchesScalarBitwise) {
  ExpectSimilarVariantMatches("dispatched", SimilarBlockLInfScalar,
                              SimilarBlockLInf, 2.0);
}

#if defined(SGB_HAVE_AVX2)
TEST(KernelsTest, Avx2L2MatchesScalarBitwise) {
  ExpectSimilarVariantMatches("avx2", SimilarBlockL2Scalar,
                              SimilarBlockL2Avx2, 1.5 * 1.5);
}

TEST(KernelsTest, Avx2LInfMatchesScalarBitwise) {
  ExpectSimilarVariantMatches("avx2", SimilarBlockLInfScalar,
                              SimilarBlockLInfAvx2, 1.5);
}
#endif

TEST(KernelsTest, RectFilterVariantsMatchScalarBitwise) {
  Rng rng(7);
  std::vector<double> xs, ys;
  const Rect rect{{-1.0, -2.0}, {2.0, 1.5}};
  for (size_t n = 0; n <= 130; ++n) {
    FillColumns(rng, n, &xs, &ys);
    std::vector<uint64_t> want(KernelMaskWords(n) + 1, ~uint64_t{0});
    std::vector<uint64_t> got(KernelMaskWords(n) + 1, ~uint64_t{0});
    const size_t want_count =
        RectFilterBlockScalar(rect, xs.data(), ys.data(), n, want.data());
    size_t got_count =
        RectFilterBlockPortable(rect, xs.data(), ys.data(), n, got.data());
    EXPECT_EQ(want_count, got_count) << "portable count at n=" << n;
    for (size_t w = 0; w < KernelMaskWords(n); ++w) {
      EXPECT_EQ(want[w], got[w]) << "portable word " << w << " n=" << n;
    }
#if defined(SGB_HAVE_AVX2)
    got_count =
        RectFilterBlockAvx2(rect, xs.data(), ys.data(), n, got.data());
    EXPECT_EQ(want_count, got_count) << "avx2 count at n=" << n;
    for (size_t w = 0; w < KernelMaskWords(n); ++w) {
      EXPECT_EQ(want[w], got[w]) << "avx2 word " << w << " n=" << n;
    }
#endif
  }
}

TEST(KernelsTest, ScalarAgreesWithSimilarPredicate) {
  // The scalar kernels are the reference; anchor them to geom::Similar so
  // the whole differential chain bottoms out at the paper's ξδ,ε.
  Rng rng(99);
  std::vector<double> xs, ys;
  FillColumns(rng, 64, &xs, &ys);
  const double eps = 1.25;
  std::vector<uint64_t> mask(KernelMaskWords(64));
  const Point q{0.5, -0.25};
  SimilarBlockL2Scalar(q.x, q.y, xs.data(), ys.data(), 64, eps * eps,
                       mask.data());
  for (size_t i = 0; i < 64; ++i) {
    const bool want = Similar(q, Point{xs[i], ys[i]}, Metric::kL2, eps);
    EXPECT_EQ(want, ((mask[0] >> i) & 1) != 0) << "L2 i=" << i;
  }
  SimilarBlockLInfScalar(q.x, q.y, xs.data(), ys.data(), 64, eps,
                         mask.data());
  for (size_t i = 0; i < 64; ++i) {
    const bool want = Similar(q, Point{xs[i], ys[i]}, Metric::kLInf, eps);
    EXPECT_EQ(want, ((mask[0] >> i) & 1) != 0) << "LInf i=" << i;
  }
}

TEST(KernelsTest, EpsilonZeroKeepsOnlyExactCoincidence) {
  const double xs[] = {1.0, 1.0, 1.0 + 1e-12, kNaN};
  const double ys[] = {2.0, 2.0 + 1e-12, 2.0, 2.0};
  uint64_t mask = ~uint64_t{0};
  EXPECT_EQ(SimilarBlockL2(1.0, 2.0, xs, ys, 4, 0.0, &mask), 1u);
  EXPECT_EQ(mask, uint64_t{1});
  // Under L∞ the NaN-x point also matches: fmax(NaN, 0) == 0 <= 0.
  EXPECT_EQ(SimilarBlockLInf(1.0, 2.0, xs, ys, 4, 0.0, &mask), 2u);
  EXPECT_EQ(mask, uint64_t{0b1001});
}

TEST(KernelsTest, LInfSingleNaNAxisFollowsFmax) {
  // fmax(NaN, d) == d: a point whose sole finite axis is within ε matches
  // even though the other axis is NaN. Both-NaN never matches.
  const double xs[] = {kNaN, kNaN, 0.0};
  const double ys[] = {0.5, kNaN, kNaN};
  for (auto* fn : {&SimilarBlockLInfScalar, &SimilarBlockLInfPortable,
                   &SimilarBlockLInf}) {
    uint64_t mask = 0;
    EXPECT_EQ(fn(0.0, 0.0, xs, ys, 3, 1.0, &mask), 2u);
    EXPECT_EQ(mask, uint64_t{0b101});
  }
#if defined(SGB_HAVE_AVX2)
  // Pad to exercise the SIMD quad path, not just the scalar tail.
  const double xs8[] = {kNaN, kNaN, 0.0, kNaN, kNaN, kNaN, 0.0, 9.0};
  const double ys8[] = {0.5, kNaN, kNaN, 0.5, kNaN, kNaN, kNaN, 0.0};
  uint64_t mask = 0;
  EXPECT_EQ(SimilarBlockLInfAvx2(0.0, 0.0, xs8, ys8, 8, 1.0, &mask), 4u);
  EXPECT_EQ(mask, uint64_t{0b01001101});
#endif
}

TEST(KernelsTest, TrailingMaskBitsAreCleared) {
  std::vector<double> xs(5, 0.0), ys(5, 0.0);
  uint64_t mask = ~uint64_t{0};
  EXPECT_EQ(SimilarBlockL2(0.0, 0.0, xs.data(), ys.data(), 5, 1.0, &mask),
            5u);
  EXPECT_EQ(mask, uint64_t{0b11111});
}

TEST(KernelsTest, ForEachSetBitAscendingAcrossWords) {
  uint64_t mask[2] = {(uint64_t{1} << 3) | (uint64_t{1} << 63),
                      uint64_t{1} << 2};
  std::vector<size_t> seen;
  ForEachSetBit(mask, 128, [&](size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<size_t>{3, 63, 66}));
}

TEST(KernelsTest, PointBlockAndColumnsRoundTrip) {
  PointBlock block;
  PointColumns cols;
  EXPECT_TRUE(cols.empty());
  for (size_t i = 0; i < 10; ++i) {
    const Point p{static_cast<double>(i), -static_cast<double>(i)};
    block.PushBack(p);
    cols.PushBack(p);
  }
  EXPECT_EQ(block.size, 10u);
  EXPECT_FALSE(block.Full());
  EXPECT_EQ(cols.size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(block.At(i).x, cols[i].x);
    EXPECT_EQ(block.At(i).y, cols[i].y);
    EXPECT_EQ(cols.xs()[i], static_cast<double>(i));
  }
  block.Clear();
  cols.Clear();
  EXPECT_EQ(block.size, 0u);
  EXPECT_TRUE(cols.empty());
}

TEST(KernelsTest, ActiveVariantIsKnown) {
  const std::string variant = ActiveKernelVariant();
  EXPECT_TRUE(variant == "scalar" || variant == "portable" ||
              variant == "avx2")
      << variant;
}

TEST(KernelsTest, BlockSimilarityMatchesMetricKernels) {
  Rng rng(3);
  std::vector<double> xs, ys;
  FillColumns(rng, 40, &xs, &ys);
  const Point q{0.1, 0.2};
  std::vector<uint64_t> want(KernelMaskWords(40));
  std::vector<uint64_t> got(KernelMaskWords(40));

  BlockSimilarity l2(Metric::kL2, 1.5);
  EXPECT_EQ(l2.scalar().epsilon_sq(), 1.5 * 1.5);
  size_t want_count =
      SimilarBlockL2(q.x, q.y, xs.data(), ys.data(), 40, 1.5 * 1.5,
                     want.data());
  EXPECT_EQ(l2.Match(q, xs.data(), ys.data(), 40, got.data()), want_count);
  EXPECT_EQ(want, got);

  BlockSimilarity linf(Metric::kLInf, 1.5);
  want_count = SimilarBlockLInf(q.x, q.y, xs.data(), ys.data(), 40, 1.5,
                                want.data());
  EXPECT_EQ(linf.Match(q, xs.data(), ys.data(), 40, got.data()), want_count);
  EXPECT_EQ(want, got);
  linf.Match(q, xs.data(), ys.data(), 7, got.data());

  // Each instance counts its own calls and pairs.
  EXPECT_EQ(l2.calls(), 1u);
  EXPECT_EQ(l2.pairs(), 40u);
  EXPECT_EQ(linf.calls(), 2u);
  EXPECT_EQ(linf.pairs(), 47u);
}

}  // namespace
}  // namespace sgb::geom
