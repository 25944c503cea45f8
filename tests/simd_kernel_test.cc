// The SIMD dispatch contract of src/core/simd_kernels.h: whatever level
// the runtime selects, the dispatched kernels return bit-identical
// results to the always-compiled portable reference, over every tail
// length and the degenerate inputs (n = 0, w = nullptr).  On non-AVX2
// hosts — and in the TRAJPATTERN_SIMD=portable CI leg — dispatched ==
// portable trivially; on AVX2 hosts this is the test that the vector
// reassociation really is exact.

#include "core/simd_kernels.h"

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Column-like data: finite logs of probabilities, <= 0, no -0.0, no
/// NaN — the domain on which the kernels promise exact reassociation.
std::vector<double> ColumnData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    // Mix magnitudes so adjacent elements rarely tie and the max moves.
    out[i] = -rng.Uniform(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-3, 3));
  }
  return out;
}

TEST(SimdKernelTest, ActiveLevelNameIsKnown) {
  const std::string name = simd::ActiveLevelName();
  EXPECT_TRUE(name == "avx2" || name == "portable") << name;
  EXPECT_EQ(name == "avx2", simd::ActiveLevel() == simd::Level::kAvx2);
#if !TRAJPATTERN_SIMD_AVX2
  // The portable-only build must never report a vector level.
  EXPECT_EQ(name, "portable");
#endif
}

TEST(SimdKernelTest, FusedMaxSumEmptyIsNegativeInfinity) {
  const double with_w = simd::FusedMaxSum(nullptr, nullptr, 0);
  EXPECT_EQ(with_w, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(BitEq(with_w, simd::FusedMaxSumPortable(nullptr, nullptr, 0)));
}

TEST(SimdKernelTest, FusedMaxSumMatchesPortableOnEveryTailLength) {
  // 0..40 covers: below one vector, exact vector multiples (4, 8, 16,
  // 32), the 16-element main-loop boundary, and every scalar tail shape.
  for (size_t n = 0; n <= 40; ++n) {
    const std::vector<double> w = ColumnData(n, 1000 + n);
    const std::vector<double> t = ColumnData(n, 2000 + n);
    const double want = simd::FusedMaxSumPortable(w.data(), t.data(), n);
    const double got = simd::FusedMaxSum(w.data(), t.data(), n);
    EXPECT_TRUE(BitEq(got, want)) << "n=" << n << " got=" << got
                                  << " want=" << want;
  }
}

TEST(SimdKernelTest, FusedMaxSumMatchesPortableWithNullWindow) {
  for (size_t n = 0; n <= 40; ++n) {
    const std::vector<double> t = ColumnData(n, 3000 + n);
    const double want = simd::FusedMaxSumPortable(nullptr, t.data(), n);
    const double got = simd::FusedMaxSum(nullptr, t.data(), n);
    EXPECT_TRUE(BitEq(got, want)) << "n=" << n;
  }
}

TEST(SimdKernelTest, FusedMaxSumMatchesNaiveScanOnLargeInput) {
  // The kernels only reassociate max, which cannot change the result on
  // this domain — check against the strictly sequential scan.
  const size_t n = 4801;  // deliberately not a vector multiple
  const std::vector<double> w = ColumnData(n, 42);
  const std::vector<double> t = ColumnData(n, 43);
  double naive = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < n; ++k) naive = std::max(naive, w[k] + t[k]);
  EXPECT_TRUE(BitEq(simd::FusedMaxSum(w.data(), t.data(), n), naive));
  EXPECT_TRUE(BitEq(simd::FusedMaxSumPortable(w.data(), t.data(), n), naive));
}

TEST(SimdKernelTest, AddToMatchesPortableOnUnalignedOddLengths) {
  // Offsetting each operand by one double puts every vector load and
  // store off a 32-byte boundary, and odd lengths always leave a scalar
  // tail after the 8- and 4-wide loops.
  for (size_t n = 1; n <= 41; n += 2) {
    const std::vector<double> a = ColumnData(n + 1, 6000 + n);
    const std::vector<double> b = ColumnData(n + 1, 7000 + n);
    std::vector<double> got(n + 1), want(n + 1);
    simd::AddTo(got.data() + 1, a.data() + 1, b.data() + 1, n);
    simd::AddToPortable(want.data() + 1, a.data() + 1, b.data() + 1, n);
    for (size_t k = 1; k <= n; ++k) {
      EXPECT_TRUE(BitEq(got[k], want[k])) << "n=" << n << " k=" << k;
      EXPECT_TRUE(BitEq(got[k], a[k] + b[k])) << "n=" << n << " k=" << k;
    }
    EXPECT_EQ(got[0], 0.0) << "wrote before dst, n=" << n;
  }
}

}  // namespace
}  // namespace trajpattern
