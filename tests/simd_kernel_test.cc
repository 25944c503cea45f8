// The SIMD dispatch contract of src/core/simd_kernels.h: whatever level
// the runtime selects, the dispatched kernels return bit-identical
// results to the always-compiled portable reference, over every tail
// length and the degenerate inputs (n = 0, w or below = nullptr), with
// factor pairs whose sum falls below the log floor and with the radial
// model's +0.0 second factor.  On non-AVX2 hosts — and in the
// TRAJPATTERN_SIMD=portable CI leg — dispatched == portable trivially; on
// AVX2 hosts this is the test that the vector reassociation really is
// exact.

#include "core/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "prob/log_space.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

bool BitEq(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Prefix-sum-like data: finite sums of logs of probabilities, <= 0, no
/// -0.0, no NaN — the domain on which the kernels promise exact
/// reassociation.
std::vector<double> ColumnData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    // Mix magnitudes so adjacent elements rarely tie and the max moves.
    out[i] = -rng.Uniform(0.0, 1.0) * std::pow(10.0, rng.UniformInt(-3, 3));
  }
  return out;
}

/// Floored log-factor data in [LogFloor(), 0]: a quarter at the floor
/// itself, a quarter deep enough that two of them sum below the floor,
/// and the rest spread over [-1000, 0] in magnitude like `ColumnData`.
std::vector<double> FactorData(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> out(n);
  for (size_t i = 0; i < n; ++i) {
    switch (rng.UniformInt(0, 3)) {
      case 0:
        out[i] = LogFloor();
        break;
      case 1:
        out[i] = rng.Uniform(LogFloor(), 0.5 * LogFloor());
        break;
      default:
        out[i] = std::max(LogFloor(), -rng.Uniform(0.0, 1.0) *
                                          std::pow(10.0, rng.UniformInt(-3, 3)));
    }
  }
  return out;
}

/// The floored factor sum both kernels read, as `AddLogFactors` spells it.
double Floored(const std::vector<double>& fx, const std::vector<double>& fy,
               size_t k) {
  return AddLogFactors(fx[k], fy[k]);
}

/// The second factors a test runs with: general ones, and the radial
/// model's all-+0.0 vector.
std::vector<std::vector<double>> SecondFactors(size_t n, uint64_t seed) {
  return {FactorData(n, seed), std::vector<double>(n, 0.0)};
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
  const double with_w = simd::FusedMaxSum(nullptr, nullptr, nullptr, 0);
  EXPECT_EQ(with_w, -std::numeric_limits<double>::infinity());
  EXPECT_TRUE(
      BitEq(with_w, simd::FusedMaxSumPortable(nullptr, nullptr, nullptr, 0)));
}

TEST(SimdKernelTest, FusedMaxSumMatchesPortableOnEveryTailLength) {
  // 0..40 covers: below one vector, exact vector multiples (4, 8, 16,
  // 32), the 16-element main-loop boundary, and every scalar tail shape.
  for (size_t n = 0; n <= 40; ++n) {
    const std::vector<double> w = ColumnData(n, 1000 + n);
    const std::vector<double> fx = FactorData(n, 2000 + n);
    for (const std::vector<double>& fy : SecondFactors(n, 4000 + n)) {
      const double want =
          simd::FusedMaxSumPortable(w.data(), fx.data(), fy.data(), n);
      const double got = simd::FusedMaxSum(w.data(), fx.data(), fy.data(), n);
      EXPECT_TRUE(BitEq(got, want))
          << "n=" << n << " got=" << got << " want=" << want;
    }
  }
}

TEST(SimdKernelTest, FusedMaxSumMatchesPortableWithNullWindow) {
  for (size_t n = 0; n <= 40; ++n) {
    const std::vector<double> fx = FactorData(n, 3000 + n);
    for (const std::vector<double>& fy : SecondFactors(n, 5000 + n)) {
      const double want =
          simd::FusedMaxSumPortable(nullptr, fx.data(), fy.data(), n);
      const double got = simd::FusedMaxSum(nullptr, fx.data(), fy.data(), n);
      EXPECT_TRUE(BitEq(got, want)) << "n=" << n;
    }
  }
}

TEST(SimdKernelTest, FusedMaxSumMatchesNaiveScanOnLargeInput) {
  // The kernels only reassociate max, which cannot change the result on
  // this domain — check against the strictly sequential scan, and the
  // window-free scan against the plain floored sums.
  const size_t n = 4801;  // deliberately not a vector multiple
  const std::vector<double> w = ColumnData(n, 42);
  const std::vector<double> fx = FactorData(n, 43);
  const std::vector<double> fy = FactorData(n, 44);
  double naive = -std::numeric_limits<double>::infinity();
  double naive_alone = naive;
  for (size_t k = 0; k < n; ++k) {
    naive = std::max(naive, w[k] + Floored(fx, fy, k));
    naive_alone = std::max(naive_alone, Floored(fx, fy, k));
  }
  EXPECT_TRUE(
      BitEq(simd::FusedMaxSum(w.data(), fx.data(), fy.data(), n), naive));
  EXPECT_TRUE(BitEq(
      simd::FusedMaxSumPortable(w.data(), fx.data(), fy.data(), n), naive));
  EXPECT_TRUE(BitEq(simd::FusedMaxSum(nullptr, fx.data(), fy.data(), n),
                    naive_alone));
}

TEST(SimdKernelTest, FoldFactorsMatchesPortableOnEveryTailLength) {
  // With and without a level below, over every tail length, with pairs
  // that sum below the floor and with a +0.0 second factor.  Each element
  // is below[k] + AddLogFactors(fx[k], fy[k]), or the floored sum alone.
  for (size_t n = 0; n <= 40; ++n) {
    const std::vector<double> below = ColumnData(n, 6000 + n);
    const std::vector<double> fx = FactorData(n, 7000 + n);
    for (const std::vector<double>& fy : SecondFactors(n, 8000 + n)) {
      for (const bool with_below : {true, false}) {
        const double* b = with_below ? below.data() : nullptr;
        std::vector<double> got(n), want(n);
        simd::FoldFactors(got.data(), b, fx.data(), fy.data(), n);
        simd::FoldFactorsPortable(want.data(), b, fx.data(), fy.data(), n);
        for (size_t k = 0; k < n; ++k) {
          const double expect = with_below ? below[k] + Floored(fx, fy, k)
                                           : Floored(fx, fy, k);
          EXPECT_TRUE(BitEq(got[k], want[k])) << "n=" << n << " k=" << k;
          EXPECT_TRUE(BitEq(got[k], expect)) << "n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(SimdKernelTest, FoldFactorsMatchesPortableOnUnalignedOddLengths) {
  // Offsetting each operand by one double puts every vector load and
  // store off a 32-byte boundary, and odd lengths always leave a scalar
  // tail after the 8- and 4-wide loops.
  for (size_t n = 1; n <= 41; n += 2) {
    const std::vector<double> a = ColumnData(n + 1, 6000 + n);
    const std::vector<double> fx = FactorData(n + 1, 7000 + n);
    const std::vector<double> fy = FactorData(n + 1, 9000 + n);
    std::vector<double> got(n + 1), want(n + 1);
    simd::FoldFactors(got.data() + 1, a.data() + 1, fx.data() + 1,
                      fy.data() + 1, n);
    simd::FoldFactorsPortable(want.data() + 1, a.data() + 1, fx.data() + 1,
                              fy.data() + 1, n);
    for (size_t k = 1; k <= n; ++k) {
      EXPECT_TRUE(BitEq(got[k], want[k])) << "n=" << n << " k=" << k;
      EXPECT_TRUE(BitEq(got[k], a[k] + Floored(fx, fy, k)))
          << "n=" << n << " k=" << k;
    }
    EXPECT_EQ(got[0], 0.0) << "wrote before dst, n=" << n;
  }
}

TEST(SimdKernelTest, PlusZeroSecondFactorLeavesAColumnUnchanged) {
  // The radial model pairs each cell's column with the all-+0.0 vector:
  // AddLogFactors(v, +0.0) must be v, bit for bit, across the whole
  // column domain [LogFloor(), 0], so both kernels read the column.
  std::vector<double> v = {LogFloor(), std::nextafter(LogFloor(), 0.0),
                           -1.0, -1e-300, -5e-324, 0.0};
  const std::vector<double> more = FactorData(64, 11);
  v.insert(v.end(), more.begin(), more.end());
  const std::vector<double> zero(v.size(), 0.0);
  std::vector<double> folded(v.size());
  simd::FoldFactors(folded.data(), nullptr, v.data(), zero.data(), v.size());
  for (size_t k = 0; k < v.size(); ++k) {
    EXPECT_TRUE(BitEq(AddLogFactors(v[k], 0.0), v[k])) << v[k];
    EXPECT_TRUE(BitEq(folded[k], v[k])) << v[k];
  }
  EXPECT_TRUE(BitEq(simd::FusedMaxSum(nullptr, v.data(), zero.data(),
                                      v.size()),
                    *std::max_element(v.begin(), v.end())));
}

}  // namespace
}  // namespace trajpattern
