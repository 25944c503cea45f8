// The SIMD dispatch contract of src/core/simd_kernels.h: whatever level
// the runtime selects, the dispatched kernels return bit-identical
// results to the always-compiled portable reference, over every tail
// length, unaligned offsets, every scan group size and the degenerate
// inputs (n = 0, w = nullptr), on columns built from factor pairs whose
// sum falls below the log floor and from the radial model's +0.0 second
// factor; and the interval kernel's factor pass against its portable
// twin and the scalar calls.  On non-AVX2 hosts — and in the
// TRAJPATTERN_SIMD=portable CI leg — dispatched == portable trivially; on
// AVX2 hosts this is the test that the vector reassociation really is
// exact and that the four-lane interval kernel computes the scalar bits.

#include "core/simd_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "prob/log_space.h"
#include "prob/normal.h"
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

/// The floored factor sum a column holds, as `AddLogFactors` spells it.
double Floored(const std::vector<double>& fx, const std::vector<double>& fy,
               size_t k) {
  return AddLogFactors(fx[k], fy[k]);
}

/// The second factors a test runs with: general ones, and the radial
/// model's all-+0.0 vector.
std::vector<std::vector<double>> SecondFactors(size_t n, uint64_t seed) {
  return {FactorData(n, seed), std::vector<double>(n, 0.0)};
}

/// The columns a scan test reads: one built from general factor pairs
/// (a quarter of them summing below the floor), and one from the radial
/// model's +0.0 second factor, each `AddLogFactors` element by element.
std::vector<std::vector<double>> Columns(size_t n, uint64_t seed) {
  const std::vector<double> fx = FactorData(n, seed);
  std::vector<std::vector<double>> out;
  for (const std::vector<double>& fy : SecondFactors(n, seed + 1)) {
    out.emplace_back(n);
    for (size_t k = 0; k < n; ++k) out.back()[k] = Floored(fx, fy, k);
  }
  return out;
}

/// The strictly sequential scan the kernels reassociate.
double NaiveMaxSum(const double* w, const double* t, size_t n) {
  double best = -std::numeric_limits<double>::infinity();
  for (size_t k = 0; k < n; ++k) {
    best = std::max(best, w != nullptr ? w[k] + t[k] : t[k]);
  }
  return best;
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
  const double* t[simd::kMaxGroup] = {};
  double out[simd::kMaxGroup];
  for (size_t groups = 1; groups <= simd::kMaxGroup; ++groups) {
    simd::FusedMaxSumGroup(nullptr, t, groups, 0, out);
    for (size_t g = 0; g < groups; ++g) {
      EXPECT_EQ(out[g], -std::numeric_limits<double>::infinity()) << groups;
    }
  }
}

TEST(SimdKernelTest, FusedMaxSumMatchesPortableOnEveryTailLength) {
  // 0..40 covers: below one vector, exact vector multiples (4, 8, 16,
  // 32), the 16-element main-loop boundary, and every tail shape; the
  // offsets 0..3 put the loads on every alignment a double can have.
  for (size_t n = 0; n <= 40; ++n) {
    for (size_t at = 0; at < 4; ++at) {
      const std::vector<double> w = ColumnData(n + at, 1000 + n);
      for (const std::vector<double>& t : Columns(n + at, 2000 + n)) {
        const double want =
            simd::FusedMaxSumPortable(w.data() + at, t.data() + at, n);
        const double got = simd::FusedMaxSum(w.data() + at, t.data() + at, n);
        EXPECT_TRUE(BitEq(got, want))
            << "n=" << n << " at=" << at << " got=" << got << " want=" << want;
        EXPECT_TRUE(BitEq(want, NaiveMaxSum(w.data() + at, t.data() + at, n)))
            << "n=" << n << " at=" << at;
      }
    }
  }
}

TEST(SimdKernelTest, FusedMaxSumMatchesPortableWithNullWindow) {
  for (size_t n = 0; n <= 40; ++n) {
    for (size_t at = 0; at < 4; ++at) {
      for (const std::vector<double>& t : Columns(n + at, 3000 + n)) {
        const double want =
            simd::FusedMaxSumPortable(nullptr, t.data() + at, n);
        const double got = simd::FusedMaxSum(nullptr, t.data() + at, n);
        EXPECT_TRUE(BitEq(got, want)) << "n=" << n << " at=" << at;
        EXPECT_TRUE(BitEq(want, NaiveMaxSum(nullptr, t.data() + at, n)))
            << "n=" << n << " at=" << at;
      }
    }
  }
}

TEST(SimdKernelTest, FusedMaxSumMatchesNaiveScanOnLargeInput) {
  // The kernels only reassociate max, which cannot change the result on
  // this domain — check against the strictly sequential scan, and the
  // window-free scan against the plain column.
  const size_t n = 4801;  // deliberately not a vector multiple
  const std::vector<double> w = ColumnData(n, 42);
  for (const std::vector<double>& t : Columns(n, 43)) {
    const double naive = NaiveMaxSum(w.data(), t.data(), n);
    EXPECT_TRUE(BitEq(simd::FusedMaxSum(w.data(), t.data(), n), naive));
    EXPECT_TRUE(
        BitEq(simd::FusedMaxSumPortable(w.data(), t.data(), n), naive));
    EXPECT_TRUE(BitEq(simd::FusedMaxSum(nullptr, t.data(), n),
                      *std::max_element(t.begin(), t.end())));
  }
}

TEST(SimdKernelTest, FusedMaxSumGroupMatchesOneScanPerColumn) {
  // Every group size, with and without a window, over every tail length
  // and alignment: member g's maximum is the two-stream scan of its own
  // column, bit for bit, on the dispatched and the portable kernel.  The
  // members' columns alternate between general factor pairs and the
  // radial +0.0 factor.
  for (size_t n = 0; n <= 40; ++n) {
    for (size_t at = 0; at < 4; ++at) {
      const std::vector<double> w = ColumnData(n + at, 5000 + n);
      std::vector<std::vector<double>> columns;
      for (size_t g = 0; g < simd::kMaxGroup; g += 2) {
        for (std::vector<double>& c : Columns(n + at, 6000 + 10 * n + g)) {
          columns.push_back(std::move(c));
        }
      }
      const double* t[simd::kMaxGroup];
      for (size_t g = 0; g < simd::kMaxGroup; ++g) t[g] = columns[g].data() + at;
      for (const bool with_w : {true, false}) {
        const double* wp = with_w ? w.data() + at : nullptr;
        for (size_t groups = 1; groups <= simd::kMaxGroup; ++groups) {
          double got[simd::kMaxGroup], want[simd::kMaxGroup];
          simd::FusedMaxSumGroup(wp, t, groups, n, got);
          simd::FusedMaxSumGroupPortable(wp, t, groups, n, want);
          for (size_t g = 0; g < groups; ++g) {
            const double single = simd::FusedMaxSum(wp, t[g], n);
            EXPECT_TRUE(BitEq(got[g], want[g]))
                << "n=" << n << " at=" << at << " groups=" << groups
                << " g=" << g << " window=" << with_w;
            EXPECT_TRUE(BitEq(got[g], single))
                << "n=" << n << " at=" << at << " groups=" << groups
                << " g=" << g << " window=" << with_w;
            EXPECT_TRUE(BitEq(want[g], NaiveMaxSum(wp, t[g], n)))
                << "n=" << n << " at=" << at << " groups=" << groups;
          }
        }
      }
    }
  }
}

TEST(SimdKernelTest, BuildColumnAndAddToMatchPortableOnEveryTailLength) {
  // The column alone (no level below) and the add onto a level below,
  // over every tail length, with factor pairs that sum below the floor
  // and with a +0.0 second factor.  Each column element is
  // AddLogFactors(fx[k], fy[k]), and each fold below[k] + column[k].
  for (size_t n = 0; n <= 40; ++n) {
    const std::vector<double> below = ColumnData(n, 6000 + n);
    const std::vector<double> fx = FactorData(n, 7000 + n);
    for (const std::vector<double>& fy : SecondFactors(n, 8000 + n)) {
      std::vector<double> column(n), column_want(n);
      simd::BuildColumn(column.data(), fx.data(), fy.data(), n);
      simd::BuildColumnPortable(column_want.data(), fx.data(), fy.data(), n);
      std::vector<double> sum(n), sum_want(n);
      simd::AddTo(sum.data(), below.data(), column.data(), n);
      simd::AddToPortable(sum_want.data(), below.data(), column.data(), n);
      for (size_t k = 0; k < n; ++k) {
        EXPECT_TRUE(BitEq(column[k], column_want[k])) << "n=" << n << " k=" << k;
        EXPECT_TRUE(BitEq(column[k], Floored(fx, fy, k)))
            << "n=" << n << " k=" << k;
        EXPECT_TRUE(BitEq(sum[k], sum_want[k])) << "n=" << n << " k=" << k;
        EXPECT_TRUE(BitEq(sum[k], below[k] + Floored(fx, fy, k)))
            << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(SimdKernelTest, BuildColumnAndAddToMatchPortableOnUnalignedOddLengths) {
  // Offsetting each operand by one double puts every vector load and
  // store off a 32-byte boundary, and odd lengths always leave a scalar
  // tail after the 8- and 4-wide loops.
  for (size_t n = 1; n <= 41; n += 2) {
    const std::vector<double> a = ColumnData(n + 1, 6000 + n);
    const std::vector<double> fx = FactorData(n + 1, 7000 + n);
    const std::vector<double> fy = FactorData(n + 1, 9000 + n);
    std::vector<double> column(n + 1), column_want(n + 1);
    simd::BuildColumn(column.data() + 1, fx.data() + 1, fy.data() + 1, n);
    simd::BuildColumnPortable(column_want.data() + 1, fx.data() + 1,
                              fy.data() + 1, n);
    std::vector<double> got(n + 1), want(n + 1);
    simd::AddTo(got.data() + 1, a.data() + 1, column.data() + 1, n);
    simd::AddToPortable(want.data() + 1, a.data() + 1, column.data() + 1, n);
    for (size_t k = 1; k <= n; ++k) {
      EXPECT_TRUE(BitEq(column[k], column_want[k])) << "n=" << n << " k=" << k;
      EXPECT_TRUE(BitEq(got[k], want[k])) << "n=" << n << " k=" << k;
      EXPECT_TRUE(BitEq(got[k], a[k] + Floored(fx, fy, k)))
          << "n=" << n << " k=" << k;
    }
    EXPECT_EQ(column[0], 0.0) << "wrote before the column, n=" << n;
    EXPECT_EQ(got[0], 0.0) << "wrote before dst, n=" << n;
  }
}

TEST(SimdKernelTest, PlusZeroSecondFactorLeavesAColumnUnchanged) {
  // The radial model pairs each cell's column with the all-+0.0 vector:
  // AddLogFactors(v, +0.0) must be v, bit for bit, across the whole
  // column domain [LogFloor(), 0], so the built column is the cell's own.
  std::vector<double> v = {LogFloor(), std::nextafter(LogFloor(), 0.0),
                           -1.0, -1e-300, -5e-324, 0.0};
  const std::vector<double> more = FactorData(64, 11);
  v.insert(v.end(), more.begin(), more.end());
  const std::vector<double> zero(v.size(), 0.0);
  std::vector<double> column(v.size());
  simd::BuildColumn(column.data(), v.data(), zero.data(), v.size());
  for (size_t k = 0; k < v.size(); ++k) {
    EXPECT_TRUE(BitEq(AddLogFactors(v[k], 0.0), v[k])) << v[k];
    EXPECT_TRUE(BitEq(column[k], v[k])) << v[k];
  }
  EXPECT_TRUE(BitEq(simd::FusedMaxSum(nullptr, column.data(), column.size()),
                    *std::max_element(v.begin(), v.end())));
}


// ---------------------------------------------------------------------
// The interval kernel's factor pass: `LogIntervalProbColumn` must give
// the portable twin's bits and the scalar `LogNormalIntervalProb` call's,
// on every length and offset, in four-lane groups that are all floor,
// all +0.0, all computed or any mix, with point masses, NaN means and
// infinite bounds.

/// What a lane's interval probability takes, against the box [0.3, 0.5]
/// at sigma 0.005 (40 sigma wide).
enum class LaneKind {
  kFloor,        // one-sided, beyond the floor cut
  kZero,         // holds the mean, both tails beyond 8.5 sigma
  kComputed,     // needs at least one tail
  kPointInside,  // sigma == 0, mean in the box
  kPointOutside, // sigma == 0, mean outside it
  kNanMean,
};
constexpr int kLaneKinds = 6;

void FillLane(LaneKind kind, Rng& rng, double* mean, double* sigma) {
  constexpr double kSigma = 0.005;
  const double side = rng.UniformInt(0, 1) == 0 ? -1.0 : 1.0;
  const double edge = side < 0 ? 0.3 : 0.5;
  *sigma = kSigma;
  switch (kind) {
    case LaneKind::kFloor:
      *mean = edge + side * kSigma * rng.Uniform(37.1, 60.0);
      break;
    case LaneKind::kZero:
      *mean = rng.Uniform(0.3 + 8.6 * kSigma, 0.5 - 8.6 * kSigma);
      break;
    case LaneKind::kComputed:
      *mean = edge + side * kSigma * rng.Uniform(-8.4, 37.0);
      break;
    case LaneKind::kPointInside:
      *sigma = 0.0;
      *mean = rng.Uniform(0.3, 0.5);
      break;
    case LaneKind::kPointOutside:
      *sigma = 0.0;
      *mean = edge + side * rng.Uniform(1e-9, 0.2);
      break;
    case LaneKind::kNanMean:
      *mean = std::nan("");
      break;
  }
}

TEST(IntervalKernelTest, ColumnMatchesPortableTwinAndScalarCalls) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::pair<double, double> boxes[] = {
      {0.3, 0.5}, {-kInf, 0.4}, {0.4, kInf}, {-kInf, kInf}, {0.4, 0.4}};
  Rng rng(27);
  size_t checked = 0;
  // Layout 0 mixes kinds lane by lane; layouts 1.. give every aligned
  // group of four one kind, so whole groups take a shortcut.
  for (int layout = 0; layout <= kLaneKinds; ++layout) {
    for (size_t offset = 0; offset < 4; ++offset) {
      for (size_t n = 0; n <= 40; ++n) {
        std::vector<double> means(offset + n + 4), sigmas(offset + n + 4);
        for (size_t i = 0; i < means.size(); ++i) {
          const int kind = layout == 0 ? rng.UniformInt(0, kLaneKinds - 1)
                                       : (layout - 1 + static_cast<int>(i / 4)) %
                                             kLaneKinds;
          FillLane(static_cast<LaneKind>(kind), rng, &means[i], &sigmas[i]);
        }
        for (const auto& [a, b] : boxes) {
          std::vector<double> got(n + 1, 1.0), twin(n + 1, 1.0);
          simd::LogIntervalProbColumn(means.data() + offset,
                                      sigmas.data() + offset, a, b, got.data(),
                                      n);
          simd::LogIntervalProbColumnPortable(means.data() + offset,
                                              sigmas.data() + offset, a, b,
                                              twin.data(), n);
          for (size_t i = 0; i < n; ++i) {
            const double mean = means[offset + i];
            const double sigma = sigmas[offset + i];
            const double scalar = LogNormalIntervalProb(mean, sigma, a, b);
            EXPECT_TRUE(BitEq(got[i], twin[i]) && BitEq(got[i], scalar))
                << std::hexfloat << "layout " << layout << " offset " << offset
                << " n " << n << " i " << i << " mean " << mean << " sigma "
                << sigma << " [" << a << ", " << b << "]: dispatched "
                << got[i] << ", portable " << twin[i] << ", scalar " << scalar;
            ++checked;
          }
          // Nothing past n is written.
          EXPECT_EQ(got[n], 1.0);
          EXPECT_EQ(twin[n], 1.0);
        }
      }
    }
  }
  EXPECT_GT(checked, 20000u);
}

}  // namespace
}  // namespace trajpattern
