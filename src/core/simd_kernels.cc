#include "core/simd_kernels.h"

#include <algorithm>
#include <limits>

#include "prob/log_space.h"

#if TRAJPATTERN_SIMD_AVX2
#include <immintrin.h>
#endif

namespace trajpattern::simd {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

#if TRAJPATTERN_SIMD_AVX2

/// The floored factor sum max(fx + fy, floor) of four lanes.  The max
/// takes `floor` first: vmaxpd returns its second operand unless the
/// first is greater, which is std::max(sum, floor) exactly, NaN included.
__attribute__((target("avx2"))) inline __m256d FlooredSum(const double* fx,
                                                          const double* fy,
                                                          __m256d floor) {
  return _mm256_max_pd(floor,
                       _mm256_add_pd(_mm256_loadu_pd(fx), _mm256_loadu_pd(fy)));
}

/// below + max(fx + fy, floor) of four lanes.
__attribute__((target("avx2"))) inline __m256d FoldedSum(const double* below,
                                                         const double* fx,
                                                         const double* fy,
                                                         __m256d floor) {
  return _mm256_add_pd(_mm256_loadu_pd(below), FlooredSum(fx, fy, floor));
}

/// AVX2 fused max scan.  Lane j of a 256-bit accumulator holds the
/// running max over elements k with k % 4 == j — exactly the four
/// accumulators of the portable loop — and the horizontal reduce at the
/// end is the same max tree, so the result is bit-identical (max is
/// exactly associative and commutative on this finite, NaN-free domain).
/// Four vector accumulators (16 elements per iteration) hide the
/// vmaxpd/vaddpd latency the same way the portable loop's four scalars
/// hide the scalar max latency.  No FMA anywhere: the adds must round
/// exactly like the scalar `w[k] + max(fx[k] + fy[k], floor)`.
__attribute__((target("avx2"))) double FusedMaxSumAvx2(const double* w,
                                                       const double* fx,
                                                       const double* fy,
                                                       size_t n) {
  const double floor = LogFloor();
  const __m256d vfloor = _mm256_set1_pd(floor);
  __m256d acc0 = _mm256_set1_pd(kNegInf);
  __m256d acc1 = acc0, acc2 = acc0, acc3 = acc0;
  size_t k = 0;
  if (w != nullptr) {
    for (; k + 16 <= n; k += 16) {
      acc0 = _mm256_max_pd(acc0, FoldedSum(w + k, fx + k, fy + k, vfloor));
      acc1 = _mm256_max_pd(
          acc1, FoldedSum(w + k + 4, fx + k + 4, fy + k + 4, vfloor));
      acc2 = _mm256_max_pd(
          acc2, FoldedSum(w + k + 8, fx + k + 8, fy + k + 8, vfloor));
      acc3 = _mm256_max_pd(
          acc3, FoldedSum(w + k + 12, fx + k + 12, fy + k + 12, vfloor));
    }
    for (; k + 4 <= n; k += 4) {
      acc0 = _mm256_max_pd(acc0, FoldedSum(w + k, fx + k, fy + k, vfloor));
    }
  } else {
    for (; k + 16 <= n; k += 16) {
      acc0 = _mm256_max_pd(acc0, FlooredSum(fx + k, fy + k, vfloor));
      acc1 = _mm256_max_pd(acc1, FlooredSum(fx + k + 4, fy + k + 4, vfloor));
      acc2 = _mm256_max_pd(acc2, FlooredSum(fx + k + 8, fy + k + 8, vfloor));
      acc3 =
          _mm256_max_pd(acc3, FlooredSum(fx + k + 12, fy + k + 12, vfloor));
    }
    for (; k + 4 <= n; k += 4) {
      acc0 = _mm256_max_pd(acc0, FlooredSum(fx + k, fy + k, vfloor));
    }
  }
  acc0 = _mm256_max_pd(_mm256_max_pd(acc0, acc1), _mm256_max_pd(acc2, acc3));
  double lanes[4];
  _mm256_storeu_pd(lanes, acc0);
  double best =
      std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
  for (; k < n; ++k) {
    const double t = std::max(fx[k] + fy[k], floor);
    best = std::max(best, w != nullptr ? w[k] + t : t);
  }
  return best;
}

/// AVX2 fold; per-element IEEE adds and the same max as the scalar loop,
/// so identical to the portable loop by construction.  Unaligned
/// loads/stores: the prefix levels and the factor vectors are offset by
/// tile starts and pattern positions, so 32-byte alignment cannot be
/// assumed.
__attribute__((target("avx2"))) void FoldFactorsAvx2(double* dst,
                                                     const double* below,
                                                     const double* fx,
                                                     const double* fy,
                                                     size_t n) {
  const double floor = LogFloor();
  const __m256d vfloor = _mm256_set1_pd(floor);
  size_t k = 0;
  if (below != nullptr) {
    for (; k + 8 <= n; k += 8) {
      _mm256_storeu_pd(dst + k, FoldedSum(below + k, fx + k, fy + k, vfloor));
      _mm256_storeu_pd(dst + k + 4, FoldedSum(below + k + 4, fx + k + 4,
                                              fy + k + 4, vfloor));
    }
    for (; k + 4 <= n; k += 4) {
      _mm256_storeu_pd(dst + k, FoldedSum(below + k, fx + k, fy + k, vfloor));
    }
    for (; k < n; ++k) dst[k] = below[k] + std::max(fx[k] + fy[k], floor);
    return;
  }
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_pd(dst + k, FlooredSum(fx + k, fy + k, vfloor));
  }
  for (; k < n; ++k) dst[k] = std::max(fx[k] + fy[k], floor);
}

bool CpuHasAvx2() {
#if defined(__GNUC__) || defined(__clang__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

#endif  // TRAJPATTERN_SIMD_AVX2

Level DetectLevel() {
#if TRAJPATTERN_SIMD_AVX2
  if (CpuHasAvx2()) return Level::kAvx2;
#endif
  return Level::kPortable;
}

}  // namespace

Level ActiveLevel() {
  // Function-local so detection runs on first use, after libgcc's CPU
  // model is initialized (a namespace-scope initializer could query
  // __builtin_cpu_supports too early); the guarded re-check is a relaxed
  // load, noise next to the loops being dispatched.
  static const Level level = DetectLevel();
  return level;
}

const char* ActiveLevelName() {
  return ActiveLevel() == Level::kAvx2 ? "avx2" : "portable";
}

double FusedMaxSumPortable(const double* w, const double* fx,
                           const double* fy, size_t n) {
  // Four independent accumulators break the loop-carried dependency of
  // the naive scan (the sequential max is latency-bound); the result is
  // still bit-identical to it because max is exactly associative on this
  // domain — the inputs are finite logs of probabilities, so no NaN and
  // no -0.0 can appear, and reassociation cannot change the maximum.
  const double floor = LogFloor();
  const auto t = [&](size_t i) { return std::max(fx[i] + fy[i], floor); };
  double b0 = kNegInf, b1 = kNegInf, b2 = kNegInf, b3 = kNegInf;
  size_t k = 0;
  if (w != nullptr) {
    for (; k + 4 <= n; k += 4) {
      b0 = std::max(b0, w[k] + t(k));
      b1 = std::max(b1, w[k + 1] + t(k + 1));
      b2 = std::max(b2, w[k + 2] + t(k + 2));
      b3 = std::max(b3, w[k + 3] + t(k + 3));
    }
    for (; k < n; ++k) b0 = std::max(b0, w[k] + t(k));
  } else {
    for (; k + 4 <= n; k += 4) {
      b0 = std::max(b0, t(k));
      b1 = std::max(b1, t(k + 1));
      b2 = std::max(b2, t(k + 2));
      b3 = std::max(b3, t(k + 3));
    }
    for (; k < n; ++k) b0 = std::max(b0, t(k));
  }
  return std::max(std::max(b0, b1), std::max(b2, b3));
}

void FoldFactorsPortable(double* dst, const double* below, const double* fx,
                         const double* fy, size_t n) {
  // Dense, dependence-free element-wise work: -O3's vectorizer handles
  // these loops on every ISA, which is the whole portable fallback policy.
  const double floor = LogFloor();
  if (below != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      dst[k] = below[k] + std::max(fx[k] + fy[k], floor);
    }
  } else {
    for (size_t k = 0; k < n; ++k) dst[k] = std::max(fx[k] + fy[k], floor);
  }
}

double FusedMaxSum(const double* w, const double* fx, const double* fy,
                   size_t n) {
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) return FusedMaxSumAvx2(w, fx, fy, n);
#endif
  return FusedMaxSumPortable(w, fx, fy, n);
}

void FoldFactors(double* dst, const double* below, const double* fx,
                 const double* fy, size_t n) {
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) {
    return FoldFactorsAvx2(dst, below, fx, fy, n);
  }
#endif
  FoldFactorsPortable(dst, below, fx, fy, n);
}

}  // namespace trajpattern::simd
