#include "core/simd_kernels.h"

#include <algorithm>
#include <limits>

#if TRAJPATTERN_SIMD_AVX2
#include <immintrin.h>
#endif

namespace trajpattern::simd {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

#if TRAJPATTERN_SIMD_AVX2

/// AVX2 fused max scan.  Lane j of a 256-bit accumulator holds the
/// running max over elements k with k % 4 == j — exactly the four
/// accumulators of the portable loop — and the horizontal reduce at the
/// end is the same max tree, so the result is bit-identical (max is
/// exactly associative and commutative on this finite, NaN-free domain).
/// Four vector accumulators (16 elements per iteration) hide the
/// vmaxpd/vaddpd latency the same way the portable loop's four scalars
/// hide the scalar max latency.  No FMA anywhere: the adds must round
/// exactly like the scalar `w[k] + t[k]`.
__attribute__((target("avx2"))) double FusedMaxSumAvx2(const double* w,
                                                       const double* t,
                                                       size_t n) {
  __m256d acc0 = _mm256_set1_pd(kNegInf);
  __m256d acc1 = acc0, acc2 = acc0, acc3 = acc0;
  size_t k = 0;
  if (w != nullptr) {
    for (; k + 16 <= n; k += 16) {
      acc0 = _mm256_max_pd(
          acc0, _mm256_add_pd(_mm256_loadu_pd(w + k), _mm256_loadu_pd(t + k)));
      acc1 = _mm256_max_pd(acc1, _mm256_add_pd(_mm256_loadu_pd(w + k + 4),
                                               _mm256_loadu_pd(t + k + 4)));
      acc2 = _mm256_max_pd(acc2, _mm256_add_pd(_mm256_loadu_pd(w + k + 8),
                                               _mm256_loadu_pd(t + k + 8)));
      acc3 = _mm256_max_pd(acc3, _mm256_add_pd(_mm256_loadu_pd(w + k + 12),
                                               _mm256_loadu_pd(t + k + 12)));
    }
    for (; k + 4 <= n; k += 4) {
      acc0 = _mm256_max_pd(
          acc0, _mm256_add_pd(_mm256_loadu_pd(w + k), _mm256_loadu_pd(t + k)));
    }
    acc0 = _mm256_max_pd(_mm256_max_pd(acc0, acc1), _mm256_max_pd(acc2, acc3));
    double lanes[4];
    _mm256_storeu_pd(lanes, acc0);
    double best = std::max(std::max(lanes[0], lanes[1]),
                           std::max(lanes[2], lanes[3]));
    for (; k < n; ++k) best = std::max(best, w[k] + t[k]);
    return best;
  }
  for (; k + 16 <= n; k += 16) {
    acc0 = _mm256_max_pd(acc0, _mm256_loadu_pd(t + k));
    acc1 = _mm256_max_pd(acc1, _mm256_loadu_pd(t + k + 4));
    acc2 = _mm256_max_pd(acc2, _mm256_loadu_pd(t + k + 8));
    acc3 = _mm256_max_pd(acc3, _mm256_loadu_pd(t + k + 12));
  }
  for (; k + 4 <= n; k += 4) {
    acc0 = _mm256_max_pd(acc0, _mm256_loadu_pd(t + k));
  }
  acc0 = _mm256_max_pd(_mm256_max_pd(acc0, acc1), _mm256_max_pd(acc2, acc3));
  double lanes[4];
  _mm256_storeu_pd(lanes, acc0);
  double best =
      std::max(std::max(lanes[0], lanes[1]), std::max(lanes[2], lanes[3]));
  for (; k < n; ++k) best = std::max(best, t[k]);
  return best;
}

/// AVX2 three-operand add; per-element IEEE adds, so identical to the
/// portable loop by construction.  Unaligned loads/stores: the prefix
/// levels and the column slabs are offset by tile starts and pattern
/// positions, so 32-byte alignment cannot be assumed.
__attribute__((target("avx2"))) void AddToAvx2(double* dst, const double* a,
                                               const double* b, size_t n) {
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm256_storeu_pd(
        dst + k, _mm256_add_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
    _mm256_storeu_pd(dst + k + 4, _mm256_add_pd(_mm256_loadu_pd(a + k + 4),
                                                _mm256_loadu_pd(b + k + 4)));
  }
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_pd(
        dst + k, _mm256_add_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
  }
  for (; k < n; ++k) dst[k] = a[k] + b[k];
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

double FusedMaxSumPortable(const double* w, const double* t, size_t n) {
  // Four independent accumulators break the loop-carried dependency of
  // the naive scan (the sequential max is latency-bound); the result is
  // still bit-identical to it because max is exactly associative on this
  // domain — the inputs are finite logs of probabilities, so no NaN and
  // no -0.0 can appear, and reassociation cannot change the maximum.
  double b0 = kNegInf, b1 = kNegInf, b2 = kNegInf, b3 = kNegInf;
  size_t k = 0;
  if (w != nullptr) {
    for (; k + 4 <= n; k += 4) {
      b0 = std::max(b0, w[k] + t[k]);
      b1 = std::max(b1, w[k + 1] + t[k + 1]);
      b2 = std::max(b2, w[k + 2] + t[k + 2]);
      b3 = std::max(b3, w[k + 3] + t[k + 3]);
    }
    for (; k < n; ++k) b0 = std::max(b0, w[k] + t[k]);
  } else {
    for (; k + 4 <= n; k += 4) {
      b0 = std::max(b0, t[k]);
      b1 = std::max(b1, t[k + 1]);
      b2 = std::max(b2, t[k + 2]);
      b3 = std::max(b3, t[k + 3]);
    }
    for (; k < n; ++k) b0 = std::max(b0, t[k]);
  }
  return std::max(std::max(b0, b1), std::max(b2, b3));
}

void AddToPortable(double* dst, const double* a, const double* b, size_t n) {
  // Dense, dependence-free addition: -O3's vectorizer handles this loop
  // on every ISA, which is the whole portable fallback policy.
  for (size_t k = 0; k < n; ++k) dst[k] = a[k] + b[k];
}

double FusedMaxSum(const double* w, const double* t, size_t n) {
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) return FusedMaxSumAvx2(w, t, n);
#endif
  return FusedMaxSumPortable(w, t, n);
}

void AddTo(double* dst, const double* a, const double* b, size_t n) {
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) return AddToAvx2(dst, a, b, n);
#endif
  AddToPortable(dst, a, b, n);
}

}  // namespace trajpattern::simd
