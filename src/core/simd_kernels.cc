#include "core/simd_kernels.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <limits>

#include "prob/interval_kernel.h"
#include "prob/log_space.h"

#if TRAJPATTERN_SIMD_AVX2
#include <immintrin.h>
#endif

namespace trajpattern::simd {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

#if TRAJPATTERN_SIMD_AVX2

/// Horizontal max of the four lanes of `v`.
__attribute__((target("avx2"))) inline double MaxOfLanes(__m256d v) {
  const __m128d half =
      _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
  return _mm_cvtsd_f64(_mm_max_sd(half, _mm_unpackhi_pd(half, half)));
}

/// One vector of each of `G` columns at element k, plus the window's
/// vector when `kWindow`, maxed into accumulator u of each column.
template <size_t G, size_t U, bool kWindow>
__attribute__((target("avx2"))) inline void ScanStep(__m256d (&acc)[G][U],
                                                     size_t u, const double* w,
                                                     const double* const* t,
                                                     size_t k) {
  if constexpr (kWindow) {
    const __m256d wv = _mm256_loadu_pd(w + k);
    for (size_t g = 0; g < G; ++g) {
      acc[g][u] = _mm256_max_pd(acc[g][u],
                                _mm256_add_pd(wv, _mm256_loadu_pd(t[g] + k)));
    }
  } else {
    for (size_t g = 0; g < G; ++g) {
      acc[g][u] = _mm256_max_pd(acc[g][u], _mm256_loadu_pd(t[g] + k));
    }
  }
}

/// AVX2 fused max scan of `G` columns against one window (`kWindow`) or
/// of the columns alone.  Each column keeps `U` vector accumulators, so
/// at least four independent max chains hide the vmaxpd/vaddpd latency
/// (four per column alone, two each for two columns, one each for three
/// or four), and one pass over the window serves all `G` columns.
/// The elements past the last whole vector are scanned by re-reading the
/// last four: max(x, x) == x, so elements read twice leave every maximum
/// unchanged.  Every element's term is the scalar `w[k] + t[k]` (no FMA)
/// and max is exactly associative and commutative on this finite,
/// NaN-free domain, so any lane order and reduce tree give the portable
/// loop's bits.
template <size_t G, bool kWindow>
__attribute__((target("avx2"))) void FusedMaxSumAvx2(const double* w,
                                                     const double* const* t,
                                                     size_t n, double* out) {
  constexpr size_t U = G == 1 ? 4 : G == 2 ? 2 : 1;
  if (n < 4) {
    for (size_t g = 0; g < G; ++g) {
      double best = kNegInf;
      for (size_t k = 0; k < n; ++k) {
        best = std::max(best, kWindow ? w[k] + t[g][k] : t[g][k]);
      }
      out[g] = best;
    }
    return;
  }
  __m256d acc[G][U];
  for (size_t g = 0; g < G; ++g) {
    for (size_t u = 0; u < U; ++u) acc[g][u] = _mm256_set1_pd(kNegInf);
  }
  size_t k = 0;
  for (; k + 4 * U <= n; k += 4 * U) {
    for (size_t u = 0; u < U; ++u) {
      ScanStep<G, U, kWindow>(acc, u, w, t, k + 4 * u);
    }
  }
  for (; k + 4 <= n; k += 4) ScanStep<G, U, kWindow>(acc, 0, w, t, k);
  if (k < n) ScanStep<G, U, kWindow>(acc, 0, w, t, n - 4);
  for (size_t g = 0; g < G; ++g) {
    __m256d best = acc[g][0];
    for (size_t u = 1; u < U; ++u) best = _mm256_max_pd(best, acc[g][u]);
    out[g] = MaxOfLanes(best);
  }
}

using GroupScan = void (*)(const double*, const double* const*, size_t,
                           double*);

/// The AVX2 scans by [has a window][group size - 1].
constexpr GroupScan kAvx2Scans[2][kMaxGroup] = {
    {&FusedMaxSumAvx2<1, false>, &FusedMaxSumAvx2<2, false>,
     &FusedMaxSumAvx2<3, false>, &FusedMaxSumAvx2<4, false>},
    {&FusedMaxSumAvx2<1, true>, &FusedMaxSumAvx2<2, true>,
     &FusedMaxSumAvx2<3, true>, &FusedMaxSumAvx2<4, true>}};

/// AVX2 column build: the floored factor sum max(fx + fy, floor) of four
/// lanes at a time.  The max takes `floor` first: vmaxpd returns its
/// second operand unless the first is greater, which is
/// std::max(sum, floor) exactly, NaN included.  Unaligned loads/stores:
/// the factor vectors are offset by tile starts, so 32-byte alignment
/// cannot be assumed.
__attribute__((target("avx2"))) void BuildColumnAvx2(double* dst,
                                                     const double* fx,
                                                     const double* fy,
                                                     size_t n) {
  const double floor = LogFloor();
  const __m256d vfloor = _mm256_set1_pd(floor);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_pd(
        dst + k,
        _mm256_max_pd(vfloor, _mm256_add_pd(_mm256_loadu_pd(fx + k),
                                            _mm256_loadu_pd(fy + k))));
  }
  for (; k < n; ++k) dst[k] = std::max(fx[k] + fy[k], floor);
}

/// AVX2 three-operand add; per-element IEEE adds, so identical to the
/// portable loop by construction.  Unaligned loads/stores: the prefix
/// levels and the columns are offset by pattern positions.
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

/// The interval kernel four lanes at a time.  The elements past the last
/// whole group are computed by redoing the last four: each output depends
/// on its own inputs only, so a lane written twice gets the same bits.
__attribute__((target("avx2"))) void LogIntervalProbColumnAvx2(
    const double* means, const double* sigmas, double a, double b,
    double* out, size_t n) {
  using interval_kernel::Vec4;
  if (n < 4) return LogIntervalProbColumnPortable(means, sigmas, a, b, out, n);
  for (size_t k = 0;; k += 4) {
    if (k + 4 > n) k = n - 4;
    Vec4 mean, sigma;
    std::memcpy(&mean, means + k, sizeof mean);
    std::memcpy(&sigma, sigmas + k, sizeof sigma);
    const Vec4 v = interval_kernel::LogIntervalProb(mean, sigma, a, b);
    std::memcpy(out + k, &v, sizeof v);
    if (k + 4 == n) return;
  }
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

void BuildColumnPortable(double* dst, const double* fx, const double* fy,
                         size_t n) {
  // Dense, dependence-free element-wise work: -O3's vectorizer handles
  // these loops on every ISA, which is the whole portable fallback policy.
  const double floor = LogFloor();
  for (size_t k = 0; k < n; ++k) dst[k] = std::max(fx[k] + fy[k], floor);
}

void AddToPortable(double* dst, const double* a, const double* b, size_t n) {
  for (size_t k = 0; k < n; ++k) dst[k] = a[k] + b[k];
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

void FusedMaxSumGroupPortable(const double* w, const double* const* t,
                              size_t groups, size_t n, double* out) {
  for (size_t g = 0; g < groups; ++g) out[g] = FusedMaxSumPortable(w, t[g], n);
}

void LogIntervalProbColumnPortable(const double* means, const double* sigmas,
                                   double a, double b, double* out, size_t n) {
  assert(a <= b);
  for (size_t i = 0; i < n; ++i) {
    out[i] = interval_kernel::LogIntervalProb(means[i], sigmas[i], a, b);
  }
}

void BuildColumn(double* dst, const double* fx, const double* fy, size_t n) {
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) return BuildColumnAvx2(dst, fx, fy, n);
#endif
  BuildColumnPortable(dst, fx, fy, n);
}

void AddTo(double* dst, const double* a, const double* b, size_t n) {
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) return AddToAvx2(dst, a, b, n);
#endif
  AddToPortable(dst, a, b, n);
}

double FusedMaxSum(const double* w, const double* t, size_t n) {
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) {
    double best;
    kAvx2Scans[w != nullptr][0](w, &t, n, &best);
    return best;
  }
#endif
  return FusedMaxSumPortable(w, t, n);
}

void LogIntervalProbColumn(const double* means, const double* sigmas,
                           double a, double b, double* out, size_t n) {
  assert(a <= b);
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) {
    return LogIntervalProbColumnAvx2(means, sigmas, a, b, out, n);
  }
#endif
  LogIntervalProbColumnPortable(means, sigmas, a, b, out, n);
}

void FusedMaxSumGroup(const double* w, const double* const* t, size_t groups,
                      size_t n, double* out) {
  assert(groups >= 1 && groups <= kMaxGroup);
#if TRAJPATTERN_SIMD_AVX2
  if (ActiveLevel() == Level::kAvx2) {
    return kAvx2Scans[w != nullptr][groups - 1](w, t, n, out);
  }
#endif
  FusedMaxSumGroupPortable(w, t, groups, n, out);
}

}  // namespace trajpattern::simd
