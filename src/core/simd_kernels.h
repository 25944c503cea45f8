#ifndef TRAJPATTERN_CORE_SIMD_KERNELS_H_
#define TRAJPATTERN_CORE_SIMD_KERNELS_H_

#include <cstddef>

namespace trajpattern::simd {

/// Instruction set the dense window-kernel loops run with.  Selected once
/// per process: `kAvx2` requires the AVX2 paths compiled in (CMake
/// `TRAJPATTERN_SIMD`, default `auto`) *and* a CPU that reports AVX2;
/// everything else falls back to `kPortable`, the plain-C++ loops every
/// platform compiles.  Both levels are bit-identical — the vector code
/// performs the same IEEE operations per element and only reassociates
/// `max`, which is exact on the finite, NaN-free log domain these loops
/// run over — so the choice is invisible to every identity oracle.
enum class Level {
  kPortable,
  kAvx2,
};

/// The level the dispatched kernels below actually execute with.
Level ActiveLevel();

/// "avx2" or "portable"; stamped into bench JSON so perf artifacts say
/// which code path produced them.
const char* ActiveLevelName();

/// max over k in [0, n) of w[k] + max(fx[k] + fy[k], LogFloor()), or of
/// the floored factor sum alone when `w` is null; -infinity for n == 0.
/// The fused last-position max scan of the shared-prefix walk: `fx` and
/// `fy` are the position's two floored log-factor vectors, so the floored
/// sum is the position's log-prob column (`AddLogFactors`), never stored.
/// Inputs must be finite (sums of log-probabilities, floored at
/// LogFloor()); no NaN and no -0.0 can appear, which is what licenses the
/// vector reassociation of the max.
double FusedMaxSum(const double* w, const double* fx, const double* fy,
                   size_t n);

/// dst[k] = below[k] + max(fx[k] + fy[k], LogFloor()) for k in [0, n):
/// folds one more position's log-prob column, built from its two
/// factors, into the prefix window-sum level `below`.  With `below` null
/// it writes the floored sum alone, the first specified position's level
/// (the same bits as 0.0 + it, since it is never -0.0).  Element-wise
/// IEEE adds and a max taken in `AddLogFactors`' operand order, so
/// vectorization is bit-identical; no FMA.  `dst` must not overlap the
/// inputs.
void FoldFactors(double* dst, const double* below, const double* fx,
                 const double* fy, size_t n);

/// Reference implementations, always compiled, dispatch-independent.
/// The identity tests (and the portable-only CI leg) compare the
/// dispatched kernels against these bit for bit.
double FusedMaxSumPortable(const double* w, const double* fx,
                           const double* fy, size_t n);
void FoldFactorsPortable(double* dst, const double* below, const double* fx,
                         const double* fy, size_t n);

}  // namespace trajpattern::simd

#endif  // TRAJPATTERN_CORE_SIMD_KERNELS_H_
