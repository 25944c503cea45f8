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

/// max over k in [0, n) of w[k] + t[k], or of t[k] alone when `w` is
/// null; -infinity for n == 0.  The fused last-column max scan of the
/// shared-prefix walk.  Inputs must be finite (they are sums of
/// log-probabilities, floored at LogFloor()); no NaN and no -0.0 can
/// appear, which is what licenses the vector reassociation.
double FusedMaxSum(const double* w, const double* t, size_t n);

/// dst[k] = a[k] + b[k] for k in [0, n): builds one prefix window-sum
/// level from the level below it (`a`) and a shifted column (`b`).
/// Element-wise IEEE adds, so vectorization is trivially bit-identical;
/// no FMA.  `dst` must not overlap `a` or `b`.
void AddTo(double* dst, const double* a, const double* b, size_t n);

/// Reference implementations, always compiled, dispatch-independent.
/// The identity tests (and the portable-only CI leg) compare the
/// dispatched kernels against these bit for bit.
double FusedMaxSumPortable(const double* w, const double* t, size_t n);
void AddToPortable(double* dst, const double* a, const double* b, size_t n);

}  // namespace trajpattern::simd

#endif  // TRAJPATTERN_CORE_SIMD_KERNELS_H_
