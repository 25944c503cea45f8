#ifndef TRAJPATTERN_CORE_SIMD_KERNELS_H_
#define TRAJPATTERN_CORE_SIMD_KERNELS_H_

#include <cstddef>

namespace trajpattern::simd {

/// Instruction set the dense window-kernel and factor-pass loops run
/// with.  Selected once per process: `kAvx2` requires the AVX2 paths
/// compiled in (CMake `TRAJPATTERN_SIMD`, default `auto`) *and* a CPU
/// that reports AVX2; everything else falls back to `kPortable`, the
/// plain-C++ loops every platform compiles.  Both levels are
/// bit-identical — the vector code performs the same IEEE operations per
/// element and only reassociates `max`, which is exact on the finite,
/// NaN-free log domain these loops run over — so the choice is invisible
/// to every identity oracle.
enum class Level {
  kPortable,
  kAvx2,
};

/// The level the dispatched kernels below actually execute with.
Level ActiveLevel();

/// "avx2" or "portable"; stamped into bench JSON so perf artifacts say
/// which code path produced them.
const char* ActiveLevelName();

/// Most columns one `FusedMaxSumGroup` call scans.
inline constexpr size_t kMaxGroup = 4;

/// dst[k] = max(fx[k] + fy[k], LogFloor()) for k in [0, n): one cell's
/// log-prob column (`AddLogFactors`) from its two floored log-factor
/// vectors, the tile-local column the shared-prefix walk reads.  An
/// element-wise IEEE add and a max taken in `AddLogFactors`' operand
/// order, so vectorization is bit-identical; no FMA.  `dst` must not
/// overlap the inputs.
void BuildColumn(double* dst, const double* fx, const double* fy, size_t n);

/// dst[k] = a[k] + b[k] for k in [0, n): folds one more position's
/// column (`b`) into the prefix window-sum level below it (`a`).
/// Element-wise IEEE adds, so vectorization is trivially bit-identical;
/// no FMA.  `dst` must not overlap `a` or `b`.
void AddTo(double* dst, const double* a, const double* b, size_t n);

/// max over k in [0, n) of w[k] + t[k], or of t[k] alone when `w` is
/// null; -infinity for n == 0.  The fused last-position max scan of the
/// shared-prefix walk: `w` is the prefix level, `t` the last specified
/// position's column.  Inputs must be finite (sums of log-probabilities,
/// floored at LogFloor()); no NaN and no -0.0 can appear, which is what
/// licenses the vector reassociation of the max.
double FusedMaxSum(const double* w, const double* t, size_t n);

/// out[g] = FusedMaxSum(w, t[g], n) for g in [0, groups), 1 <= groups <=
/// kMaxGroup, bit for bit, in one pass over `w`: the scan of candidates
/// that share a prefix level and differ only in their last column.
void FusedMaxSumGroup(const double* w, const double* const* t, size_t groups,
                      size_t n, double* out);

/// out[i] = LogNormalIntervalProb(means[i], sigmas[i], a, b) for i in
/// [0, n): one grid column's or row's log factors, the NmEngine factor
/// pass.  The AVX2 level runs the interval kernel (prob/interval_kernel.h)
/// four lanes at a time and writes a group whose lanes all return without
/// a tail (the floor, +0.0, a point mass) straight from their shortcuts;
/// the portable level runs the same body per element, so every level
/// gives the scalar call's bits.  `out` must not overlap the inputs.
void LogIntervalProbColumn(const double* means, const double* sigmas,
                           double a, double b, double* out, size_t n);

/// Reference implementations, always compiled, dispatch-independent.
/// The identity tests (and the portable-only CI leg) compare the
/// dispatched kernels against these bit for bit.
void BuildColumnPortable(double* dst, const double* fx, const double* fy,
                         size_t n);
void AddToPortable(double* dst, const double* a, const double* b, size_t n);
double FusedMaxSumPortable(const double* w, const double* t, size_t n);
void FusedMaxSumGroupPortable(const double* w, const double* const* t,
                              size_t groups, size_t n, double* out);
void LogIntervalProbColumnPortable(const double* means, const double* sigmas,
                                   double a, double b, double* out, size_t n);

}  // namespace trajpattern::simd

#endif  // TRAJPATTERN_CORE_SIMD_KERNELS_H_
