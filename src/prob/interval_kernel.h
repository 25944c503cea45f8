#ifndef TRAJPATTERN_PROB_INTERVAL_KERNEL_H_
#define TRAJPATTERN_PROB_INTERVAL_KERNEL_H_

// The one body of the Normal interval probability (DESIGN.md 4g): the
// mass of N(mean, sigma^2) in a box [a, b], taken from the tails outside
// the box, and its floored log.  It is written once over a lane type V:
// `double`, for the scalar calls in prob/normal.cc and the portable
// batch, and `Vec4`, four doubles in a GCC vector, which
// core/simd_kernels.cc inlines into a target("avx2") function.  Every
// step is an IEEE add, subtract, multiply, divide, compare, select or bit
// operation on each lane, in the same order for both types, and no step
// reads the host's libm, so the four lanes give the scalar call's bits.
// The sources that include this header build with -ffp-contract=off, so
// no compiler fuses a multiply-add in one twin and not the other.

#include <bit>
#include <cstdint>

#include "prob/log_space.h"

namespace trajpattern::interval_kernel {

/// A one-sided box (both edges on one side of the mean) whose near edge
/// lies beyond this many sigmas has probability below kProbFloor:
/// Q(37.05) = 8.98e-301, and the crossing is at 37.0471.  The cut also
/// keeps every near tail the kernel evaluates normal: Q turns subnormal
/// near 37.5.
inline constexpr double kFloorCutSigmas = 37.05;

/// In a box that holds the mean, a tail beyond this many sigmas counts as
/// 0 (a definition, not an exact shortcut: it moves p >= 0.5 by less than
/// Q(8.5) = 9.5e-18).  When both tails lie beyond it, p is 1.
inline constexpr double kMeanTailSigmas = 8.5;

/// In a one-sided box, the far tail is dropped when the box is wider
/// than kFarGapSigmas and its far edge beyond kFarDropSigmas: then
/// Q(far) < 1e-21 Q(near) (the Mills-ratio bounds; Q(13) / Q(8.5) below
/// that when near <= 8.5), far under half an ulp of Q(near), so
/// Q(near) - Q(far) rounds to Q(near) and the drop is exact.
inline constexpr double kFarGapSigmas = 4.5;
inline constexpr double kFarDropSigmas = 13.0;

/// Q(z) rounds to 0 in double for every z >= 38.5 (Q(38.5) = 1.4e-324).
inline constexpr double kZeroTailSigmas = 38.5;

#if defined(__GNUC__) || defined(__clang__)
#define TP_KERNEL_INLINE [[gnu::always_inline]] inline
/// Four lanes of the AVX2 kernel, with their compare masks (0 or -1 per
/// lane) and bit patterns.  Every Vec4 function here is always inlined
/// into the AVX2 kernel, so none passes a vector across a call (the ABI
/// GCC's -Wpsabi note is about; the including sources turn it off).
using Vec4 = double __attribute__((vector_size(32)));
using Mask4 = int64_t __attribute__((vector_size(32)));
using Bits4 = uint64_t __attribute__((vector_size(32)));
#else
#define TP_KERNEL_INLINE inline
#endif

/// Region starts of the tail's rational factor; a lane's region is the
/// number of breaks at or below z.
inline constexpr double kBreaks[3] = {1.25, 3.5, 9.0};
inline constexpr double kStarts[4] = {0.0, 1.25, 3.5, 9.0};

/// Q(z) exp(z^2 / 2) = P(t) / S(t) with t = z - start in each region,
/// P of degree 5 and S of degree 6 with S(0) = 1: coefficients by degree,
/// one column per region.  Fitted against long double erfcl by Lawson-
/// weighted linearized least squares (DESIGN.md 4g); the fit is within
/// 0.7 x 2^-53 relative in every region, the double evaluation within
/// 5.8 x 2^-53.
inline constexpr double kNum[6][4] = {
    {0x1p-1, 0x1.d898de09c6f19p-3, 0x1.b396f9cf1e26p-4, 0x1.66ccb7b9c0c57p-5},
    {0x1.a7cb7ce1ce66fp-2, 0x1.a6e7b064fdf9dp-3, 0x1.55058c7f4eda7p-4,
     0x1.52ed0d68e3f39p-6},
    {0x1.67df9af060aa7p-3, 0x1.5161c45d5402cp-4, 0x1.be99b0e2b9a2cp-6,
     0x1.035ec8946a34fp-8},
    {0x1.578dcaaaf4099p-5, 0x1.23d8915b70a5bp-6, 0x1.30f8d51914c36p-8,
     0x1.91fead909f074p-12},
    {0x1.6f8e4e3f8ae8p-8, 0x1.1022a502fc12ap-9, 0x1.b24a4f70c7438p-12,
     0x1.3b7a23c229a0ep-16},
    {0x1.5b9b81c55d2d8p-12, 0x1.b5826ac12719fp-14, 0x1.024820d7bccbdp-16,
     0x1.9134e1477fcc3p-22},
};
inline constexpr double kDen[6][4] = {
    {0x1.a027e80f88e46p+0, 0x1.5fa8d27bed6afp+0, 0x1.08c714a803111p+0,
     0x1.2962578418b78p-1},
    {0x1.2603419a91351p+0, 0x1.a0bcda088e3e5p-1, 0x1.d3372093924c3p-2,
     0x1.224c9a68243fdp-3},
    {0x1.d0462db4ecf16p-2, 0x1.118bb94b09c99p-2, 0x1.c2c9b78cdf295p-4,
     0x1.30df10cadbafbp-6},
    {0x1.b27e9eea3c372p-4, 0x1.a5397a7b8b16cp-5, 0x1.f68e6f3626763p-7,
     0x1.6b5cc6d8f49d8p-10},
    {0x1.cc5c1f7fb7243p-7, 0x1.6a7bcb1c657e9p-8, 0x1.338e7f3a2417dp-10,
     0x1.d21a7e8826596p-15},
    {0x1.b3d87247983a7p-11, 0x1.122be7b57f22bp-12, 0x1.43b54b7007bd7p-15,
     0x1.f6d67dc7b664fp-21},
};

/// (e^r - 1 - r) / r^2 on |r| <= ln 2 / 2, degree 10, fitted against
/// its long double series; relative error 4.1e-18.
inline constexpr double kExp[11] = {
    0x1p-1,
    0x1.5555555555557p-3,
    0x1.5555555555551p-5,
    0x1.11111111100e9p-7,
    0x1.6c16c16c1880ep-10,
    0x1.a01a01abde51p-13,
    0x1.a01a01996f566p-16,
    0x1.71de02551865ap-19,
    0x1.27e4fb1dddd9dp-22,
    0x1.af4d999a373c8p-26,
    0x1.1f3e4bbd04527p-29,
};

/// (log((1 + s) / (1 - s)) - 2s) / s^3 as a polynomial in z = s^2 on
/// |s| <= (sqrt 2 - 1) / (sqrt 2 + 1), degree 6, fitted against its long
/// double series; relative error 4.6e-16 on a term below 2% of the log.
inline constexpr double kLog[7] = {
    0x1.5555555555558p-1, 0x1.99999999952adp-2, 0x1.2492492df6a59p-2,
    0x1.c71c62df4d99ep-3, 0x1.7462b64628c27p-3, 0x1.39fe2f829141fp-3,
    0x1.2b5a77bf91a66p-3,
};

/// ln 2 split so that k * kLn2Hi is exact for |k| < 2^21.
inline constexpr double kLn2Hi = 0x1.62e42feep-1;
inline constexpr double kLn2Lo = 0x1.a39ef35793c76p-33;
inline constexpr double kInvLn2 = 0x1.71547652b82fep+0;
inline constexpr double kSqrt2 = 0x1.6a09e667f3bcdp+0;
/// 1.5 * 2^52: adding it rounds a double of magnitude below 2^51 to an
/// integer (ties to even) and leaves that integer in the low bits.
inline constexpr double kShifter = 0x1.8p52;
inline constexpr uint64_t kShifterBits = std::bit_cast<uint64_t>(kShifter);
inline constexpr uint64_t kFractionMask = (uint64_t{1} << 52) - 1;
inline constexpr uint64_t kOneBits = std::bit_cast<uint64_t>(1.0);
inline constexpr uint64_t kSignMask = uint64_t{1} << 63;

// Lane vocabulary: each helper has a scalar and a four-lane overload that
// do the same thing to every lane.

TP_KERNEL_INLINE double Splat(double, double x) { return x; }
TP_KERNEL_INLINE double Select(bool m, double a, double b) { return m ? a : b; }
TP_KERNEL_INLINE bool And(bool a, bool b) { return a && b; }
TP_KERNEL_INLINE bool Or(bool a, bool b) { return a || b; }
TP_KERNEL_INLINE bool Not(bool a) { return !a; }
TP_KERNEL_INLINE bool Any(bool m) { return m; }
TP_KERNEL_INLINE bool All(bool m) { return m; }
TP_KERNEL_INLINE int Count(bool m) { return m ? 1 : 0; }
TP_KERNEL_INLINE double Pick(const double (&row)[4], int r) { return row[r]; }
TP_KERNEL_INLINE uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }
TP_KERNEL_INLINE double FromBits(double, uint64_t b) {
  return std::bit_cast<double>(b);
}

#if defined(__GNUC__) || defined(__clang__)
TP_KERNEL_INLINE Vec4 Splat(Vec4, double x) { return Vec4{x, x, x, x}; }
TP_KERNEL_INLINE Vec4 Select(Mask4 m, Vec4 a, Vec4 b) { return m ? a : b; }
TP_KERNEL_INLINE Mask4 And(Mask4 a, Mask4 b) { return a & b; }
TP_KERNEL_INLINE Mask4 Or(Mask4 a, Mask4 b) { return a | b; }
TP_KERNEL_INLINE Mask4 Not(Mask4 a) { return ~a; }
TP_KERNEL_INLINE bool Any(Mask4 m) { return ((m[0] | m[1]) | (m[2] | m[3])) != 0; }
TP_KERNEL_INLINE bool All(Mask4 m) { return ((m[0] & m[1]) & (m[2] & m[3])) != 0; }
TP_KERNEL_INLINE Mask4 Count(Mask4 m) { return -m; }
TP_KERNEL_INLINE Vec4 Pick(const double (&row)[4], Mask4 r) {
#if defined(__clang__)
  return Vec4{row[r[0]], row[r[1]], row[r[2]], row[r[3]]};
#else
  return __builtin_shuffle(Vec4{row[0], row[1], row[2], row[3]}, r);
#endif
}
TP_KERNEL_INLINE Bits4 Bits(Vec4 x) { return reinterpret_cast<Bits4>(x); }
TP_KERNEL_INLINE Vec4 FromBits(Vec4, Bits4 b) { return reinterpret_cast<Vec4>(b); }
#endif

/// 2^j for the integer j held as j + kShifter, -1022 <= j <= 1023.
template <class V>
TP_KERNEL_INLINE V Pow2(V shifted) {
  return FromBits(shifted, (Bits(shifted) + (1023 - kShifterBits)) << 52);
}

/// |x|: the sign bit cleared, so -0.0 and +0.0 both become +0.0.
template <class V>
TP_KERNEL_INLINE V Abs(V x) {
  return FromBits(x, Bits(x) & ~kSignMask);
}

/// Q(z) = P(X > z) for X ~ N(0, 1), for 0 <= z <= kZeroTailSigmas; a
/// caller maps a larger z to 0.  Q = exp(-z^2 / 2) P(t) / S(t), Cody's
/// rational form of erfc, in four regions of z.  The exponential is
/// e^r 2^k with k = round(-z^2 / (2 ln 2)) and r reduced against a split
/// ln 2; 2^k is applied as two factors after the rational, so a tail
/// below the normal range (z > 37.5) rounds once, into a subnormal.
template <class V>
TP_KERNEL_INLINE V Tail(V z) {
  const auto region = Count(z >= kBreaks[0]) + Count(z >= kBreaks[1]) +
                      Count(z >= kBreaks[2]);
  const V t = z - Pick(kStarts, region);
  V num = Pick(kNum[5], region);
  for (int i = 4; i >= 0; --i) num = num * t + Pick(kNum[i], region);
  V den = Pick(kDen[5], region);
  for (int i = 4; i >= 0; --i) den = den * t + Pick(kDen[i], region);
  den = den * t + 1.0;
  const V ratio = num / den;

  const V x = (z * z) * -0.5;
  const V k = (x * kInvLn2 + kShifter) - kShifter;
  const V r = (x - k * kLn2Hi) - k * kLn2Lo;
  V poly = Splat(z, kExp[10]);
  for (int i = 9; i >= 0; --i) poly = poly * r + kExp[i];
  const V er = 1.0 + (r + (r * r) * poly);
  // k = k1 + k2 with k1 = round(k / 2): both factors are normal for every
  // k >= -1070 (z <= 38.5), and the first product is exact.
  const V k1 = k * 0.5 + kShifter;
  const V k2 = (k - (k1 - kShifter)) + kShifter;
  return ((er * ratio) * Pow2(k1)) * Pow2(k2);
}

/// log p for a positive, normal, finite p (fdlibm's e_log reduction:
/// p = 2^e m with m in [sqrt 2 / 2, sqrt 2), s = (m - 1) / (m + 1)).
template <class V>
TP_KERNEL_INLINE V Log(V p) {
  const auto bits = Bits(p);
  V m = FromBits(p, (bits & kFractionMask) | kOneBits);
  // The exponent as a double: (kShifter + biased) - (kShifter + 1023).
  V e = FromBits(p, (bits >> 52) + kShifterBits) - (kShifter + 1023.0);
  const auto big = m > kSqrt2;
  m = Select(big, m * 0.5, m);
  e = Select(big, e + 1.0, e);
  const V f = m - 1.0;
  const V s = f / (2.0 + f);
  const V z = s * s;
  V poly = Splat(p, kLog[6]);
  for (int i = 5; i >= 0; --i) poly = poly * z + kLog[i];
  const V tail = z * poly;
  const V hfsq = (0.5 * f) * f;
  return e * kLn2Hi - ((hfsq - (s * (hfsq + tail) + e * kLn2Lo)) - f);
}

/// A box [a, b] standardized against N(mean, sigma^2): lo = (a - mean) /
/// sigma and hi = (b - mean) / sigma.  The probability depends only on
/// the distances of the two edges from the mean, near <= far, and on
/// whether both edges lie on one side of it.  Mirroring an axis maps
/// (lo, hi) to (-hi, -lo) exactly (IEEE subtraction and division are
/// sign-symmetric), which leaves near, far and `one_sided` as they are.
template <class V, class M>
struct Box {
  V lo, hi;
  V near, far;
  M one_sided;
  /// sigma <= 0: the box is an indicator of `inside`.
  M point_mass;
  M inside;
  /// A NaN edge distance (a NaN mean or sigma): the result is lo + hi.
  M nan;
  /// Whether the far tail enters p (see kFarGapSigmas, kMeanTailSigmas
  /// and kZeroTailSigmas).
  M far_counts;
};

template <class V>
TP_KERNEL_INLINE auto Standardize(V mean, V sigma, double a, double b) {
  using M = decltype(mean < sigma);
  Box<V, M> box;
  box.point_mass = sigma <= 0.0;
  box.inside = And(mean >= a, mean <= b);
  box.lo = (a - mean) / sigma;
  box.hi = (b - mean) / sigma;
  box.nan = Or(box.lo != box.lo, box.hi != box.hi);
  const V alo = Abs(box.lo);
  const V ahi = Abs(box.hi);
  const auto lo_nearer = alo < ahi;
  box.near = Select(lo_nearer, alo, ahi);
  box.far = Select(lo_nearer, ahi, alo);
  box.one_sided = Or(box.lo > 0.0, box.hi < 0.0);
  const M far_dropped =
      And(box.far - box.near > kFarGapSigmas, box.far > kFarDropSigmas);
  box.far_counts = Or(
      And(box.one_sided, And(box.far <= kZeroTailSigmas, Not(far_dropped))),
      And(Not(box.one_sided), box.far <= kMeanTailSigmas));
  return box;
}

/// The outside-tails form: Q(near) - Q(far) for a one-sided box and
/// 1 - (Q(near) + Q(far)) for a box that holds the mean, whose sum
/// commutes, so a mirrored box gives the same bits.  `near` must be at
/// most kZeroTailSigmas; lanes whose far tail does not count skip it.
template <class V, class M>
TP_KERNEL_INLINE V OutsideTails(V near, V far, M one_sided, M far_counts) {
  const V q_near = Tail(near);
  V q_far = Splat(near, 0.0);
  if (Any(far_counts)) {
    q_far = Select(far_counts, Tail(Select(far_counts, far, Splat(near, 0.0))),
                   Splat(near, 0.0));
  }
  return Select(one_sided, q_near - q_far, 1.0 - (q_near + q_far));
}

/// log p, or LogFloor() for p below kProbFloor.
template <class V>
TP_KERNEL_INLINE V FlooredLog(V p) {
  const auto keep = p >= kProbFloor;
  return Select(keep, Log(Select(keep, p, Splat(p, 1.0))),
                Splat(p, LogFloor()));
}

/// Which lanes of `box` return without a tail: a point mass, a NaN, a
/// one-sided box beyond the floor cut (the floor) and a box that holds
/// the mean with both tails beyond kMeanTailSigmas (log 1 = +0.0).
template <class V, class M>
TP_KERNEL_INLINE M LogShortcut(const Box<V, M>& box, V* value) {
  const V floor = Splat(box.lo, LogFloor());
  const V zero = Splat(box.lo, 0.0);
  const M floor_cut = And(box.one_sided, box.near > kFloorCutSigmas);
  const M mean_cut = And(Not(box.one_sided), box.near > kMeanTailSigmas);
  *value = Select(box.point_mass, Select(box.inside, zero, floor),
                  Select(box.nan, box.lo + box.hi, Select(floor_cut, floor, zero)));
  return Or(Or(box.point_mass, box.nan), Or(floor_cut, mean_cut));
}

/// log P(a <= X <= b) for X ~ N(mean, sigma^2), floored at LogFloor():
/// the scalar call and each lane of the AVX2 kernel.
template <class V>
TP_KERNEL_INLINE V LogIntervalProb(V mean, V sigma, double a, double b) {
  const auto box = Standardize(mean, sigma, a, b);
  V value;
  const auto shortcut = LogShortcut(box, &value);
  if (All(shortcut)) return value;
  const V zero = Splat(mean, 0.0);
  const auto live = Not(shortcut);
  const V log_p = FlooredLog(OutsideTails(Select(live, box.near, zero),
                                          box.far, box.one_sided,
                                          And(live, box.far_counts)));
  return Select(shortcut, value, log_p);
}

}  // namespace trajpattern::interval_kernel

#endif  // TRAJPATTERN_PROB_INTERVAL_KERNEL_H_
