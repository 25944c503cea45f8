#include "prob/normal.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "prob/log_space.h"

namespace trajpattern {
namespace {

constexpr double kSqrt2 = 1.4142135623730951;

/// Distance from the mean, in sigmas, beyond which an interval's
/// probability is certainly below kProbFloor.  Above the mean, 0.5 *
/// erfc(-z / sqrt 2) is exactly 1.0 for every z > 8.3, so both CDF terms
/// are 1.0 and the difference is exactly 0.  Below it, the larger term is
/// 0.5 * erfc(38 / sqrt 2) < 2.9e-316.  At 37 sigma the tail is still
/// 5.7e-300, above the floor.
constexpr double kFloorSigmas = 38.0;

/// Distance from the mean, in sigmas, beyond which a CDF term cannot move
/// the interval probability.  Phi(z) rounds to exactly 1.0 for every
/// z > 8.5 (1 - Phi(8.5) = 9.5e-18 is below half an ulp of 1.0), and
/// Phi(-8.5) = 9.5e-18 < 2^-55 is below half an ulp of any value >= 0.5,
/// so subtracting it from Phi(hi) with hi >= 0 rounds back to Phi(hi).
constexpr double kTailSigmas = 8.5;

// Integrand of the Rice CDF in the numerically stable scaled form:
//   f(r) = (r / sigma^2) * exp(-(r - nu)^2 / (2 sigma^2)) * I0e(r nu / s^2)
// where I0e(x) = I0(x) exp(-x).  Expanding exp(-(r^2+nu^2)/(2s^2)) I0(..)
// this way keeps every factor in [0, inf) without overflow.
double RicePdfScaled(double r, double nu, double sigma) {
  const double s2 = sigma * sigma;
  const double z = (r - nu) / sigma;
  return (r / s2) * std::exp(-0.5 * z * z) * BesselI0Scaled(r * nu / s2);
}

/// The one per-element body behind `NormalIntervalProb` and its batch
/// form.  Both public entry points call exactly this, which is what makes
/// "bit-identical to the scalar calls" a structural guarantee rather than
/// a hope: there is no second arithmetic sequence to drift.
inline double NormalIntervalProbImpl(double mean, double sigma, double a,
                                     double b) {
  if (sigma <= 0.0) return (mean >= a && mean <= b) ? 1.0 : 0.0;
  const double lo = (a - mean) / sigma;
  const double hi = (b - mean) / sigma;
  const double p = StdNormalCdf(hi) - StdNormalCdf(lo);
  return std::clamp(p, 0.0, 1.0);
}

/// The one per-element body behind `LogNormalIntervalProb` and its batch
/// form, for the same reason as `NormalIntervalProbImpl`.  The early
/// returns give the bits the full path would (see kFloorSigmas and
/// kTailSigmas), skipping one or both erfc calls:
///   lo > 8.5:              both CDF terms are 1.0, so the floor;
///   hi < -38:              the floor;
///   lo < -8.5, hi > 8.5:   1.0 - Phi(lo) == 1.0, so log 1 = +0.0;
///   lo < -8.5, hi >= 0:    Phi(hi) - Phi(lo) == Phi(hi).
/// A NaN mean fails every test and takes the full path.
inline double LogNormalIntervalProbImpl(double mean, double sigma, double a,
                                        double b) {
  if (sigma > 0.0) {
    const double lo = (a - mean) / sigma;
    const double hi = (b - mean) / sigma;
    if (lo > kTailSigmas || hi < -kFloorSigmas) return LogFloor();
    if (lo < -kTailSigmas) {
      if (hi > kTailSigmas) return 0.0;
      if (hi >= 0.0) return std::log(StdNormalCdf(hi));
    }
  }
  const double p = NormalIntervalProbImpl(mean, sigma, a, b);
  return p < kProbFloor ? LogFloor() : std::log(p);
}

}  // namespace

double StdNormalCdf(double z) { return 0.5 * std::erfc(-z / kSqrt2); }

double NormalIntervalProb(double mean, double sigma, double a, double b) {
  assert(a <= b);
  return NormalIntervalProbImpl(mean, sigma, a, b);
}

double LogNormalIntervalProb(double mean, double sigma, double a, double b) {
  assert(a <= b);
  return LogNormalIntervalProbImpl(mean, sigma, a, b);
}

void LogNormalIntervalProbBatch(const double* means, const double* sigmas,
                                double a, double b, double* out, size_t n) {
  assert(a <= b);
  // erfc and log dominate and are scalar libm calls, so the win here is
  // the hoisted interval, the dropped per-point call overhead, and giving
  // the compiler one dense loop to schedule — not data-level SIMD.
  for (size_t i = 0; i < n; ++i) {
    out[i] = LogNormalIntervalProbImpl(means[i], sigmas[i], a, b);
  }
}

double BesselI0Scaled(double x) {
  // Abramowitz & Stegun 9.8.1 / 9.8.2 polynomial approximations,
  // rearranged to return I0(x) * exp(-x).
  x = std::abs(x);
  if (x < 3.75) {
    const double t = x / 3.75;
    const double t2 = t * t;
    const double i0 =
        1.0 +
        t2 * (3.5156229 +
              t2 * (3.0899424 +
                    t2 * (1.2067492 +
                          t2 * (0.2659732 +
                                t2 * (0.0360768 + t2 * 0.0045813)))));
    return i0 * std::exp(-x);
  }
  const double t = 3.75 / x;
  const double poly =
      0.39894228 +
      t * (0.01328592 +
           t * (0.00225319 +
                t * (-0.00157565 +
                     t * (0.00916281 +
                          t * (-0.02057706 +
                               t * (0.02635537 +
                                    t * (-0.01647633 + t * 0.00392377)))))));
  return poly / std::sqrt(x);
}

namespace {

/// Per-element body shared by `RadialWithinProb` and its batch form;
/// see `NormalIntervalProbImpl` for why both route through one function.
double RadialWithinProbImpl(double center_distance, double sigma,
                            double delta) {
  if (sigma <= 0.0) return center_distance <= delta ? 1.0 : 0.0;
  const double nu = center_distance;
  // The Rice density is concentrated around nu with width ~sigma; the mass
  // inside [0, delta] is negligible once delta << nu - 12 sigma.
  if (delta <= 0.0) return 0.0;
  if (nu - delta > 12.0 * sigma) return 0.0;
  // Composite Simpson quadrature over [max(0, nu-12s) .. delta] — the
  // integrand vanishes to machine precision left of that.
  const double lo = std::max(0.0, nu - 12.0 * sigma);
  const double hi = delta;
  if (hi <= lo) return 0.0;
  // Resolution: enough intervals to resolve features of width sigma/32.
  int n = static_cast<int>(std::ceil((hi - lo) / (sigma / 32.0)));
  n = std::clamp(n, 64, 8192);
  if (n % 2 == 1) ++n;
  const double h = (hi - lo) / n;
  double sum = RicePdfScaled(lo, nu, sigma) + RicePdfScaled(hi, nu, sigma);
  for (int i = 1; i < n; ++i) {
    const double r = lo + i * h;
    sum += RicePdfScaled(r, nu, sigma) * (i % 2 == 1 ? 4.0 : 2.0);
  }
  const double p = sum * h / 3.0;
  return std::clamp(p, 0.0, 1.0);
}

}  // namespace

double RadialWithinProb(double center_distance, double sigma, double delta) {
  assert(delta >= 0.0);
  return RadialWithinProbImpl(center_distance, sigma, delta);
}

void RadialWithinProbBatch(const double* center_distances,
                           const double* sigmas, double delta, double* out,
                           size_t n) {
  assert(delta >= 0.0);
  for (size_t i = 0; i < n; ++i) {
    out[i] = RadialWithinProbImpl(center_distances[i], sigmas[i], delta);
  }
}

double ProbWithinDelta(const Point2& l, double sigma, const Point2& p,
                       double delta, IndifferenceModel model) {
  switch (model) {
    case IndifferenceModel::kRectangular:
      return NormalIntervalProb(l.x, sigma, p.x - delta, p.x + delta) *
             NormalIntervalProb(l.y, sigma, p.y - delta, p.y + delta);
    case IndifferenceModel::kRadial:
      return RadialWithinProb(Distance(l, p), sigma, delta);
  }
  return 0.0;
}

}  // namespace trajpattern
