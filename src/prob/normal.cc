#include "prob/normal.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

#include "prob/interval_kernel.h"
#include "prob/log_space.h"

namespace trajpattern {
namespace {

// Integrand of the Rice CDF in the numerically stable scaled form:
//   f(r) = (r / sigma^2) * exp(-(r - nu)^2 / (2 sigma^2)) * I0e(r nu / s^2)
// where I0e(x) = I0(x) exp(-x).  Expanding exp(-(r^2+nu^2)/(2s^2)) I0(..)
// this way keeps every factor in [0, inf) without overflow.
double RicePdfScaled(double r, double nu, double sigma) {
  const double s2 = sigma * sigma;
  const double z = (r - nu) / sigma;
  return (r / s2) * std::exp(-0.5 * z * z) * BesselI0Scaled(r * nu / s2);
}

/// `NormalIntervalProb` without its precondition check: the interval
/// kernel's form without the floor cut or the log.
double NormalIntervalProbImpl(double mean, double sigma, double a, double b) {
  namespace ik = interval_kernel;
  const auto box = ik::Standardize(mean, sigma, a, b);
  if (box.point_mass) return box.inside ? 1.0 : 0.0;
  if (box.nan) return box.lo + box.hi;
  if (!box.one_sided && box.near > ik::kMeanTailSigmas) return 1.0;
  if (box.near > ik::kZeroTailSigmas) return 0.0;
  const double p =
      ik::OutsideTails(box.near, box.far, box.one_sided, box.far_counts);
  // Q is monotone only to an ulp, so Q(near) - Q(far) of a thin box can
  // come out an ulp below 0.
  return std::max(p, 0.0);
}

}  // namespace

double StdNormalCdf(double z) {
  return NormalIntervalProbImpl(0.0, 1.0,
                                -std::numeric_limits<double>::infinity(), z);
}

double NormalIntervalProb(double mean, double sigma, double a, double b) {
  assert(a <= b);
  return NormalIntervalProbImpl(mean, sigma, a, b);
}

double LogNormalIntervalProb(double mean, double sigma, double a, double b) {
  assert(a <= b);
  return interval_kernel::LogIntervalProb(mean, sigma, a, b);
}

double SafeLog(double p) {
  if (p < kProbFloor) return LogFloor();
  if (!(p <= std::numeric_limits<double>::max())) return p;
  return interval_kernel::Log(p);
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

/// Per-element body shared by `RadialWithinProb` and its batch form, so
/// the batch is bit-identical to the scalar calls by construction.
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
