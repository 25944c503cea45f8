#ifndef TRAJPATTERN_PROB_NORMAL_H_
#define TRAJPATTERN_PROB_NORMAL_H_

#include <cstddef>

#include "geometry/point.h"

namespace trajpattern {

/// CDF of the standard normal distribution.
double StdNormalCdf(double z);

/// P(a <= X <= b) for X ~ N(mean, sigma^2).  Degenerates gracefully for
/// sigma == 0 (point mass at `mean`).
double NormalIntervalProb(double mean, double sigma, double a, double b);

/// log P(a <= X <= b) for X ~ N(mean, sigma^2), floored: exactly
/// SafeLog(NormalIntervalProb(mean, sigma, a, b)), but the floor is
/// returned without evaluating what cannot change it.  An interval more
/// than 38 sigma from the mean skips erfc: its probability is exactly 0
/// above the mean and at most 2.9e-316 below it, both under kProbFloor.
/// A probability under kProbFloor skips the log.  This is the factor of
/// the rectangular model's log probability (see `AddLogFactors`).
double LogNormalIntervalProb(double mean, double sigma, double a, double b);

/// Batched `LogNormalIntervalProb` over one shared interval: out[i] =
/// LogNormalIntervalProb(means[i], sigmas[i], a, b) for i in [0, n),
/// bit-identical to the scalar calls (both run the same per-element
/// arithmetic).  This is the column-at-a-time entry point the NmEngine
/// warm-up uses: one call evaluates a whole grid column's or row's
/// factors, hoisting the interval bounds and the per-call overhead out of
/// the dataset loop.
void LogNormalIntervalProbBatch(const double* means, const double* sigmas,
                                double a, double b, double* out, size_t n);

/// Exponentially scaled modified Bessel function I0(x) * exp(-|x|).
/// Needed by the radial indifference model; stable for all x >= 0.
double BesselI0Scaled(double x);

/// How to interpret "the true location is within delta of p" (Eq. 2).
///
/// The paper leaves the integration region implicit.  `kRectangular`
/// treats delta per axis (product of two 1-D normal interval
/// probabilities; exact under the diagonal covariance of §3.1 and the
/// library default).  `kRadial` integrates the bivariate normal over the
/// true Euclidean disc of radius delta (Rice CDF, numeric quadrature).
enum class IndifferenceModel {
  kRectangular,
  kRadial,
};

/// Prob(l, sigma, p, delta) of §3.3: probability that the true location of
/// an object — distributed N(l, sigma^2 I) — is within `delta` of `p`.
///
/// `sigma == 0` degenerates to an indicator of |l - p| <= delta per the
/// chosen model.  The result is clamped into [0, 1].
double ProbWithinDelta(const Point2& l, double sigma, const Point2& p,
                       double delta,
                       IndifferenceModel model = IndifferenceModel::kRectangular);

/// P(|X - p| <= delta) for X ~ N(l, sigma^2 I) under the Euclidean disc
/// model (Rice distribution CDF).  Exposed for testing; prefer
/// `ProbWithinDelta` with `kRadial`.
double RadialWithinProb(double center_distance, double sigma, double delta);

/// Batched `RadialWithinProb` over one shared delta: out[i] =
/// RadialWithinProb(center_distances[i], sigmas[i], delta), bit-identical
/// to the scalar calls.  Column-at-a-time counterpart of
/// `LogNormalIntervalProbBatch` for the radial indifference model.
void RadialWithinProbBatch(const double* center_distances,
                           const double* sigmas, double delta, double* out,
                           size_t n);

}  // namespace trajpattern

#endif  // TRAJPATTERN_PROB_NORMAL_H_
