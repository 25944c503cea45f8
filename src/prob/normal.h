#ifndef TRAJPATTERN_PROB_NORMAL_H_
#define TRAJPATTERN_PROB_NORMAL_H_

#include <cstddef>

#include "geometry/point.h"

namespace trajpattern {

/// CDF of the standard normal distribution: NormalIntervalProb(0, 1,
/// -inf, z), so Q(-z) below 0 and 1 - Q(z) above it (Q(z) = 1 - Phi(z)).
double StdNormalCdf(double z);

/// P(a <= X <= b) for X ~ N(mean, sigma^2), from the tails outside the
/// box (DESIGN.md 4g): Q(lo) - Q(hi) above the mean, Phi(hi) - Phi(lo)
/// below it and 1 - (Phi(lo) + Q(hi)) for a box that holds it, with lo
/// and hi the standardized bounds.  Mirroring the axis (mean, a, b) ->
/// (-mean, -b, -a) gives the same bits.  In a box that holds the mean, a
/// tail beyond 8.5 sigma counts as 0.  sigma == 0 is a point mass at
/// `mean`; a NaN mean or sigma gives NaN.  The result is in [0, 1].
double NormalIntervalProb(double mean, double sigma, double a, double b);

/// log P(a <= X <= b), floored: exactly SafeLog(NormalIntervalProb(mean,
/// sigma, a, b)), with the floor returned without evaluating what cannot
/// change it.  A one-sided box whose near edge lies more than 37.05
/// sigma from the mean has probability below kProbFloor; a box holding
/// the mean with both tails beyond 8.5 sigma has log 1 = +0.0.  This is
/// the factor of the rectangular model's log probability (see
/// `AddLogFactors`); `simd::LogIntervalProbColumn` evaluates it for a
/// whole grid column, bit for bit.
double LogNormalIntervalProb(double mean, double sigma, double a, double b);

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
/// `simd::LogIntervalProbColumn` for the radial indifference model.
void RadialWithinProbBatch(const double* center_distances,
                           const double* sigmas, double delta, double* out,
                           size_t n);

}  // namespace trajpattern

#endif  // TRAJPATTERN_PROB_NORMAL_H_
