#ifndef TRAJPATTERN_PROB_LOG_SPACE_H_
#define TRAJPATTERN_PROB_LOG_SPACE_H_

#include <algorithm>

namespace trajpattern {

/// Probability floor used before taking logarithms.
///
/// NM sums log-probabilities (Eq. 3); a zero probability would contribute
/// -inf and poison every pattern containing that position.  Following the
/// spirit of the measure (such patterns are maximally bad, not undefined)
/// we clamp probabilities at this floor, which bounds one position's
/// contribution at ~-690 nats — far below anything competitive.
inline constexpr double kProbFloor = 1e-300;

/// log(kProbFloor), correctly rounded.
inline constexpr double kLogFloor = -0x1.5963447f87fb5p+9;

/// Lowest representable log-probability, log(kProbFloor).
inline constexpr double LogFloor() { return kLogFloor; }

/// log(max(p, kProbFloor)); the only way NM code takes logs.  It is the
/// in-repo log of the interval kernel (prob/interval_kernel.h), not the
/// host's libm, so a floored log has the same bits on every host.  An
/// infinite or NaN p passes through, as log passes it.
double SafeLog(double p);

/// The floored log of a product of two probabilities, from the floored
/// logs of its factors: max(log_px + log_py, LogFloor()).  For factors in
/// [LogFloor(), 0] the result is in [LogFloor(), 0] and never -0.0.  It
/// equals SafeLog(px * py) wherever either factor is floored, and within
/// a few ulps elsewhere.
inline double AddLogFactors(double log_px, double log_py) {
  return std::max(log_px + log_py, LogFloor());
}

}  // namespace trajpattern

#endif  // TRAJPATTERN_PROB_LOG_SPACE_H_
