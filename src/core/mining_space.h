#ifndef TRAJPATTERN_CORE_MINING_SPACE_H_
#define TRAJPATTERN_CORE_MINING_SPACE_H_

#include "core/pattern.h"
#include "geometry/grid.h"
#include "prob/log_space.h"
#include "prob/normal.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Everything needed to score a pattern position against a trajectory
/// snapshot: the grid whose cell centers form the pattern alphabet, the
/// indifference distance delta of §3.3, and the integration model for
/// Prob(l, sigma, p, delta).
struct MiningSpace {
  Grid grid;
  double delta;
  IndifferenceModel model = IndifferenceModel::kRectangular;

  MiningSpace(const Grid& grid_in, double delta_in,
              IndifferenceModel model_in = IndifferenceModel::kRectangular)
      : grid(grid_in), delta(delta_in), model(model_in) {}

  /// log Prob(l, sigma, center(cell), delta), floored.  Under the
  /// rectangular model it is the sum of the two per-axis log factors,
  /// floored once more (`AddLogFactors`); under the radial model it is
  /// `SafeLog` of the disc probability.  Wildcard positions match
  /// anything: log 1 = 0.
  double LogProb(const TrajectoryPoint& pt, CellId cell) const {
    if (cell == kWildcardCell) return 0.0;
    const Point2 c = grid.CenterOf(cell);
    if (model == IndifferenceModel::kRectangular) {
      return AddLogFactors(
          LogNormalIntervalProb(pt.mean.x, pt.sigma, c.x - delta, c.x + delta),
          LogNormalIntervalProb(pt.mean.y, pt.sigma, c.y - delta, c.y + delta));
    }
    return SafeLog(ProbWithinDelta(pt.mean, pt.sigma, c, delta, model));
  }
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_MINING_SPACE_H_
