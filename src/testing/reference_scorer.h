#ifndef TRAJPATTERN_TESTING_REFERENCE_SCORER_H_
#define TRAJPATTERN_TESTING_REFERENCE_SCORER_H_

#include <cstddef>
#include <set>
#include <unordered_map>
#include <vector>

#include "core/mining_space.h"
#include "core/pattern.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// The reference `NmEngine`'s totals are checked against, bit for bit.
/// It shares nothing with the engine's scan: each needed cell's column
/// is built point by point with `MiningSpace::LogProb` (never the
/// engine's batched, factored warm-up or its arena), and every window is
/// summed window-major, position by position in ascending order,
/// skipping `*` positions.  That is the same left fold the engine's
/// shared-prefix walk computes, so the two agree exactly; per dataset,
/// trajectory terms are added in ascending trajectory order.
///
/// Columns are cached per cell, so one scorer serves many patterns.  Not
/// thread-safe.
class ReferenceScorer {
 public:
  /// `data` must outlive the scorer.
  ReferenceScorer(const TrajectoryDataset& data, const MiningSpace& space);

  /// NM(P, T_i) (Eq. 3/4): the best window sum divided by the specified
  /// count; `LogFloor()` when T_i is shorter than P; -infinity when P
  /// has no specified position.
  double Nm(const Pattern& p, size_t traj_index);
  /// Match(P, T_i) (Eq. 2): exp of the best window sum; 0 when T_i is
  /// shorter than P or P is empty.
  double Match(const Pattern& p, size_t traj_index);
  /// Dataset sums of the above, in ascending trajectory order; an
  /// unscorable P's NM total is -infinity.
  double NmTotal(const Pattern& p);
  double MatchTotal(const Pattern& p);

 private:
  /// Max over the windows of trajectory `i` of the window log-sum;
  /// false when no window exists (trajectory shorter than P, or P
  /// empty).
  bool BestWindowSum(const Pattern& p, size_t i, double* best);
  /// log Prob of every snapshot (flattened in trajectory order) for
  /// `cell`.
  const std::vector<double>& Column(CellId cell);

  const TrajectoryDataset* data_;
  MiningSpace space_;
  /// offsets_[i] is trajectory i's first flattened snapshot.
  std::vector<size_t> offsets_;
  std::unordered_map<CellId, std::vector<double>> columns_;
};

/// The high set H and retained set Q of §4.1, rebuilt from scratch as
/// pattern sets: the reference the miner's id walk over its memo is
/// checked against.
struct ReferenceFrontier {
  std::set<Pattern> high;
  std::set<Pattern> queue;
};

/// H is every pattern of `scores` whose value reaches `omega`; Q is H,
/// plus every singular, plus every pattern whose drop-first or
/// drop-last sub-pattern is in H (Lemma 1).
ReferenceFrontier RebuildReferenceFrontier(
    const std::vector<ScoredPattern>& scores, double omega);

}  // namespace trajpattern

#endif  // TRAJPATTERN_TESTING_REFERENCE_SCORER_H_
