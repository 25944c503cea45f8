#include "testing/shrinker.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace trajpattern {
namespace {

/// Rebuilds a dataset with trajectory `skip` removed.
TrajectoryDataset WithoutTrajectory(const TrajectoryDataset& data,
                                    size_t skip) {
  TrajectoryDataset out;
  for (size_t i = 0; i < data.size(); ++i) {
    if (i != skip) out.Add(data[i]);
  }
  return out;
}

Trajectory Truncated(const Trajectory& t, size_t keep) {
  Trajectory out;
  out.set_id(t.id());
  for (size_t i = 0; i < keep && i < t.size(); ++i) out.Append(t[i]);
  return out;
}

}  // namespace

FuzzInstance Shrinker::Shrink(const FuzzInstance& inst,
                              const Predicate& still_fails) const {
  FuzzInstance best = inst;
  size_t evals = 0;
  auto accept = [&](const FuzzInstance& candidate) {
    if (evals >= options_.max_evaluations) return false;
    ++evals;
    if (!still_fails(candidate)) return false;
    best = candidate;
    return true;
  };

  // Passes loop until a full sweep removes nothing (fixpoint) or the
  // budget runs out.  Order: big structure first — each dropped
  // trajectory shrinks every later predicate run too.
  bool progress = true;
  while (progress && evals < options_.max_evaluations) {
    progress = false;

    // 1. Drop whole trajectories (back-to-front keeps indices stable).
    for (size_t i = best.data.size(); i-- > 0;) {
      FuzzInstance c = best;
      c.data = WithoutTrajectory(best.data, i);
      if (accept(c)) progress = true;
    }

    // 2. Drop whole report streams.
    for (size_t i = best.report_streams.size(); i-- > 0;) {
      FuzzInstance c = best;
      c.report_streams.erase(c.report_streams.begin() +
                             static_cast<std::ptrdiff_t>(i));
      if (accept(c)) progress = true;
    }

    // 3. Halve, then step down, trajectory lengths.
    for (size_t i = 0; i < best.data.size(); ++i) {
      for (size_t keep : {best.data[i].size() / 2,
                          best.data[i].size() - 1}) {
        if (keep >= best.data[i].size()) continue;
        FuzzInstance c = best;
        c.data[i] = Truncated(best.data[i], keep);
        if (accept(c)) progress = true;
      }
    }

    // 4. Same for report streams.
    for (size_t i = 0; i < best.report_streams.size(); ++i) {
      const size_t n = best.report_streams[i].size();
      for (size_t keep : {n / 2, n - 1}) {
        if (keep >= n || n == 0) continue;
        FuzzInstance c = best;
        c.report_streams[i].resize(keep);
        if (accept(c)) progress = true;
      }
    }

    // 5. Relax the constraint knobs toward their defaults.
    {
      FuzzInstance c = best;
      c.min_length = 0;
      if (c.min_length != best.min_length && accept(c)) progress = true;
    }
    {
      FuzzInstance c = best;
      c.max_wildcards = 0;
      if (c.max_wildcards != best.max_wildcards && accept(c)) progress = true;
    }
    if (best.max_pattern_length > 1) {
      FuzzInstance c = best;
      c.max_pattern_length = best.max_pattern_length - 1;
      if (accept(c)) progress = true;
    }
    if (best.k > 1) {
      FuzzInstance c = best;
      c.k = best.k - 1;
      if (accept(c)) progress = true;
    }
    if (best.kill_iteration > 1) {
      FuzzInstance c = best;
      c.kill_iteration = 1;
      if (accept(c)) progress = true;
    }
    if (best.num_threads > 2) {
      FuzzInstance c = best;
      c.num_threads = 2;
      if (accept(c)) progress = true;
    }
    if (best.sync_snapshots > 1) {
      FuzzInstance c = best;
      c.sync_snapshots = best.sync_snapshots / 2;
      if (accept(c)) progress = true;
    }

    // 6. Shrink the grid.  Cell IDs in `data` are implied by geometry,
    // not stored, so resizing the grid is always structurally valid.
    if (best.nx > 1) {
      FuzzInstance c = best;
      c.nx = std::max(1, best.nx / 2);
      if (accept(c)) progress = true;
    }
    if (best.ny > 1) {
      FuzzInstance c = best;
      c.ny = std::max(1, best.ny / 2);
      if (accept(c)) progress = true;
    }
  }

  return best;
}

}  // namespace trajpattern
