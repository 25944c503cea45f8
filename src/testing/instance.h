#ifndef TRAJPATTERN_TESTING_INSTANCE_H_
#define TRAJPATTERN_TESTING_INSTANCE_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/miner.h"
#include "core/mining_space.h"
#include "trajectory/synchronizer.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// One randomized mining instance for the differential oracle harness: a
/// dataset plus every knob the four oracles vary.  An instance is fully
/// self-describing — `WriteInstance`/`ParseInstance` round-trip it
/// bit-exactly (hexfloat coordinates), which is what makes a shrunken
/// divergence committable under `tests/regressions/` and re-runnable
/// years later with nothing but the file.
///
/// Instances come in two flavors:
///  - dataset-only: `data` is the (already synchronized, already
///    validated) mining input; the oracles exercise the scoring stack.
///  - ingestion-bearing: `report_streams` holds raw per-object report
///    streams (possibly unsorted, with duplicate timestamps — exactly
///    the inputs passive collection produces).  The oracle first pushes
///    them through `Synchronizer` + `TrajectoryValidator` and checks the
///    ingestion invariants; the surviving trajectories then join `data`
///    for the mining oracles.
struct FuzzInstance {
  /// Seed this instance was generated from (0 for hand-written repros).
  uint64_t seed = 0;

  // --- mining space ---
  double box_min_x = 0.0, box_min_y = 0.0;
  double box_max_x = 1.0, box_max_y = 1.0;
  int nx = 1, ny = 1;
  double delta = 0.1;

  // --- input data ---
  TrajectoryDataset data;
  /// Raw report streams (one per synthetic object), run through the
  /// ingestion pipeline before mining.  May be empty.
  std::vector<std::vector<LocationReport>> report_streams;
  /// Synchronizer knobs for `report_streams`.
  double sync_interval = 1.0;
  int sync_snapshots = 0;
  double sync_base_sigma = 0.05;
  double sync_sigma_growth = 0.0;

  // --- mining knobs ---
  int k = 3;
  size_t min_length = 0;
  /// Candidate length cap; doubles as the brute-force enumeration depth.
  size_t max_pattern_length = 2;
  int max_wildcards = 0;
  /// The N of the 1-vs-N-thread determinism oracle (>= 2).
  int num_threads = 4;
  /// Checkpoint oracle: abort after this many completed grow iterations
  /// (1-based; the run may converge earlier, which is also exercised).
  int kill_iteration = 1;

  MiningSpace Space() const;
  /// The reference miner configuration: exact (no beam), serial.  The
  /// oracles toggle one knob at a time off this base.
  MinerOptions Options() const;
  Synchronizer::Options SyncOptions() const;
};

/// Deterministically generates the instance for `seed`: degenerate
/// sigmas, near-delta boundary distances, points exactly on cell edges
/// and outside the box, duplicate/zero-gap timestamps, wildcard-heavy
/// and min-length-constrained configurations, tiny and huge grids,
/// 1-snapshot and empty trajectories all appear with fixed probability.
FuzzInstance GenerateInstance(uint64_t seed);

/// Text round-trip ("trajpattern_repro,v1" header, hexfloat payload).
/// `ParseInstance` rejects malformed input with a typed error and never
/// returns a half-filled instance.
void WriteInstance(const FuzzInstance& inst, std::ostream& os);
Status ParseInstance(std::istream& is, FuzzInstance* inst);

/// File wrappers for `tests/regressions/*.repro`.
Status WriteInstanceFile(const FuzzInstance& inst, const std::string& path);
Status ReadInstanceFile(const std::string& path, FuzzInstance* inst);

}  // namespace trajpattern

#endif  // TRAJPATTERN_TESTING_INSTANCE_H_
