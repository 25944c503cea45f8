#ifndef TRAJPATTERN_STATS_MINING_COUNTERS_H_
#define TRAJPATTERN_STATS_MINING_COUNTERS_H_

#include <cstdint>

#include "common/run_context.h"

namespace trajpattern {

/// The work counters every miner reports, extracted so `MinerStats`,
/// `PbMinerStats`, and `MatchMinerStats` share one definition (each
/// inherits it) and the three reports cannot drift apart again.  The
/// fields mirror what `NmEngine`'s batch API accounts per call; miners
/// accumulate them across batches (see `AccumulateBatch` in
/// core/nm_engine.h).
struct MiningCounters {
  /// Candidates staged by generation (before memo dedup).
  int64_t candidates_generated = 0;
  /// Candidates actually scored against the dataset.
  int64_t candidates_evaluated = 0;
  /// Candidates whose memo entry is an upper bound below ω rather than
  /// an exact score (counted within `candidates_evaluated`): the
  /// TrajPattern miner's exact-mode split-bound skips, which are never
  /// scanned (`SplitBound` in core/miner.h).  0 for the baselines.
  /// Checkpoint v2 carries it.
  int64_t candidates_pruned = 0;
  /// Engine factor vectors shed to honor a memory budget (0 unless
  /// the run carried one; see `RunContext::memory_budget_bytes`).
  int64_t cells_evicted = 0;
  /// Time spent computing factor vectors (serial side of the batches).
  double warmup_seconds = 0.0;
  /// Time spent scoring candidates (the parallel region).
  double scoring_seconds = 0.0;
  /// Worker count the batches ran with (resolved from `num_threads`).
  int threads_used = 1;
  /// Why the run stopped early (`kNone` == ran to its natural end).
  /// Every early stop — sink veto, cancellation, deadline, memory
  /// budget, allocation failure, work cap — reports through this one
  /// field so the three miners' reports stay uniform.
  StopReason stop_reason = StopReason::kNone;
  /// True iff the run stopped before its natural end (any stop_reason
  /// != kNone).  The result then holds the exact best-so-far top-k as
  /// of the last completed batch, and — for the checkpointing miner —
  /// the last checkpoint emitted is a valid resume point.
  bool aborted = false;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_STATS_MINING_COUNTERS_H_
