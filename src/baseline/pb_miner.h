#ifndef TRAJPATTERN_BASELINE_PB_MINER_H_
#define TRAJPATTERN_BASELINE_PB_MINER_H_

#include <cstdint>
#include <vector>

#include "core/nm_engine.h"
#include "core/pattern.h"
#include "stats/mining_counters.h"

namespace trajpattern {

/// Options for the projection-based (PB) baseline.
struct PbMinerOptions {
  /// Number of patterns to mine.
  int k = 100;
  /// Maximum pattern length the prefixes may grow to.  PB has no
  /// length-free termination for NM (the paper's §6.2 critique: the
  /// per-position upper bound is loose), so a depth bound is part of the
  /// method.  Must be >= 1.
  size_t max_length = 8;
  /// Only patterns at least this long are eligible for the answer.
  size_t min_length = 1;
  /// Use `NmEngine::TouchedCells` as the alphabet.
  bool restrict_to_touched_cells = true;
  /// Abort the run once this many prefixes were expanded (0 = unlimited);
  /// models "we need to keep G^c prefixes, which may be too large".
  int64_t max_expanded_prefixes = 0;
  /// Worker threads for scoring (0 = hardware concurrency, 1 = serial).
  /// Each expanded prefix's alphabet of extensions is scored as one
  /// `NmEngine::NmTotalBatch`; results are identical for any value.
  int num_threads = 1;
  /// Run control (cancellation/deadline/memory budget), polled per wave
  /// and by scoring workers mid-wave; see common/run_context.h.  On a
  /// stop the in-flight wave is discarded and the run returns its exact
  /// best-so-far top-k with the typed `stop_reason`.
  RunContext run;
};

/// Counters for a PB run.  The shared work/timing fields live in
/// `MiningCounters` (candidates generated/evaluated/pruned plus the
/// warmup/scoring split), identical across all three miners.
struct PbMinerStats : MiningCounters {
  int64_t prefixes_expanded = 0;
  size_t peak_live_prefixes = 0;
  /// The `max_expanded_prefixes` cap fired.  Reported through the shared
  /// stop fields too: `stop_reason == kWorkCap` and `aborted` (same
  /// vocabulary as the core miner's early stops).
  bool hit_prefix_cap = false;
  double seconds = 0.0;
};

/// Result of PB mining: top-k patterns by NM, best first.
struct PbMiningResult {
  std::vector<ScoredPattern> patterns;
  PbMinerStats stats;
};

/// Projection-based miner for NM patterns, the paper's §6.2 baseline
/// (after [13]).
///
/// Grows prefixes one position at a time.  A prefix p of length c is kept
/// extensible iff its loose upper bound max_m (c/m) * NM(p) =
/// (c/max_length) * NM(p) reaches the running k-th-best threshold — the
/// bound the paper criticizes: appended positions are assumed to match
/// perfectly (log prob 0), so nearly every prefix stays extensible and
/// the live-prefix set grows ~G^c.  Exact (same top-k as TrajPattern up
/// to `max_length`) whenever the prefix cap is not hit.
PbMiningResult MinePbPatterns(const NmEngine& engine,
                              const PbMinerOptions& options);

}  // namespace trajpattern

#endif  // TRAJPATTERN_BASELINE_PB_MINER_H_
