#ifndef TRAJPATTERN_BASELINE_MATCH_APRIORI_H_
#define TRAJPATTERN_BASELINE_MATCH_APRIORI_H_

#include <cstdint>
#include <vector>

#include "core/nm_engine.h"
#include "core/pattern.h"
#include "stats/mining_counters.h"

namespace trajpattern {

/// Options for the match-measure miner.
struct MatchMinerOptions {
  /// Number of patterns to mine.
  int k = 100;
  /// Only patterns at least this long are eligible for the answer.
  size_t min_length = 1;
  /// Hard cap on pattern length (0 = unlimited).  With the match measure
  /// long patterns die out on their own (match decays with length), so
  /// this is a safety valve.
  size_t max_length = 0;
  /// Use `NmEngine::TouchedCells` as the alphabet.
  bool restrict_to_touched_cells = true;
  /// Absolute match threshold below which patterns are dropped from the
  /// frontier.  [14] mines patterns above a user match threshold; keeping
  /// one here prunes the (astronomically many) near-zero-match sequences
  /// when `min_length` defers the top-k threshold.  Patterns with match
  /// below this value cannot appear in the answer.
  double min_match = 0.0;
  /// Beam cap on the per-level frontier (0 = exact): when a level has
  /// more survivors, only the best `frontier_cap` by match are extended.
  /// Needed when `min_length` defers the top-k threshold — the exact
  /// level-wise frontier grows combinatorially until long patterns
  /// exist.  Approximate when it fires (reported in the stats): the
  /// answer can miss a long pattern all of whose prefixes rank below the
  /// cap.
  size_t frontier_cap = 0;
  /// Worker threads for scoring (0 = hardware concurrency, 1 = serial).
  /// Each level's surviving candidates are scored through one
  /// `NmEngine::MatchTotalBatch`; results are identical for any value.
  int num_threads = 1;
  /// Run control (cancellation/deadline/memory budget), polled per level
  /// and by scoring workers mid-level; see common/run_context.h.  On a
  /// stop the in-flight level is discarded and the run returns its exact
  /// best-so-far top-k with the typed `stop_reason`.
  RunContext run;
};

/// Counters for a match mining run.  Shared work/timing fields come from
/// `MiningCounters`; `candidates_pruned` stays 0 here.
struct MatchMinerStats : MiningCounters {
  int levels = 0;
  bool hit_frontier_cap = false;
  double seconds = 0.0;
};

/// Result of match mining: top-k by match, best first.
struct MatchMiningResult {
  std::vector<ScoredPattern> patterns;  // nm field holds the match value
  MatchMinerStats stats;
};

/// Top-k miner for the *match* measure of [14] (Yang et al., SIGMOD'02),
/// the paper's comparison model in §6.1.
///
/// Match is monotone under sub-patterns (the Apriori property holds), so
/// this is a level-wise miner in the spirit of [14]'s border collapsing:
/// level j+1 candidates join level-j survivors that overlap in j-1
/// positions, candidates whose length-j prefix or suffix fell below the
/// running k-th-best threshold are pruned, and the threshold tightens as
/// better patterns appear.  Exact for the match measure.
MatchMiningResult MineMatchPatterns(const NmEngine& engine,
                                    const MatchMinerOptions& options);

}  // namespace trajpattern

#endif  // TRAJPATTERN_BASELINE_MATCH_APRIORI_H_
