#ifndef TRAJPATTERN_TESTING_MINING_ORACLE_H_
#define TRAJPATTERN_TESTING_MINING_ORACLE_H_

#include <cstddef>
#include <string>

#include "testing/instance.h"

namespace trajpattern {

/// What one oracle pass over an instance did and found.  `divergence`
/// is empty when every applicable check passed; otherwise it names the
/// first failing oracle and the exact disagreement (scores are rendered
/// as hexfloats so a report is diffable down to the last bit).
struct OracleReport {
  std::string divergence;
  /// Which optional legs actually ran — a fuzz campaign must report
  /// skipped coverage, not silently count it as passed.
  bool brute_force_checked = false;
  bool ingestion_checked = false;
  bool warm_order_checked = false;
  /// Oracle (g) audited the reference run's final memo (it needs at
  /// least one completed grow iteration, i.e. one checkpoint).
  bool memo_bounds_checked = false;
  /// Oracle (h) checked the reference run's frontier (it needs two
  /// boundaries, i.e. two checkpoints).
  bool frontier_checked = false;
  /// Full miner executions performed.
  int mining_runs = 0;

  bool ok() const { return divergence.empty(); }
};

/// The differential correctness harness of the scoring/checkpoint/
/// validation stack.  One `Check` call cross-examines an instance with
/// these oracle families, every one of which the production code
/// promises to pass *bit-identically* (or, for (g), exactly):
///
///  (a) kernels: per-pattern NM/Match totals and NM/Match batches at 1
///      and N threads (the shared-prefix walk) against the point-at-a-
///      time `ReferenceScorer`; plus `BruteForceTopK` as ground truth
///      when the pattern space is small enough to enumerate (reported
///      via `brute_force_checked`).
///  (c) resume: kill-at-iteration checkpoint through the wire format,
///      then resume vs the uninterrupted run — same top-k, and work
///      counters that neither double-count nor vanish.
///  (d) threads: 1 worker vs the instance's N workers — same top-k,
///      same counters.
///  (e) warm order: engines whose factor cache was warmed in shuffled
///      orders and on different thread counts score bit-identically to
///      one warmed in canonical order on one thread, and re-warming the
///      resident set computes nothing (the incremental contract).
///  (g) memo bounds: in the reference run's final memo (captured through
///      its last checkpoint) every value is >= the `ReferenceScorer`'s
///      NM, and every value that is not bit-equal to it lies below the
///      final ω (reported via `memo_bounds_checked`).  Every exact score
///      the run memoized is thereby checked against the reference too.
///  (h) frontier: for each pair of consecutive checkpoints of the
///      reference run, the later one's `prev_high`/`prev_queue` equal, as
///      pattern sets, `RebuildReferenceFrontier` of the earlier one's
///      memo at its ω (reported via `frontier_checked`).  Runs first,
///      right after the reference run, so a wrong H or Q is reported as
///      such rather than as the top-k or counter change it may cause.
///
/// Legs (b) and (f) are retired; the remaining legs keep their letters.
///
/// Ingestion-bearing instances additionally check the synchronizer's
/// order-independence (a report stream is a *set* of fixes: raw order
/// and canonical time order must synchronize bit-identically) and the
/// validator's output invariants (finite coordinates, sigma > 0).
class MiningOracle {
 public:
  struct Limits {
    /// Brute-force leg budget: skip enumeration when the pattern space
    /// (sum of alphabet^l) exceeds this many candidates.
    size_t max_brute_patterns = 20000;
  };

  MiningOracle() = default;
  explicit MiningOracle(const Limits& limits) : limits_(limits) {}

  OracleReport Check(const FuzzInstance& inst) const;

 private:
  Limits limits_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_TESTING_MINING_ORACLE_H_
