#ifndef TRAJPATTERN_CORE_MINER_H_
#define TRAJPATTERN_CORE_MINER_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "core/nm_engine.h"
#include "core/pattern.h"
#include "core/score_memo.h"
#include "core/top_k.h"
#include "stats/mining_counters.h"

namespace trajpattern {

/// Resumable mining state at a grow-iteration boundary: everything
/// `TrajPatternMiner` needs to continue *bit-identically* after a crash
/// or deliberate stop.  The high/low split and the threshold ω are
/// recomputed from the score memo on resume (both are pure functions of
/// it); the frontier snapshots are not (they reflect the sets the last
/// candidate generation ran over) and are therefore stored explicitly.
/// Serialized by `WriteMinerCheckpoint` / `ReadMinerCheckpoint` (src/io).
struct MinerCheckpoint {
  /// Completed grow iterations — the current length level: after level n
  /// the longest candidates generated have ~2^n positions.
  int iteration = 0;
  /// The k this run was started with; `Mine(resume)` refuses a mismatch.
  int k = 0;
  /// Threshold ω at checkpoint time.  Redundant with `scores` (it is the
  /// k-th best eligible NM); stored for inspection and load-time checks.
  double omega = -std::numeric_limits<double>::infinity();
  /// The global score memo: every pattern ever scored, with its exact NM
  /// or an upper bound on it below ω, once each.  This is the miner's
  /// own memo, so a resume restores the original run's memo ids and
  /// writes the same later checkpoints.  Holds both the high and the low
  /// set; the split is re-derived from ω.
  ScoreMemo scores;
  /// High/queue snapshots the last generation step ran over (the
  /// frontier rule skips pairs that were both present last round), as
  /// ascending ids of `scores`.
  std::vector<ScoreMemo::Id> prev_high;
  std::vector<ScoreMemo::Id> prev_queue;
  /// Cumulative work counters at checkpoint time, restored on resume so
  /// a resumed run reports whole-run statistics rather than only the
  /// post-resume slice.  Absent from v1 checkpoint files (read as 0).
  int64_t candidates_evaluated = 0;
  int64_t candidates_pruned = 0;
  /// Whether the beam capped a generation before this boundary
  /// (`MinerStats::hit_candidate_cap`), restored on resume so a resumed
  /// capped run still reports the cap.  Absent from v1 and v2 checkpoint
  /// files (read as false).
  bool hit_candidate_cap = false;
};

/// Knobs of the TrajPattern algorithm (§4, §5).
struct MinerOptions {
  /// Number of patterns to mine (the paper's k).  k <= 0 asks for
  /// nothing: the threshold ω is then +infinity and the answer is empty.
  int k = 100;

  /// Safety cap on growing iterations.  The paper iterates until the high
  /// set is stable; §4.4 bounds the iteration count by the maximum length
  /// M of a top-k pattern, so this cap only guards against pathological
  /// configurations.  `MinerStats::hit_iteration_cap` reports a hit.
  int max_iterations = 64;

  /// §5 variant: only patterns with at least this many positions are
  /// eligible for the answer (0 disables).  The threshold omega is then
  /// the k-th best NM among eligible patterns, and the high set may hold
  /// more than k patterns.
  size_t min_length = 0;

  /// Skip candidates longer than this (0 = unlimited).  Useful to mirror
  /// the bounded-depth PB baseline in benchmark comparisons.
  size_t max_pattern_length = 0;

  /// Initialize the singular alphabet from `NmEngine::TouchedCells`
  /// instead of all G cells.  Untouched cells score the probability floor
  /// against every snapshot, so this is a pure optimization with the
  /// paper's fine grids; disable to match §4 verbatim.
  bool restrict_to_touched_cells = true;

  /// Sigma multiple for `TouchedCells`.
  double touched_radius_sigmas = 3.0;

  /// Beam cap on candidates evaluated per iteration, ranked by the
  /// min-max bound min(NM(left), NM(right)) (0 = exact, no cap).  When the
  /// cap fires the mining is no longer guaranteed exact;
  /// `MinerStats::hit_candidate_cap` reports it.  Beam mode also scans
  /// every candidate instead of skipping those whose `SplitBound` is
  /// below ω, because its ranking reads memo values as scores.
  size_t max_candidates_per_iteration = 0;

  /// §5 wildcards: maximum number of consecutive "don't care" positions
  /// allowed inside a pattern (the paper's d; 0 disables).  Candidate
  /// generation then also joins patterns with 1..d '*' positions between
  /// them.  Wildcards never appear at pattern edges (a leading or
  /// trailing '*' carries no information), and NM normalizes by the
  /// specified-position count so stars cannot inflate a score.
  int max_wildcards = 0;

  /// Worker threads for candidate scoring: 0 = hardware concurrency,
  /// 1 = exact inline-serial execution (no pool).  Every iteration's
  /// candidate set goes through `NmEngine::NmTotalBatch`, which is
  /// bit-identical to serial scoring for any thread count, so this knob
  /// changes wall-clock only — never the mined answer.
  int num_threads = 1;

  /// Called after every grow iteration with the resumable mining state
  /// (long runs checkpoint here; see `WriteMinerCheckpointFile`).  Return
  /// false to stop mining at this boundary: the result so far is returned
  /// with `MinerStats::aborted` set, and a later `Mine(checkpoint)` with
  /// the same engine/options continues bit-identically.  The sink gets
  /// the miner's own state by reference, with no copy made, and the
  /// reference is valid only during the call: a sink that keeps the
  /// checkpoint must copy it.
  std::function<bool(const MinerCheckpoint&)> checkpoint_sink;

  /// Run control: cooperative cancellation, wall-clock deadline, and
  /// memory budget (see common/run_context.h).  Polled at every batch
  /// boundary, and by every scoring/warm-up worker before claiming each
  /// work item, so a stop takes effect mid-batch.  On a stop the
  /// in-flight batch is discarded and the run returns the exact
  /// best-so-far top-k as of the last completed batch, with the typed
  /// reason in `MinerStats::stop_reason`; the last checkpoint the sink
  /// received stays a valid resume point reproducing the uninterrupted
  /// answer bit-identically.  A default-constructed context never stops
  /// anything.
  RunContext run;
};

/// Counters reported alongside a mining result.  The shared work/timing
/// fields (candidates generated/evaluated/pruned, warmup/scoring split)
/// come from `MiningCounters`, the struct all three miners report
/// through.
struct MinerStats : MiningCounters {
  int iterations = 0;
  size_t peak_queue_size = 0;
  size_t alphabet_size = 0;
  double seconds = 0.0;
  /// Factor vectors the engine held when mining finished (two per cell
  /// at most; one per grid column and row under the rectangular model).
  size_t cells_cached = 0;
  /// Heap bytes of the score memo when mining finished (also the
  /// `miner.memo_bytes` gauge, updated every round).
  size_t memo_bytes = 0;
  bool hit_iteration_cap = false;
  bool hit_candidate_cap = false;
  // `aborted` and the typed `stop_reason` (sink veto, cancellation,
  // deadline, memory budget, allocation failure) are inherited from
  // MiningCounters; an aborted run can be resumed from the last
  // checkpoint its sink received.
};

/// Output of a mining run: the k best patterns by NM, best first, plus
/// run statistics.
struct MiningResult {
  std::vector<ScoredPattern> patterns;
  MinerStats stats;
};

/// The TrajPattern algorithm (§4).
///
/// Maintains a pattern set Q split by the dynamic threshold omega (the
/// k-th best NM seen) into high and low patterns; each iteration
/// concatenates every high pattern with every retained pattern (both
/// orders), scores the new candidates, and prunes low patterns that do
/// not satisfy the 1-extension property (Def. 5 / Lemma 1).  Terminates
/// when an iteration leaves the high set unchanged.
class TrajPatternMiner {
 public:
  /// `engine` must outlive the miner.
  TrajPatternMiner(const NmEngine* engine, const MinerOptions& options);

  /// Runs the algorithm to fixpoint and returns the top-k patterns.
  MiningResult Mine();

  /// Continues a run captured by `MinerOptions::checkpoint_sink`.  With
  /// the same data, space, and options as the original run, the final
  /// top-k is bit-identical to the uninterrupted one for any thread
  /// count.  `resume.k` must match `MinerOptions::k`, every cell of
  /// `resume` must be a wildcard or a cell of the engine's grid (both
  /// only asserted here; `MiningSupervisor` refuses either with a typed
  /// status), and its frontier lists must be ascending ids of
  /// `resume.scores` (asserted; `ReadMinerCheckpoint` returns them so).
  MiningResult Mine(const MinerCheckpoint& resume);

 private:
  /// Shared body of the two `Mine` overloads.
  MiningResult Run(const MinerCheckpoint* resume);

  /// Scores the entries of `batch` (its values are ignored) and feeds
  /// the memo and the top-k tracker serially in id order — identical
  /// bookkeeping to one-at-a-time scoring.  The entries are distinct by
  /// the batch's type.  Precondition: none is in the memo yet (scoring
  /// one twice would count it twice and offer it to the top-k twice);
  /// `GenerateCandidates` and the singular batch filter for that.  In
  /// exact mode an entry whose `SplitBound` (read from the memo as of
  /// batch entry) is below the batch's ω memoizes that bound and is
  /// neither scanned nor offered; only the rest become `Pattern`s, for
  /// the engine's batch API (parallel per `MinerOptions::num_threads`).
  /// Every entry is committed to the memo by span.
  void ScoreBatch(const ScoreMemo& batch);

  /// True iff a pattern of `length` positions counts toward the answer
  /// set.
  bool Eligible(size_t length) const {
    return options_.min_length == 0 || length >= options_.min_length;
  }

  const NmEngine* engine_;
  MinerOptions options_;
  /// The resumable state as of the last boundary: the global score memo,
  /// the H/Q snapshots the last generation ran over, and k.  The sink
  /// gets this member itself; its other fields are stamped just before
  /// each delivery.
  MinerCheckpoint state_;
  /// The best k eligible patterns seen; its Omega() is the threshold.
  TopKPatterns top_k_;
  MinerStats stats_;
};

/// The split bound: an upper bound on NM(P) read from the score memo
/// alone, a tightening of the min-max property (§4).  Every window of
/// P = A·B is a window of A followed by one of B, so per trajectory, and
/// summed over the dataset,
///   NM(P) <= (s_A·NM(A) + s_B·NM(B)) / (s_A + s_B),
/// where s counts specified (non-`*`) positions.  Returns the minimum of
/// that weighted mean over the cuts of `pattern` whose two halves are
/// both in `scores`, inflated by a rounding slack of
/// 4·(n+m+4)·DBL_EPSILON·|bound| (n = `num_trajectories`, m = |P|), so
/// it also bounds the value `NmEngine::NmTotal` computes in floating
/// point and may itself be memoized and chained.  +infinity when no cut
/// has both halves memoized.  Memo values may be exact scores or upper
/// bounds (earlier split bounds).  The full argument is in
/// docs/ALGORITHM.md, "Split bound".
double SplitBound(std::span<const CellId> pattern, const ScoreMemo& scores,
                  size_t num_trajectories);

/// The first cell of `cp`'s score memo, in id order, that
/// `PatternCellOutsideGrid` finds; every frontier row is a memo entry.
/// Such a checkpoint was written on another grid and cannot be resumed
/// on this one.
std::optional<CellId> CheckpointCellOutsideGrid(const MinerCheckpoint& cp,
                                                const Grid& grid);

/// Convenience wrapper: builds an engine-backed miner and runs it; pass a
/// `resume` checkpoint to continue an earlier (aborted) run.
MiningResult MineTrajPatterns(const NmEngine& engine,
                              const MinerOptions& options,
                              const MinerCheckpoint* resume = nullptr);

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_MINER_H_
