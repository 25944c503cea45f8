#ifndef TRAJPATTERN_CORE_NM_ENGINE_H_
#define TRAJPATTERN_CORE_NM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/mining_space.h"
#include "core/pattern.h"
#include "parallel/thread_pool.h"
#include "stats/mining_counters.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Timing/accounting split of one batch-scoring call (the parallel hot
/// path of §4.4's complexity analysis): the serial-side cache warm-up
/// versus the multi-threaded candidate scoring.
struct BatchScoreStats {
  /// Seconds spent computing missing log-factor vectors before scoring.
  double warmup_seconds = 0.0;
  /// Seconds spent scoring candidates (parallel region).
  double scoring_seconds = 0.0;
  /// Factor vectors newly cached by this call's warm-up (the incremental
  /// miss set: vectors no earlier batch needed).
  size_t cells_warmed = 0;
  /// Factor-vector requests satisfied by an already-resident vector (the
  /// hit side of the incremental warm-up; two requests per non-wildcard
  /// position).
  size_t cells_hit = 0;
  /// Lanes the call actually ran with, the calling thread included.
  int threads_used = 1;
  /// Factor vectors shed (lowest factor id first, never one the chunk
  /// needs) to keep the run under its memory budget.
  size_t cells_evicted = 0;
  /// Sub-batches the call was split into to fit the budget (1 == the
  /// whole batch ran as one chunk, as it always does without a budget).
  int chunks = 1;
  /// Dataset tiles the shared-prefix walk cut its chunks into, summed
  /// over chunks.
  int tiles = 0;
  /// Prefix window-sum levels the walk computed (one `simd::AddTo` pass
  /// over a tile each) and levels it took over from the previous scan
  /// of its slice instead, both summed over tiles.  A level folds one
  /// more specified position into a sum of at least one; the first
  /// specified position's level is its tile column, read in place, and
  /// counts as neither.  A scan group (neighbors of a slice that differ
  /// only in their last specified cell) takes its prefix levels once, so
  /// they count once for the whole group.
  int64_t prefix_levels_built = 0;
  int64_t prefix_levels_reused = 0;
  /// Why the call stopped early (`kNone` == it completed).  When set,
  /// `out[i]` is only valid for items the call finished before the stop
  /// fired; callers normally discard the whole batch and fall back to
  /// their last consistent state.
  StopReason stop = StopReason::kNone;
};

/// Folds one batch's accounting into a miner's running counters; every
/// miner calls this after every `NmTotalBatch`/`MatchTotalBatch` so the
/// three reports stay field-for-field comparable.
inline void AccumulateBatch(const BatchScoreStats& batch, MiningCounters* c) {
  c->warmup_seconds += batch.warmup_seconds;
  c->scoring_seconds += batch.scoring_seconds;
  c->threads_used = batch.threads_used;
  c->cells_evicted += static_cast<int64_t>(batch.cells_evicted);
  // stop_reason/aborted stay with the miner: whether a stopped batch
  // aborts the run (and what is discarded) is the miner's decision.
}

/// Scores patterns against a trajectory dataset: the match (Eq. 2) and
/// normalized-match (Eq. 3/4) measures and their dataset aggregates.
///
/// The inner quantity is logp[t][s][c] = log Prob(l_{t,s}, sigma_{t,s},
/// center(c), delta), as `MiningSpace::LogProb` defines it: under the
/// rectangular model max(log Px + log Py, LogFloor()) of two floored
/// per-axis log factors, so every entry lies in [LogFloor(), 0] and is
/// never -0.0.  Px depends only on the cell's grid column and Py only on
/// its grid row, so the engine caches floored 1-D log-factor vectors, not
/// per-cell columns: one vector of `TotalPoints()` doubles per grid
/// column (factor ids [0, nx)) and per grid row ([nx, nx + ny)), each
/// computed the first time a cell needs it.  No dataset-wide per-cell
/// column is stored: the walk builds each cell's floored column for one
/// tile at a time (`simd::BuildColumn`) into one reused tile buffer, and
/// its folds and scans read those.  The radial model does not factor: a
/// cell's first vector is its own log-prob column (id = the cell) and its
/// second is one shared all-+0.0 vector (id = the cell count);
/// AddLogFactors(v, +0.0) == v bit for bit for every column entry, so one
/// kernel serves both models.
/// Each vector is its own buffer, indexed by factor id (`factors_`, null
/// while cold), so resolving a pattern position is one indexed load, not
/// a hash probe.  A buffer is never zero-filled: its warm-up fill is the
/// first write of its pages.
/// Trajectories shorter than the pattern contribute the log floor to NM
/// sums and 0 to match sums (they cannot host a window).
///
/// Threading contract: every entry point is one batch (`NmTotal` and
/// `MatchTotal` a serial batch of one) that warms every vector it needs
/// before any scoring worker starts — the warm-up allocates the missing
/// buffers on the calling thread, fans their fills out over the pool and
/// publishes them serially — then fans the scan out over the same pool;
/// scoring workers only ever *read* the cache.  Warm-up mutates the
/// engine, so calls on one engine must not overlap.
///
/// Dataset totals (`NmTotal`, `MatchTotal` and the batch entry points;
/// one pattern is a batch of one) all run the shared-prefix tiled walk:
/// the candidates are sorted by cells, the dataset is cut into tiles of
/// whole trajectories small enough that the columns of the batch's
/// distinct cells restricted to one tile stay in cache, each tile's
/// columns are built before any candidate reads them, and each tile's
/// window sums are built once per distinct prefix and shared by every
/// candidate extending it; candidates that differ only in their last
/// specified cell share one max scan per trajectory.  Every level is the
/// same left fold of the same floored factor sums, and every
/// total adds its per-trajectory terms in ascending trajectory order, so
/// results are bit-identical to a window-major sum of point-at-a-time
/// log probabilities (the reference in src/testing/reference_scorer.h)
/// regardless of the worker count, the batch composition or the memory
/// budget.
///
/// Invalid patterns: the NM measure divides by the specified-position
/// count, so the empty pattern and all-wildcard patterns are undefined
/// under it.  `ValidateScorable` reports them as a typed error; the NM
/// scoring entry points reject them by returning -infinity (a value no
/// real pattern can reach, keeping release builds free of the silent
/// 0/0) instead of asserting.  Match does not normalize and remains
/// defined for them.  A pattern with a cell outside the grid (see
/// `PatternCellOutsideGrid`), such as one mined on a finer grid, has no
/// factor vectors: every entry point scores it as unscorable too (NM
/// -infinity, Match 0) and warms nothing for it.
class NmEngine {
 public:
  NmEngine(const TrajectoryDataset& data, const MiningSpace& space);
  ~NmEngine();

  NmEngine(const NmEngine&) = delete;
  NmEngine& operator=(const NmEngine&) = delete;

  const MiningSpace& space() const { return space_; }
  const TrajectoryDataset& data() const { return *data_; }

  /// Typed rejection for patterns the NM measure cannot score: the empty
  /// pattern and patterns whose every position is a wildcard (division
  /// by a zero specified-count).  OK for everything else.
  static Status ValidateScorable(const Pattern& p);

  /// NM(P) over the whole dataset: sum of per-trajectory NM (§3.3).
  /// NM(P, T_i) is the max over length-|P| windows of the mean log prob
  /// (Eq. 3 and 4), where the mean is over the *specified* (non-wildcard)
  /// positions — see `Pattern::SpecifiedCount` — and `LogFloor()` for a
  /// trajectory shorter than `P`.  -infinity if `P` fails
  /// `ValidateScorable`.  A serial batch of one; it has no Status
  /// channel, so it throws `std::bad_alloc` when the pattern's missing
  /// factor vectors cannot be allocated, as does `MatchTotal`.
  double NmTotal(const Pattern& p) const;

  /// Scores a whole candidate generation at once: out[i] == NmTotal(
  /// patterns[i]), bit-identical to the serial calls, computed on
  /// `num_threads` workers (0 = hardware concurrency, 1 = inline serial).
  /// Missing factor vectors are warmed before any worker starts, which is
  /// what makes the scoring region read-only and race-free.
  ///
  /// `run` (optional) threads the run-control contract through the call:
  /// scoring workers poll its token/deadline before claiming each
  /// candidate, warm-up polls it before each vector, and a non-zero
  /// `memory_budget_bytes` caps the factor cache — the call splits the
  /// batch into chunks whose distinct factor vectors fit the budget, and
  /// each chunk's warm-up frees the lowest-id resident vectors it does
  /// not need until its own fit.  A pattern whose own vectors (at most 2
  /// per specified position under the rectangular model, its cells plus
  /// one under the radial) exceed the budget stops the call with
  /// `kMemoryBudgetExceeded`.  Chunk boundaries are a pure function of
  /// the pattern list and the budget, and every chunk uses the serial
  /// reduction order, so budgeted results stay bit-identical to
  /// unbudgeted ones.  On an early stop the call
  /// returns with `stats->stop` set and the output must be discarded.
  std::vector<double> NmTotalBatch(const std::vector<Pattern>& patterns,
                                   int num_threads = 1,
                                   BatchScoreStats* stats = nullptr,
                                   const RunContext* run = nullptr) const;

  /// Match(P): sum of per-trajectory match values.  Match(P, T_i) is the
  /// max over windows of the joint probability in linear space (Eq. 2,
  /// with the window max of [14]), and 0 for a trajectory shorter than P.
  double MatchTotal(const Pattern& p) const;

  /// Batch counterpart of `MatchTotal`; same contract as `NmTotalBatch`.
  std::vector<double> MatchTotalBatch(const std::vector<Pattern>& patterns,
                                      int num_threads = 1,
                                      BatchScoreStats* stats = nullptr,
                                      const RunContext* run = nullptr) const;

  /// Hit/miss split of one `WarmCells` call: each cell of the request
  /// that is a cell of the grid asks for its two factor vectors.  Each
  /// distinct vector that was not resident is a miss, computed once;
  /// every other ask is a hit (hits = asks - misses).
  struct WarmStats {
    size_t hits = 0;
    size_t misses = 0;
    /// Factor vectors shed to fit the run's memory budget: the lowest
    /// resident factor ids the request does not need, no more than it
    /// must.
    size_t evicted = 0;
    /// Why the warm-up stopped early (`kNone` == it completed).  On a
    /// stop nothing half-filled is published: vectors that finished
    /// before the stop are installed, the rest stay cold, and the
    /// return value counts only the published ones.
    StopReason stop = StopReason::kNone;
  };

  /// Computes the factor vectors that `cells` need and that are not
  /// cached yet.  Warm-up is parallel and incremental: each cell maps to
  /// its two factor ids, the distinct ids that are not resident are the
  /// missing ones (so per-batch calls warm only the delta), each missing
  /// vector gets its own buffer, allocated on the calling thread, the
  /// buffers are filled on `num_threads` workers — one
  /// `simd::LogIntervalProbColumn` pass per grid column or row under the
  /// rectangular model — and a single serial, ordered publish step
  /// installs them under their factor ids.  Vector contents depend only on
  /// (factor id, dataset, space), so results are bit-identical for any
  /// thread count and any warm order.  Returns the number of factor
  /// vectors added — 0, allocating nothing, when every one is already
  /// warm.  Wildcards and cells outside the grid are skipped.  Every
  /// scoring call runs the same warm-up on each chunk's factor ids; this
  /// entry point is for callers that know their working set up front.
  /// Not itself thread-safe: callers serialize calls (the entry points
  /// do) and workers only read.
  /// `run` (optional) adds run control: the fill fan-out polls the
  /// context before each vector, a memory budget evicts the lowest-id
  /// resident vectors this request does not need before allocating (a
  /// request whose own vectors exceed the budget stops with
  /// `kMemoryBudgetExceeded`), and allocation failure — real
  /// `std::bad_alloc` or an injected fault — reports `kAllocFailed`
  /// instead of throwing.  Vectors are pure functions of (factor id,
  /// dataset, space), so publishing only the completed subset after a
  /// stop keeps the cache consistent.
  size_t WarmCells(const std::vector<CellId>& cells, int num_threads = 1,
                   WarmStats* stats = nullptr,
                   const RunContext* run = nullptr) const;

  /// Cells whose center receives non-negligible probability from at least
  /// one snapshot: within `radius_sigmas * sigma + delta` of some mean.
  /// This is the effective singular alphabet; with the paper's fine grids
  /// almost all of G is empty and scoring it would be pure waste.
  std::vector<CellId> TouchedCells(double radius_sigmas = 3.0) const;

  /// The singular alphabet a miner grows its patterns from:
  /// `TouchedCells(radius_sigmas)` when `touched_only`, else every cell of
  /// the grid in id order.
  std::vector<CellId> SingularAlphabet(bool touched_only,
                                       double radius_sigmas = 3.0) const;

  /// Number of resident factor vectors (at most nx + ny under the
  /// rectangular model).
  size_t num_cached_cells() const { return num_resident_; }

  /// Bytes of one factor vector, one double per snapshot (the size of
  /// one buffer; a memory budget is a count of these).
  size_t column_bytes() const { return stride_ * sizeof(double); }
  /// High-water mark of the factor vectors allocated at once, resident
  /// plus in flight (allocated by a warm-up, not yet published), in
  /// bytes.  A memory budget bounds that count, so this never exceeds a
  /// budget that was in force for the engine's whole life.
  size_t arena_peak_bytes() const { return peak_vectors_ * column_bytes(); }
  /// Factor vectors shed by memory-budget eviction over the engine's
  /// life.
  size_t cells_evicted() const { return cells_evicted_; }

  /// Test hook: called once by every warm-up that allocates, before it
  /// allocates, with the bytes of the resident plus requested vectors;
  /// returning true simulates an allocation failure (`kAllocFailed`)
  /// without actually exhausting memory.
  void set_alloc_fault_hook(std::function<bool(size_t)> hook) {
    alloc_fault_hook_ = std::move(hook);
  }

 private:
  /// Which dataset aggregate a scan computes.
  enum class Measure { kNm, kMatch };

  /// Per-lane state of the shared-prefix walk, reused across the chunks
  /// of one call: the tile-local prefix window-sum buffers (one per
  /// computed level, which neither position 0 nor the last position ever
  /// is), and per position the base pointer of that prefix's sums
  /// (nullptr while no specified position has been folded in; a tile
  /// column for the first specified one), the cell it was built for, and
  /// whether it is a computed level.
  struct WalkScratch {
    std::vector<double> levels;
    std::vector<const double*> sums;
    std::vector<CellId> cells;
    std::vector<char> computed;
    int64_t built = 0;
    int64_t reused = 0;
  };

  /// The work plan of one walk: candidate order, tiles and slices.  A
  /// pure function of the candidate list and the dataset, never of the
  /// worker count.
  struct WalkPlan;

  /// The two factor ids of grid cell `cell`: (column, nx + row) under the
  /// rectangular model, (cell, num_cells) under the radial one.
  std::pair<int32_t, int32_t> FactorIds(CellId cell) const;

  /// Writes factor vector `id` into `out[0, TotalPoints())`: under the
  /// rectangular model one `simd::LogIntervalProbColumn` pass over the x
  /// (or y) means, the floored 1-D log factor `MiningSpace::LogProb`
  /// adds; under the radial model the cell's `SafeLog` column through the
  /// batched `RadialWithinProbBatch`, or the all-+0.0 vector.  `dist` is
  /// the caller-owned scratch for the radial center distances, so
  /// parallel warm-up workers each bring their own.
  void ComputeFactorInto(int32_t id, double* out,
                         std::vector<double>* dist) const;

  /// Base pointer of resident factor vector `id`.
  const double* ResidentFactor(int32_t id) const;

  /// `NmTotal`/`MatchTotal`: a serial batch of one, without run control,
  /// so only a failed allocation (real or injected) can stop it; that
  /// throws `std::bad_alloc`, with no vector of the failed request
  /// published.
  double TotalOne(const Pattern& p, Measure measure) const;

  /// The warm-up of `WarmCells` and of every batch chunk: makes the
  /// distinct factor ids `ids` resident, as `WarmCells` documents, and
  /// reports `asks` vector requests, `ids.size()` of them distinct, in
  /// `stats`.  Returns the number of vectors published.
  size_t WarmFactors(std::span<const int32_t> ids, size_t asks,
                     int num_threads, WarmStats* stats,
                     const RunContext* run) const;

  /// Shared-prefix tiled walk of `patterns`, whose factor vectors must all
  /// be resident: out[i] gets pattern i's dataset total.  Per tile, the
  /// lanes of `pool` first build the tile's columns, then claim slices; a
  /// stop from `run` returns with `out` unwritten (the caller reports the
  /// stop and discards the batch).  `scratch` holds one entry per lane.  Adds its
  /// tile and prefix-level counts to `stats` when non-null.
  void Walk(std::span<const Pattern> patterns, Measure measure,
            ThreadPool* pool, const RunContext* run,
            std::span<WalkScratch> scratch, double* out,
            BatchScoreStats* stats) const;

  /// Builds the walk plan of `patterns` and parks the scores that need
  /// no scan (-infinity for an unscorable NM pattern, 0 for an empty
  /// Match pattern) in `out`.
  void PlanWalk(std::span<const Pattern> patterns, Measure measure,
                double* out, WalkPlan* plan) const;

  /// Walks slice `slice` of `plan` over tile `tile`, whose columns are
  /// built, adding each candidate's per-trajectory terms to its running
  /// total in `plan->acc`.
  void WalkSlice(std::span<const Pattern> patterns, Measure measure,
                 size_t slice, size_t tile, WalkPlan* plan,
                 WalkScratch* scratch) const;

  /// The one scoring path: every entry point scores through it.
  std::vector<double> ScoreBatch(std::span<const Pattern> patterns,
                                 int num_threads, BatchScoreStats* stats,
                                 Measure measure,
                                 const RunContext* run) const;

  /// The pool of exactly `threads` workers (nullptr for one thread),
  /// built lazily and rebuilt when a call asks for another count, so a
  /// call never runs on more lanes than it asked for.
  ThreadPool* PoolFor(int threads) const;

  const TrajectoryDataset* data_;
  MiningSpace space_;
  /// offsets_[i] is the global index of trajectory i's first snapshot;
  /// offsets_.back() is the total snapshot count.
  std::vector<size_t> offsets_;
  /// All snapshots, flattened in trajectory order, as structure of
  /// arrays (mean x, mean y, sigma): the dense inputs the batched prob
  /// evaluations stream over.
  std::vector<double> px_, py_, sigma_;

  /// Factor id -> its vector of `stride_` doubles, null while cold: nx +
  /// ny ids under the rectangular model, num_cells + 1 under the radial
  /// one.  Warm-up fills a buffer completely before it publishes it here;
  /// batch workers only read.
  mutable std::vector<std::unique_ptr<double[]>> factors_;
  /// Number of resident factor vectors (== num_cached_cells()).  With a
  /// memory budget this can shrink (eviction); without one it only grows.
  mutable size_t num_resident_ = 0;
  /// High-water mark of resident plus in-flight vectors.
  mutable size_t peak_vectors_ = 0;
  /// Lifetime count of budget evictions (for stats/benches).
  mutable size_t cells_evicted_ = 0;
  /// Test hook simulating allocation failure (see setter).
  std::function<bool(size_t)> alloc_fault_hook_;
  /// Factor vector length: one double per flattened snapshot.
  size_t stride_ = 0;

  mutable std::unique_ptr<ThreadPool> pool_;
  /// The walk's tile-local columns, one per distinct cell of the chunk,
  /// rebuilt for every tile; grown to the largest walk's need and reused.
  /// Tiles are sized so that this stays within the tile budget unless a
  /// single trajectory alone is longer than a tile.  Scratch like the
  /// prefix levels, so not counted in `arena_peak_bytes()`.
  mutable std::unique_ptr<double[]> tile_columns_;
  mutable size_t tile_capacity_ = 0;
};

/// The first cell of `cells` that is neither a wildcard nor a cell of
/// `grid`; nullopt when every cell is one of them.  An engine has no
/// factor vectors for such a cell, so it scores the pattern as
/// unscorable.
std::optional<CellId> PatternCellOutsideGrid(std::span<const CellId> cells,
                                             const Grid& grid);

/// Joint log probability that the window starting at `begin` in `points`
/// is generated by `p` (Eq. 2); used by pattern-assisted prediction on
/// live windows.  Requires begin + |p| <= points.size().
double WindowLogMatch(const std::vector<TrajectoryPoint>& points, size_t begin,
                      const Pattern& p, const MiningSpace& space);

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_NM_ENGINE_H_
