#ifndef TRAJPATTERN_CORE_NM_ENGINE_H_
#define TRAJPATTERN_CORE_NM_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/mining_space.h"
#include "core/pattern.h"
#include "parallel/thread_pool.h"
#include "stats/mining_counters.h"
#include "storage/page_store.h"
#include "trajectory/trajectory.h"

namespace trajpattern {

/// Timing/accounting split of one batch-scoring call (the parallel hot
/// path of §4.4's complexity analysis): the serial-side cache warm-up
/// versus the multi-threaded candidate scoring.
struct BatchScoreStats {
  /// Seconds spent materializing missing cell columns before scoring.
  double warmup_seconds = 0.0;
  /// Seconds spent scoring candidates (parallel region).
  double scoring_seconds = 0.0;
  /// Cell columns newly cached by this call's warm-up (the incremental
  /// miss set: cells no earlier batch touched).
  size_t cells_warmed = 0;
  /// Warm-up requests satisfied by an already-resident column (the hit
  /// side of the incremental warm-up; wildcards excluded).
  size_t cells_hit = 0;
  /// Worker count the call actually ran with.
  int threads_used = 1;
  /// Arena columns shed (LRU) to keep the run under its memory budget.
  size_t cells_evicted = 0;
  /// Sub-batches the call was split into to fit the budget (1 == the
  /// whole batch ran as one chunk, the no-budget fast path).
  int chunks = 1;
  /// Dataset tiles the shared-prefix walk cut its chunks into, summed
  /// over chunks.
  int tiles = 0;
  /// Prefix window-sum levels the walk computed (one `simd::AddTo` pass
  /// over a tile each) and levels it took over from the previous
  /// candidate of its slice instead, both summed over tiles.  A level
  /// folds one more specified column into a sum of at least one; the
  /// first specified column is read in place and counts as neither.
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
/// never -0.0.  The engine caches one flat column per cell the first time
/// the cell is scored, so the cost of evaluating many candidate patterns
/// over the same few hundred live cells amortizes to array lookups.
/// Columns live in one contiguous arena (`arena_`), one slab of
/// `TotalPoints()` doubles per cell, found through a dense
/// CellId-indexed slot table — resolving a pattern position is a single
/// indexed load, not a hash probe.  The arena is never zero-filled: the
/// parallel warm-up is the first touch of its pages.  Trajectories
/// shorter than the pattern contribute the log floor to NM sums and 0 to
/// match sums (they cannot host a window).
///
/// Threading contract: the per-pattern entry points (`NmTotal`,
/// `MatchTotal`, `NmTotalWithGaps`) lazily fill the arena and therefore
/// must only be called from one thread at a time.  The batch entry points
/// (`NmTotalBatch`, `MatchTotalBatch`) pre-warm every column their
/// candidate set needs before any scoring worker starts — the warm-up
/// itself fans distinct cells out over the pool into disjoint slabs and
/// publishes the slot table serially (see `WarmCells`) — then fan the
/// scan out over the same pool; scoring workers only ever *read* the
/// arena.
///
/// Dataset totals (`NmTotal`, `MatchTotal` and the batch entry points;
/// one pattern is a batch of one) all run the shared-prefix tiled walk:
/// the candidates are sorted by cells, the dataset is cut into tiles of
/// whole trajectories small enough that the batch's columns restricted
/// to one tile stay in cache, and each tile's window sums are built once
/// per distinct prefix and shared by every candidate extending it.
/// Every level is the same left fold of the same columns, and every
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
/// defined for them.
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
  /// `ValidateScorable`.
  double NmTotal(const Pattern& p) const;

  /// Scores a whole candidate generation at once: out[i] == NmTotal(
  /// patterns[i]), bit-identical to the serial calls, computed on
  /// `num_threads` workers (0 = hardware concurrency, 1 = inline serial).
  /// Missing cell columns are warmed before any worker starts, which is
  /// what makes the scoring region read-only and race-free.
  ///
  /// `run` (optional) threads the run-control contract through the call:
  /// scoring workers poll its token/deadline before claiming each
  /// candidate, warm-up polls it between phases, and a non-zero
  /// `memory_budget_bytes` caps the column arena — the call splits the
  /// batch into chunks whose working sets fit the budget and sheds
  /// least-recently-used columns between chunks.  Chunk boundaries are a
  /// pure function of the pattern list and the budget, and every chunk
  /// uses the serial reduction order, so budgeted results stay
  /// bit-identical to unbudgeted ones.  On an early stop the call
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

  /// §5 gap semantics: NM where up to `max_gap` unmatched snapshots may be
  /// skipped between consecutive pattern positions (a gap behaves like a
  /// run of wildcards that does not count toward the length
  /// normalization).  Computed by dynamic programming per trajectory.
  double NmTotalWithGaps(const Pattern& p, int max_gap) const;

  /// Hit/miss split of one `WarmCells` call: every non-wildcard entry of
  /// the request either hit an already-resident (or already-staged,
  /// for in-request duplicates) column or missed and was materialized.
  struct WarmStats {
    size_t hits = 0;
    size_t misses = 0;
    /// Columns shed (LRU, excluding ones this request touched) to fit
    /// the run's memory budget.
    size_t evicted = 0;
    /// Of the misses, columns faulted back in from the attached column
    /// store (see `AttachColumnStore`) instead of being recomputed.
    size_t faulted = 0;
    /// Why the warm-up stopped early (`kNone` == it completed).  On a
    /// stop nothing half-filled is published: columns that finished
    /// before the stop are installed, the rest stay cold, and the
    /// return value counts only the published ones.
    StopReason stop = StopReason::kNone;
  };

  /// Materializes the log-prob columns of `cells` that are not cached
  /// yet.  Warm-up is parallel and incremental: the missing cells are
  /// deduplicated against the resident set (so per-batch calls warm only
  /// the delta), the arena is grown once, distinct columns are filled on
  /// distinct `num_threads` workers — each into its own pre-reserved
  /// slab, under the rectangular model from x/y-factored batched log
  /// factors — and a single serial, ordered publish step installs
  /// the new slots into the dense CellId->slot table.  Column contents
  /// depend only on (cell, dataset, space), so results are bit-identical
  /// for any thread count and any warm order.  Returns the number of
  /// columns added — 0, with the arena untouched, when every cell is
  /// already warm.  This is the batch API's warm-up step, exposed for
  /// callers that know their working set up front.  Not itself
  /// thread-safe: like the other lazy-warming entry points, callers
  /// serialize calls (the batch API does) and workers only read.
  /// `run` (optional) adds run control: the fill fan-out polls the
  /// context before each column, a memory budget evicts
  /// least-recently-used resident columns (never ones this request
  /// needs) before growing the arena, and arena growth failure — real
  /// `std::bad_alloc` or an injected fault — reports `kAllocFailed`
  /// instead of throwing.  Columns are pure functions of (cell,
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

  /// Number of pattern-vs-dataset scorings performed (for the benches).
  int64_t num_pattern_evaluations() const { return num_pattern_evaluations_; }
  /// Number of distinct cells with a cached log-prob column.
  size_t num_cached_cells() const { return num_slots_; }
  /// The cached log-prob column of `cell`, one entry per snapshot in
  /// trajectory order; empty when the cell is not cached.  Valid until the
  /// next call that warms or evicts a column.
  std::span<const double> ResidentColumn(CellId cell) const {
    if (!space_.grid.IsValid(cell)) return {};
    const int32_t slot = cell_slot_[static_cast<size_t>(cell)];
    if (slot < 0) return {};
    return {ColumnBase(slot), stride_};
  }

  /// Bytes of one cell column (the arena's allocation granularity).
  size_t column_bytes() const { return stride_ * sizeof(double); }
  /// Arena bytes backing currently resident columns.
  size_t arena_resident_bytes() const { return num_slots_ * column_bytes(); }
  /// Arena bytes allocated (resident + free-listed slabs awaiting
  /// reuse).  This is the number a memory budget bounds; it never
  /// exceeds a budget that was in force for the engine's whole life.
  size_t arena_allocated_bytes() const {
    return allocated_slots_ * column_bytes();
  }
  /// High-water mark of `arena_allocated_bytes()`.
  size_t arena_peak_bytes() const { return peak_slots_ * column_bytes(); }
  /// Columns shed by memory-budget eviction over the engine's life.
  size_t cells_evicted() const { return cells_evicted_; }

  /// Test hook: called with the would-be arena byte size before every
  /// growth; returning true simulates an allocation failure
  /// (`kAllocFailed`) without actually exhausting memory.
  void set_alloc_fault_hook(std::function<bool(size_t)> hook) {
    alloc_fault_hook_ = std::move(hook);
  }

  /// Attaches an out-of-core backing store for evicted columns (nullptr
  /// detaches).  With a store attached, the PR 7 eviction path becomes
  /// "spill + free" instead of "free": a column evicted for the first
  /// time is serialized (hexfloat, bit-exact round-trip) into one store
  /// record, and a later warm-up of the same cell faults the record back
  /// in through the store's buffer pool instead of recomputing the
  /// column.  Columns are pure functions of (cell, dataset, space) and
  /// the codec round-trips every IEEE double bit-exactly, so scores are
  /// bit-identical with or without a store — spill I/O failures
  /// self-heal by recomputation.  The store must outlive the engine (or
  /// a detach) and is used only from the serial warm-up phase.
  void AttachColumnStore(storage::PageStore* store);
  /// Columns spilled to / faulted in from the attached store (lifetime).
  size_t columns_spilled() const { return columns_spilled_; }
  size_t columns_faulted() const { return columns_faulted_; }

 private:
  /// Frees a `DoubleBuffer`: unmaps the `mapped` bytes at it, or, when
  /// `mapped` is 0, returns it to `operator delete`.
  struct FreeDoubles {
    size_t mapped;
    void operator()(double* p) const noexcept;
  };
  /// Owning buffer of doubles that is never zero-filled: its pages are
  /// first touched by whoever first writes them.
  using DoubleBuffer = std::unique_ptr<double[], FreeDoubles>;

  /// `count` uninitialized doubles, the length not rounded up.  Where the
  /// platform has `MADV_HUGEPAGE`, a buffer of at least one huge page
  /// (2 MiB) is a private mapping aligned to one, with the advice on its
  /// whole huge pages; unmapping the buffer ends the advice, so it never
  /// lingers on heap memory.  A smaller buffer, which cannot hold a whole
  /// huge page, comes from `operator new`.  Throws `std::bad_alloc`.
  static DoubleBuffer AllocateDoubles(size_t count);

  /// Scratch of one column materialization (per warm-up worker): the 1-D
  /// probability factors of the rectangular model, or the center
  /// distances of the radial one.
  struct ColumnScratch {
    std::vector<double> fa;
    std::vector<double> fb;
  };

  /// Which dataset aggregate a scan computes.
  enum class Measure { kNm, kMatch };

  /// Per-lane state of the shared-prefix walk, reused across calls: the
  /// tile-local prefix window-sum buffers (one per pattern position),
  /// and per position the base pointer of that prefix's sums (nullptr
  /// while no specified column has been folded in), the cell it was
  /// built for, and whether it is a computed level.
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

  /// Writes the log-prob column for `cell` into `out[0, TotalPoints())`,
  /// column-at-a-time through the batched prob entry points
  /// (`LogNormalIntervalProbBatch` / `RadialWithinProbBatch`) instead of
  /// point-at-a-time.  `scratch` is caller-owned so parallel warm-up
  /// workers each bring their own.
  void ComputeColumnInto(CellId cell, double* out,
                         ColumnScratch* scratch) const;

  /// Fills the slabs [base, base + missing.size()) of the pre-grown
  /// arena with the columns of `missing` under the rectangular model,
  /// factored: the column of cell (cx, cy) is AddLogFactors(log Px,
  /// log Py) where Px depends only on the grid column and Py only on the
  /// grid row, so the floored 1-D log factors (the erfc- and log-bound
  /// part) are computed once per distinct grid column/row in the batch
  /// and shared by every cell in it.  Factor passes and per-cell
  /// add-and-max passes each fan out over `pool`; each output depends
  /// only on its own inputs, so the result is bit-identical at any thread
  /// count — and to the unfactored `ComputeColumnInto` path, which adds
  /// the exact same doubles.
  /// `slots[i]` is the (pre-reserved, possibly non-contiguous) arena
  /// slot for `missing[i]`.  With a non-null `run`, both fan-outs poll
  /// it and `done[i]` records whether cell i's column was fully
  /// computed (its grid-column factor, grid-row factor, and product
  /// pass all completed); without `run`, every column completes.
  void WarmRectangularFactored(const std::vector<CellId>& missing,
                               const std::vector<int32_t>& slots,
                               ThreadPool* pool, const RunContext* run,
                               std::vector<char>* done) const;

  /// Slot of `cell`'s column, materializing it on miss (may grow the
  /// arena and therefore invalidate previously resolved base pointers —
  /// serial paths only, and never between resolve and use).
  int32_t EnsureColumn(CellId cell) const;

  /// Base pointer of the column in `slot`.
  double* ColumnBase(int32_t slot) const {
    return arena_.get() + static_cast<size_t>(slot) * stride_;
  }

  /// Resolves each position of `p` to its column base pointer in
  /// `cols` (nullptr for wildcards, log 1), computing missing columns
  /// first — all of them, before any pointer is taken, so arena growth
  /// cannot dangle a sibling position.
  void ResolveColumns(const Pattern& p,
                      std::vector<const double*>* cols) const;

  /// `NmTotal`/`MatchTotal`: warms the pattern's columns, then scores it
  /// as a walk of one.
  double TotalOne(const Pattern& p, Measure measure) const;

  /// Shared-prefix tiled walk of `patterns`, whose columns must all be
  /// resident: out[i] gets pattern i's dataset total.  The lanes of
  /// `pool` claim slices one tile at a time; a stop from `run` between
  /// tiles returns with `out` unwritten (the caller reports the stop and
  /// discards the batch).  `scratch` holds one entry per lane.  Adds its
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

  /// Walks slice `slice` of `plan` over tile `tile`, adding each
  /// candidate's per-trajectory terms to its running total in
  /// `plan->acc`.
  void WalkSlice(std::span<const Pattern> patterns, Measure measure,
                 size_t slice, size_t tile, WalkPlan* plan,
                 WalkScratch* scratch) const;

  /// Shared fan-out of the two batch entry points.
  std::vector<double> ScoreBatch(const std::vector<Pattern>& patterns,
                                 int num_threads, BatchScoreStats* stats,
                                 Measure measure,
                                 const RunContext* run) const;

  /// Reads `cell`'s spilled column from the attached store into `out`
  /// (a pre-reserved slab).  False — caller recomputes — when the cell
  /// was never spilled or the read/decode fails.
  bool FaultColumnIn(CellId cell, double* out) const;

  /// Spills the resident column of (`cell`, `slot`) to the attached
  /// store, once per cell; no-op if already spilled or on I/O failure.
  void SpillColumn(CellId cell, int32_t slot) const;

  /// Evicts up to `count` resident columns, least-recently-used first
  /// (ties broken by CellId for determinism), skipping columns stamped
  /// with the in-progress request's `protect_tick`.  Freed slabs go to
  /// `free_slots_` for reuse.  Returns how many were evicted.
  size_t EvictLruSlots(size_t count, uint64_t protect_tick) const;

  /// Grows the arena to hold `new_alloc` slots (plus the slot-side
  /// bookkeeping), copying the resident slabs into the new buffer.
  /// Returns false — leaving the arena untouched — on `std::bad_alloc` or
  /// when the alloc fault hook injects a failure.
  bool GrowArena(size_t new_alloc) const;

  /// The lazily built pool reused by batch calls; grown when a call asks
  /// for more workers than it has.  nullptr until the first parallel call.
  ThreadPool* PoolFor(int threads) const;

  const TrajectoryDataset* data_;
  MiningSpace space_;
  /// offsets_[i] is the global index of trajectory i's first snapshot;
  /// offsets_.back() is the total snapshot count.
  std::vector<size_t> offsets_;
  /// All snapshots, flattened in trajectory order.
  std::vector<TrajectoryPoint> flat_points_;
  /// Structure-of-arrays view of `flat_points_` (means and sigmas), the
  /// dense inputs the batched prob evaluations stream over.
  std::vector<double> px_, py_, sigma_;

  /// Column arena of `allocated_slots_ * stride_` doubles: slot s holds
  /// the column of one cell in [s*stride_, (s+1)*stride_), stride_ ==
  /// flat_points_.size().  Warm-up appends slabs (reusing free-listed
  /// ones first); batch workers only read.  Only resident slabs are ever
  /// read: a slab is fully written before it is published, and a free
  /// one holds no column.
  mutable DoubleBuffer arena_;
  /// Dense CellId -> arena slot map (-1 == not materialized), sized to
  /// the grid; replaces the hash probe of the old unordered_map cache.
  mutable std::vector<int32_t> cell_slot_;
  /// Number of resident columns (== num_cached_cells()).  With a memory
  /// budget this can shrink (eviction); without one it only grows.
  mutable size_t num_slots_ = 0;
  /// Slots the arena is sized for (resident + free-listed).
  mutable size_t allocated_slots_ = 0;
  /// High-water mark of `allocated_slots_`.
  mutable size_t peak_slots_ = 0;
  /// Slabs freed by eviction (or unpublished after a stop), reused
  /// before the arena grows again.
  mutable std::vector<int32_t> free_slots_;
  /// Reverse map: slot -> resident cell (-1 for free slots); sized with
  /// the arena.  Lets eviction clear `cell_slot_` without a grid scan.
  mutable std::vector<CellId> slot_cell_;
  /// Per-slot LRU stamp: the `warm_tick_` of the last request that
  /// touched the slot (hit or publish).  Eviction drops the smallest
  /// stamps first, so a budgeted run sheds the cells the frontier left
  /// behind.
  mutable std::vector<uint64_t> slot_last_use_;
  /// Monotone request counter driving `slot_last_use_`.
  mutable uint64_t warm_tick_ = 0;
  /// Lifetime count of budget evictions (for stats/benches).
  mutable size_t cells_evicted_ = 0;
  /// Out-of-core column backing (nullptr = evictions discard, the
  /// RAM-only behavior).  See `AttachColumnStore`.
  storage::PageStore* column_store_ = nullptr;
  /// Dense CellId -> store record of the cell's spilled column
  /// (`storage::kNewRecord` = never spilled).  Spills are write-once:
  /// the column never changes, so the record never rewrites.
  mutable std::vector<storage::RecordId> cell_record_;
  mutable size_t columns_spilled_ = 0;
  mutable size_t columns_faulted_ = 0;
  /// Test hook simulating arena allocation failure (see setter).
  std::function<bool(size_t)> alloc_fault_hook_;
  /// Column length: one double per flattened snapshot.
  size_t stride_ = 0;

  mutable int64_t num_pattern_evaluations_ = 0;
  mutable std::unique_ptr<ThreadPool> pool_;
  /// Column scratch of the serial lazy-warming paths (`EnsureColumn`);
  /// parallel warm-up workers use per-worker instances instead.
  mutable ColumnScratch column_scratch_;
  /// Walk scratch of the serial totals (`NmTotal`, `MatchTotal`).
  mutable WalkScratch walk_scratch_;
};

/// Joint log probability that the window starting at `begin` in `points`
/// is generated by `p` (Eq. 2); used by pattern-assisted prediction on
/// live windows.  Requires begin + |p| <= points.size().
double WindowLogMatch(const std::vector<TrajectoryPoint>& points, size_t begin,
                      const Pattern& p, const MiningSpace& space);

/// §5 gap post-pass: re-scores `patterns` with `NmTotalWithGaps` (up to
/// `max_gap` skipped snapshots between consecutive positions) and returns
/// them re-ranked by the gapped NM.  Gaps relax the contiguity
/// requirement, so no pattern's score decreases.
std::vector<ScoredPattern> RerankWithGaps(const NmEngine& engine,
                                          std::vector<ScoredPattern> patterns,
                                          int max_gap);

}  // namespace trajpattern

#endif  // TRAJPATTERN_CORE_NM_ENGINE_H_
