#include "core/nm_engine.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <new>
#include <unordered_set>
#include <utility>

#include "core/simd_kernels.h"
#include "obs/obs.h"
#include "prob/log_space.h"
#include "prob/normal.h"
#include "stats/timer.h"
#include "storage/column_codec.h"

namespace trajpattern {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// `cell_slot_` sentinels: not materialized, and staged-by-this-warm-up
/// (a dedup marker that never survives a WarmCells call).
constexpr int32_t kNoSlot = -1;
constexpr int32_t kStagedSlot = -2;

/// Cache budget of one walk tile: the batch's distinct columns restricted
/// to a tile fit in it.  One core's L2 on the 4-core x86-64 VM the walk
/// was measured on, where 1-4 MiB scanned alike and 0.5 MiB was slower
/// (per-tile costs); a constant, so the plan never depends on the host.
constexpr size_t kTileBytes = size_t{2} << 20;

/// Most candidates one walk slice holds, so that a large first-cell
/// group still spreads over the lanes.
constexpr size_t kSliceCandidates = 64;

}  // namespace

NmEngine::NmEngine(const TrajectoryDataset& data, const MiningSpace& space)
    : data_(&data), space_(space) {
  offsets_.reserve(data.size() + 1);
  flat_points_.reserve(data.TotalPoints());
  size_t off = 0;
  for (const auto& t : data) {
    offsets_.push_back(off);
    for (const auto& p : t) flat_points_.push_back(p);
    off += t.size();
  }
  offsets_.push_back(off);
  stride_ = flat_points_.size();
  px_.reserve(stride_);
  py_.reserve(stride_);
  sigma_.reserve(stride_);
  for (const auto& p : flat_points_) {
    px_.push_back(p.mean.x);
    py_.push_back(p.mean.y);
    sigma_.push_back(p.sigma);
  }
  cell_slot_.assign(static_cast<size_t>(space_.grid.num_cells()), kNoSlot);
}

NmEngine::~NmEngine() = default;

void NmEngine::AttachColumnStore(storage::PageStore* store) {
  column_store_ = store;
  // Spill records are only meaningful against the store they live in:
  // attach (or detach) resets the map.
  cell_record_.assign(store == nullptr ? 0 : cell_slot_.size(),
                      storage::kNewRecord);
}

/// Reads `cell`'s spilled column (if any) from the store into `out`.
/// Any failure — missing record, torn page, bad encoding — degrades to
/// "not spilled": the caller recomputes and the result stays bit-exact.
bool NmEngine::FaultColumnIn(CellId cell, double* out) const {
  const storage::RecordId rec = cell_record_[static_cast<size_t>(cell)];
  if (rec < 0) return false;
  StatusOr<std::string> data = column_store_->ReadRecord(rec);
  if (!data.ok() ||
      !storage::DecodeColumn(data.value(), out, stride_).ok()) {
    return false;
  }
  ++columns_faulted_;
  TP_COUNTER_INC("storage.columns_faulted");
  return true;
}

/// Write-once spill of the resident column in `slot`: serializes the
/// slab and records the store record id.  Failures are silently dropped
/// (the column recomputes on its next touch).
void NmEngine::SpillColumn(CellId cell, int32_t slot) const {
  if (cell_record_[static_cast<size_t>(cell)] != storage::kNewRecord) {
    return;  // already spilled; the bits on disk are identical
  }
  const std::string encoded =
      storage::EncodeColumn(ColumnBase(slot), stride_);
  StatusOr<storage::RecordId> rec =
      column_store_->WriteRecord(storage::kNewRecord, encoded);
  if (!rec.ok()) return;
  cell_record_[static_cast<size_t>(cell)] = rec.value();
  ++columns_spilled_;
  TP_COUNTER_INC("storage.columns_spilled");
}

Status NmEngine::ValidateScorable(const Pattern& p) {
  if (p.empty()) {
    return Status::InvalidArgument("empty pattern cannot be scored");
  }
  if (p.SpecifiedCount() == 0) {
    return Status::InvalidArgument(
        "all-wildcard pattern has no specified positions; the NM "
        "normalization (best window sum / specified count) is undefined");
  }
  return Status::Ok();
}

void NmEngine::ComputeColumnInto(CellId cell, double* out,
                                 ColumnScratch* scratch) const {
  const size_t n = stride_;
  const Point2 center = space_.grid.CenterOf(cell);
  if (space_.model == IndifferenceModel::kRectangular) {
    // Prob factors into independent x and y interval probabilities; each
    // batched pass streams the SoA coordinate arrays.  The factors are
    // the same doubles ProbWithinDelta multiplies, in the same order, so
    // the column is bit-identical to the point-at-a-time path.
    auto& fa = scratch->fa;
    auto& fb = scratch->fb;
    if (fa.size() < n) fa.resize(n);
    if (fb.size() < n) fb.resize(n);
    NormalIntervalProbBatch(px_.data(), sigma_.data(), center.x - space_.delta,
                            center.x + space_.delta, fa.data(), n);
    NormalIntervalProbBatch(py_.data(), sigma_.data(), center.y - space_.delta,
                            center.y + space_.delta, fb.data(), n);
    for (size_t g = 0; g < n; ++g) out[g] = SafeLog(fa[g] * fb[g]);
    return;
  }
  // Radial model: one cheap distance pass, then the batched Rice-CDF
  // quadrature, then the log in place.
  auto& dist = scratch->fa;
  if (dist.size() < n) dist.resize(n);
  for (size_t g = 0; g < n; ++g) {
    dist[g] = Distance(flat_points_[g].mean, center);
  }
  RadialWithinProbBatch(dist.data(), sigma_.data(), space_.delta, out, n);
  for (size_t g = 0; g < n; ++g) out[g] = SafeLog(out[g]);
}

bool NmEngine::GrowArena(size_t new_alloc) const {
  if (new_alloc <= allocated_slots_) return true;
  if (alloc_fault_hook_ &&
      alloc_fault_hook_(new_alloc * stride_ * sizeof(double))) {
    return false;
  }
  try {
    arena_.resize(new_alloc * stride_);
    slot_cell_.resize(new_alloc, kWildcardCell);
    slot_last_use_.resize(new_alloc, 0);
  } catch (const std::bad_alloc&) {
    return false;
  }
  allocated_slots_ = new_alloc;
  peak_slots_ = std::max(peak_slots_, allocated_slots_);
  return true;
}

size_t NmEngine::EvictLruSlots(size_t count, uint64_t protect_tick) const {
  if (count == 0 || num_slots_ == 0) return 0;
  // (stamp, cell) of every evictable resident slot; sorting gives
  // LRU-first with a CellId tiebreak, so the victim set is a pure
  // function of the request history — independent of thread count.
  std::vector<std::pair<uint64_t, CellId>> order;
  order.reserve(num_slots_);
  for (size_t s = 0; s < allocated_slots_; ++s) {
    const CellId c = slot_cell_[s];
    if (c == kWildcardCell) continue;                 // free slab
    if (slot_last_use_[s] == protect_tick) continue;  // current request
    order.emplace_back(slot_last_use_[s], c);
  }
  std::sort(order.begin(), order.end());
  const size_t n = std::min(count, order.size());
  for (size_t i = 0; i < n; ++i) {
    const CellId c = order[i].second;
    const int32_t slot = cell_slot_[static_cast<size_t>(c)];
    // With a column store attached, eviction is "spill + free" instead
    // of "free": the slab's bits land in the store before the slot is
    // recycled, so a later warm-up faults them back in instead of
    // recomputing.
    if (column_store_ != nullptr) SpillColumn(c, slot);
    cell_slot_[static_cast<size_t>(c)] = kNoSlot;
    slot_cell_[static_cast<size_t>(slot)] = kWildcardCell;
    free_slots_.push_back(slot);
    --num_slots_;
    ++cells_evicted_;
  }
  TP_COUNTER_ADD("nm.cells_evicted", n);
  return n;
}

int32_t NmEngine::EnsureColumn(CellId cell) const {
  assert(space_.grid.IsValid(cell));
  int32_t slot = cell_slot_[static_cast<size_t>(cell)];
  if (slot >= 0) {
    slot_last_use_[static_cast<size_t>(slot)] = ++warm_tick_;
    return slot;
  }
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    // Serial lazy path has no Status channel; a growth failure (real or
    // injected) surfaces as bad_alloc for the caller/supervisor.
    if (!GrowArena(allocated_slots_ + 1)) throw std::bad_alloc();
    slot = static_cast<int32_t>(allocated_slots_ - 1);
  }
  double* out = arena_.data() + static_cast<size_t>(slot) * stride_;
  if (column_store_ == nullptr || !FaultColumnIn(cell, out)) {
    ComputeColumnInto(cell, out, &column_scratch_);
  }
  cell_slot_[static_cast<size_t>(cell)] = slot;
  slot_cell_[static_cast<size_t>(slot)] = cell;
  slot_last_use_[static_cast<size_t>(slot)] = ++warm_tick_;
  ++num_slots_;
  return slot;
}

void NmEngine::ResolveColumns(const Pattern& p,
                              std::vector<const double*>* cols) const {
  // Materialize every missing column BEFORE taking any base pointer:
  // arena growth reallocates, which would dangle a sibling position
  // resolved earlier in the same pattern.
  for (const CellId c : p.cells()) {
    if (c != kWildcardCell) EnsureColumn(c);
  }
  cols->clear();
  for (const CellId c : p.cells()) {
    cols->push_back(c == kWildcardCell
                        ? nullptr
                        : ColumnBase(cell_slot_[static_cast<size_t>(c)]));
  }
}

double NmEngine::TotalOne(const Pattern& p, Measure measure) const {
  ++num_pattern_evaluations_;
  // Fill any missing columns while still serial, then walk the batch of
  // one with the read-only code the batch path runs.
  for (CellId c : p.cells()) {
    if (c != kWildcardCell) EnsureColumn(c);
  }
  double out = 0.0;
  Walk(std::span<const Pattern>(&p, 1), measure, nullptr, nullptr,
       std::span<WalkScratch>(&walk_scratch_, 1), &out, nullptr);
  return out;
}

double NmEngine::NmTotal(const Pattern& p) const {
  return TotalOne(p, Measure::kNm);
}

double NmEngine::MatchTotal(const Pattern& p) const {
  return TotalOne(p, Measure::kMatch);
}

struct NmEngine::WalkPlan {
  /// Batch indices of the walked candidates, sorted by cells (ties by
  /// index), and per walk position k the candidate's column base
  /// pointers (nullptr for a wildcard) at [col_begin[k], col_begin[k+1]).
  std::vector<size_t> order;
  std::vector<const double*> cols;
  std::vector<size_t> col_begin;
  /// Running dataset total per walk position.
  std::vector<double> acc;
  /// Tile t covers trajectories [tiles[t], tiles[t + 1]); its longest
  /// trajectory has tile_max_len[t] snapshots.
  std::vector<size_t> tiles;
  std::vector<size_t> tile_max_len;
  /// Walk-position ranges [first, second) the lanes claim: candidates
  /// sharing their first cell, at most kSliceCandidates of them.
  std::vector<std::pair<size_t, size_t>> slices;
  /// Doubles per prefix level buffer: the largest tile's snapshot count.
  size_t level_stride = 0;
  size_t max_length = 0;
};

void NmEngine::PlanWalk(std::span<const Pattern> patterns, Measure measure,
                        double* out, WalkPlan* plan) const {
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern& p = patterns[i];
    if (measure == Measure::kNm && p.SpecifiedCount() == 0) {
      out[i] = kNegInf;  // see ValidateScorable
    } else if (p.empty()) {
      out[i] = 0.0;  // Match: no window can exist
    } else {
      plan->order.push_back(i);
    }
  }
  // Sorted by cells, candidates sharing a prefix are neighbors.
  std::sort(plan->order.begin(), plan->order.end(), [&](size_t a, size_t b) {
    const auto cmp = patterns[a].cells() <=> patterns[b].cells();
    return cmp != 0 ? cmp < 0 : a < b;
  });

  // Resolve every column once, counting the distinct ones.
  std::vector<char> seen(allocated_slots_, 0);
  size_t distinct = 0;
  plan->col_begin.reserve(plan->order.size() + 1);
  for (const size_t i : plan->order) {
    const Pattern& p = patterns[i];
    plan->col_begin.push_back(plan->cols.size());
    plan->max_length = std::max(plan->max_length, p.length());
    for (const CellId c : p.cells()) {
      if (c == kWildcardCell) {
        plan->cols.push_back(nullptr);
        continue;
      }
      const int32_t slot = cell_slot_[static_cast<size_t>(c)];
      assert(slot >= 0);  // the walk only reads warm columns
      plan->cols.push_back(ColumnBase(slot));
      if (!seen[static_cast<size_t>(slot)]) {
        seen[static_cast<size_t>(slot)] = 1;
        ++distinct;
      }
    }
  }
  plan->col_begin.push_back(plan->cols.size());
  plan->acc.assign(plan->order.size(), 0.0);

  // Tiles of whole trajectories, each as long as keeps the distinct
  // columns restricted to it within kTileBytes (one trajectory at least).
  const size_t tile_points = std::max<size_t>(
      1, kTileBytes / (std::max<size_t>(distinct, 1) * sizeof(double)));
  const size_t n = data_->size();
  plan->tiles.push_back(0);
  size_t longest = 0;
  for (size_t i = 0; i < n; ++i) {
    longest = std::max(longest, offsets_[i + 1] - offsets_[i]);
    const size_t begin = plan->tiles.back();
    if (i + 1 == n || offsets_[i + 2] - offsets_[begin] > tile_points) {
      plan->tiles.push_back(i + 1);
      plan->tile_max_len.push_back(longest);
      plan->level_stride =
          std::max(plan->level_stride, offsets_[i + 1] - offsets_[begin]);
      longest = 0;
    }
  }

  // Slices: runs of one first cell, longest first so that the last slice
  // a lane claims in a tile is a short one.
  for (size_t k = 0; k < plan->order.size();) {
    const CellId first = patterns[plan->order[k]][0];
    size_t end = k + 1;
    while (end < plan->order.size() && end - k < kSliceCandidates &&
           patterns[plan->order[end]][0] == first) {
      ++end;
    }
    plan->slices.emplace_back(k, end);
    k = end;
  }
  std::stable_sort(plan->slices.begin(), plan->slices.end(),
                   [](const auto& a, const auto& b) {
                     return a.second - a.first > b.second - b.first;
                   });
}

void NmEngine::WalkSlice(std::span<const Pattern> patterns, Measure measure,
                         size_t slice, size_t tile, WalkPlan* plan,
                         WalkScratch* ws) const {
  const size_t ta = plan->tiles[tile];
  const size_t te = plan->tiles[tile + 1];
  const size_t p0 = offsets_[ta];
  const size_t tile_points = offsets_[te] - p0;
  const bool nm = measure == Measure::kNm;
  // Stack positions [0, depth) hold the prefix sums of ws->cells.
  size_t depth = 0;
  for (size_t k = plan->slices[slice].first; k < plan->slices[slice].second;
       ++k) {
    const Pattern& p = patterns[plan->order[k]];
    const size_t m = p.length();
    const double* const* cols = plan->cols.data() + plan->col_begin[k];
    size_t last = m;  // last specified position, m if none
    for (size_t j = m; j-- > 0;) {
      if (p[j] != kWildcardCell) {
        last = j;
        break;
      }
    }
    // Window sums of positions [0, last): keep the longest prefix the
    // stack already holds and fold the remaining positions in one at a
    // time, in ascending j like a window-major sum.  A pattern no
    // trajectory of the tile can host needs no sums at all.
    if (m <= plan->tile_max_len[tile]) {
      size_t keep = 0;
      while (keep < std::min(depth, last) && ws->cells[keep] == p[keep]) {
        ws->reused += ws->computed[keep];
        ++keep;
      }
      for (size_t j = keep; j < last; ++j) {
        const double* below = j == 0 ? nullptr : ws->sums[j - 1];
        ws->cells[j] = p[j];
        ws->computed[j] = 0;
        if (p[j] == kWildcardCell) {
          ws->sums[j] = below;
        } else if (below == nullptr) {
          // The first specified column is its own prefix sum (0.0 + x ==
          // x; columns never hold -0.0): read it in place.
          ws->sums[j] = cols[j] + j + p0;
        } else {
          double* level = ws->levels.data() + j * plan->level_stride;
          simd::AddTo(level, below, cols[j] + j + p0, tile_points - j);
          ws->sums[j] = level;
          ws->computed[j] = 1;
          ++ws->built;
        }
      }
      if (keep < last) depth = last;
    }
    const double* sums = last == 0 || last == m ? nullptr : ws->sums[last - 1];
    const double spec = static_cast<double>(p.SpecifiedCount());
    double total = plan->acc[k];
    for (size_t i = ta; i < te; ++i) {
      const size_t off = offsets_[i];
      const size_t len = offsets_[i + 1] - off;
      if (len < m) {
        if (nm) total += LogFloor();
      } else if (last == m) {
        total += 1.0;  // all-wildcard Match: every window is exp(0)
      } else {
        // The last specified column is fused into the max scan.
        const double best =
            simd::FusedMaxSum(sums == nullptr ? nullptr : sums + (off - p0),
                              cols[last] + off + last, len - m + 1);
        total += nm ? best / spec : std::exp(best);
      }
    }
    plan->acc[k] = total;
  }
}

void NmEngine::Walk(std::span<const Pattern> patterns, Measure measure,
                    ThreadPool* pool, const RunContext* run,
                    std::span<WalkScratch> scratch, double* out,
                    BatchScoreStats* stats) const {
  WalkPlan plan;
  PlanWalk(patterns, measure, out, &plan);
  for (WalkScratch& ws : scratch) {
    const size_t level_doubles = plan.max_length * plan.level_stride;
    if (ws.levels.size() < level_doubles) ws.levels.resize(level_doubles);
    if (ws.sums.size() < plan.max_length) {
      ws.sums.resize(plan.max_length);
      ws.cells.resize(plan.max_length);
      ws.computed.resize(plan.max_length);
    }
    ws.built = 0;
    ws.reused = 0;
  }
  // Tile-major: every slice finishes a tile before any starts the next,
  // so the tile's columns serve the whole batch from cache and each
  // running total grows in ascending trajectory order.
  const size_t num_tiles = plan.tiles.size() - 1;
  for (size_t t = 0; t < num_tiles; ++t) {
    ParallelFor(
        pool, plan.slices.size(),
        [&](size_t s, int worker) {
          WalkSlice(patterns, measure, s, t, &plan,
                    &scratch[static_cast<size_t>(worker)]);
        },
        run);
    if (run != nullptr && run->StopRequested()) return;
  }
  for (size_t k = 0; k < plan.order.size(); ++k) {
    out[plan.order[k]] = plan.acc[k];
  }
  int64_t built = 0, reused = 0;
  for (const WalkScratch& ws : scratch) {
    built += ws.built;
    reused += ws.reused;
  }
  TP_COUNTER_ADD("nm.prefix_levels_built", built);
  TP_COUNTER_ADD("nm.prefix_levels_reused", reused);
  if (stats != nullptr) {
    stats->tiles += static_cast<int>(num_tiles);
    stats->prefix_levels_built += built;
    stats->prefix_levels_reused += reused;
  }
}

ThreadPool* NmEngine::PoolFor(int threads) const {
  if (threads <= 1) return nullptr;
  if (pool_ == nullptr || pool_->size() < threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

void NmEngine::WarmRectangularFactored(const std::vector<CellId>& missing,
                                       const std::vector<int32_t>& slots,
                                       ThreadPool* pool, const RunContext* run,
                                       std::vector<char>* done) const {
  const Grid& grid = space_.grid;
  const double delta = space_.delta;
  // First-seen-order dedup of the grid columns/rows the batch touches;
  // dense maps because nx/ny are small next to the dataset.
  std::vector<int32_t> col_slot(static_cast<size_t>(grid.nx()), -1);
  std::vector<int32_t> row_slot(static_cast<size_t>(grid.ny()), -1);
  std::vector<int> cols, rows;
  for (CellId c : missing) {
    const int col = grid.ColumnOf(c);
    const int row = grid.RowOf(c);
    if (col_slot[static_cast<size_t>(col)] < 0) {
      col_slot[static_cast<size_t>(col)] = static_cast<int32_t>(cols.size());
      cols.push_back(col);
    }
    if (row_slot[static_cast<size_t>(row)] < 0) {
      row_slot[static_cast<size_t>(row)] = static_cast<int32_t>(rows.size());
      rows.push_back(row);
    }
  }
  // Phase 1: one batched 1-D interval-probability pass per distinct grid
  // column/row.  `CenterOf` derives center.x purely from the column
  // index and center.y purely from the row index, so every cell sharing
  // a grid column shares these doubles bit-for-bit — this is where the
  // erfc-bound cost collapses from O(cells) to O(cols + rows) passes.
  std::vector<double> fx(cols.size() * stride_);
  std::vector<double> fy(rows.size() * stride_);
  // Under run control a factor pass can be skipped mid-batch; a cell's
  // column is complete only if its grid-column factor, grid-row factor,
  // AND product pass all ran, so factor completion is tracked too.
  std::vector<char> part_done(run != nullptr ? cols.size() + rows.size() : 0,
                              0);
  ParallelFor(
      pool, cols.size() + rows.size(),
      [&](size_t i, int) {
        if (i < cols.size()) {
          const double cx = grid.CenterOf(grid.At(cols[i], 0)).x;
          NormalIntervalProbBatch(px_.data(), sigma_.data(), cx - delta,
                                  cx + delta, fx.data() + i * stride_, stride_);
        } else {
          const size_t r = i - cols.size();
          const double cy = grid.CenterOf(grid.At(0, rows[r])).y;
          NormalIntervalProbBatch(py_.data(), sigma_.data(), cy - delta,
                                  cy + delta, fy.data() + r * stride_, stride_);
        }
        if (run != nullptr) part_done[i] = 1;
      },
      run);
  // Phase 2: per-cell product + log into the cell's own slab.  Multiplies
  // the exact same doubles `ProbWithinDelta` would, so the columns are
  // bit-identical to the unfactored path for any thread count and order.
  ParallelFor(
      pool, missing.size(),
      [&](size_t i, int) {
        const CellId c = missing[i];
        const size_t ci =
            static_cast<size_t>(col_slot[static_cast<size_t>(grid.ColumnOf(c))]);
        const size_t ri =
            static_cast<size_t>(row_slot[static_cast<size_t>(grid.RowOf(c))]);
        if (run != nullptr &&
            (!part_done[ci] || !part_done[cols.size() + ri])) {
          return;  // a factor was skipped by the stop: leave the cell cold
        }
        const double* px = fx.data() + ci * stride_;
        const double* py = fy.data() + ri * stride_;
        double* out =
            arena_.data() + static_cast<size_t>(slots[i]) * stride_;
        for (size_t g = 0; g < stride_; ++g) out[g] = SafeLog(px[g] * py[g]);
        if (done != nullptr) (*done)[i] = 1;
      },
      run);
}

size_t NmEngine::WarmCells(const std::vector<CellId>& cells, int num_threads,
                           WarmStats* stats, const RunContext* run) const {
  WarmStats ws;
  // One LRU tick per request, stamped on every slot the request touches
  // (hits now, publishes below), so budget eviction can tell "needed by
  // the in-flight request" apart from "left behind by earlier ones".
  const uint64_t tick = ++warm_tick_;
  std::vector<CellId> missing;
  for (CellId c : cells) {
    if (c == kWildcardCell) continue;
    assert(space_.grid.IsValid(c));
    int32_t& slot = cell_slot_[static_cast<size_t>(c)];
    if (slot != kNoSlot) {  // materialized, or staged just below
      if (slot >= 0) slot_last_use_[static_cast<size_t>(slot)] = tick;
      ++ws.hits;
      continue;
    }
    slot = kStagedSlot;
    missing.push_back(c);
  }
  ws.misses = missing.size();
  if (missing.empty()) {
    if (stats != nullptr) *stats = ws;
    return 0;
  }
  // Early-out path: revert the staging marks (nothing was published).
  const auto bail = [&](StopReason why) -> size_t {
    for (CellId c : missing) cell_slot_[static_cast<size_t>(c)] = kNoSlot;
    ws.stop = why;
    if (stats != nullptr) *stats = ws;
    return 0;
  };

  // Memory budget: the resident set after this request must fit.  Shed
  // LRU columns first — never ones this request just hit, they carry the
  // current tick — and give up only if the request alone overflows.
  if (run != nullptr && run->memory_budget_bytes > 0 && stride_ > 0) {
    const size_t budget_slots =
        static_cast<size_t>(run->memory_budget_bytes / column_bytes());
    if (num_slots_ + missing.size() > budget_slots) {
      ws.evicted =
          EvictLruSlots(num_slots_ + missing.size() - budget_slots, tick);
      if (num_slots_ + missing.size() > budget_slots) {
        return bail(StopReason::kMemoryBudgetExceeded);
      }
    }
  }
  if (run != nullptr) {
    const StopReason sr = run->CheckStop();
    if (sr != StopReason::kNone) return bail(sr);
  }

  // Slot assignment: free-listed slabs first, then the arena is grown
  // once, serially, so the workers below write into disjoint
  // pre-existing slabs and `arena_.data()` never moves while they run;
  // slot assignment also stays on the calling thread — a single ordered
  // publish after the fills — so the slot table never needs a lock,
  // readers never see a torn update, and the cell->slot assignment is a
  // pure function of arrival order, independent of how the fills
  // interleaved.
  const size_t reuse = std::min(free_slots_.size(), missing.size());
  const size_t grow_base = allocated_slots_;
  if (!GrowArena(grow_base + (missing.size() - reuse))) {
    return bail(StopReason::kAllocFailed);
  }
  std::vector<int32_t> slots(missing.size());
  for (size_t i = 0; i < missing.size(); ++i) {
    slots[i] = i < reuse
                   ? free_slots_[free_slots_.size() - reuse + i]
                   : static_cast<int32_t>(grow_base + (i - reuse));
  }
  free_slots_.resize(free_slots_.size() - reuse);

  // Fault-in: columns previously spilled to the attached store are read
  // back instead of recomputed.  The reads run serially on the calling
  // thread before the parallel fill so the store never sees concurrent
  // access; the hexfloat round-trip restores the exact bits the original
  // computation produced, so downstream scoring cannot tell a faulted
  // column from a computed one.
  std::vector<char> faulted(missing.size(), 0);
  size_t num_faulted = 0;
  if (column_store_ != nullptr) {
    for (size_t i = 0; i < missing.size(); ++i) {
      if (FaultColumnIn(missing[i], arena_.data() +
                                        static_cast<size_t>(slots[i]) *
                                            stride_)) {
        faulted[i] = 1;
        ++num_faulted;
      }
    }
  }
  ws.faulted = num_faulted;

  ThreadPool* pool = PoolFor(ResolveThreadCount(num_threads));
  // Without run control every fill completes; with it, `done` records
  // which columns finished before a stop.  Faulted columns are already
  // resident, so they count as done up front.
  std::vector<char> done(missing.size(), run == nullptr ? 1 : 0);
  for (size_t i = 0; i < missing.size(); ++i) {
    if (faulted[i]) done[i] = 1;
  }
  const auto fill = [&](const std::vector<CellId>& fcells,
                        const std::vector<int32_t>& fslots,
                        std::vector<char>* fdone) {
    if (space_.model == IndifferenceModel::kRectangular) {
      WarmRectangularFactored(fcells, fslots, pool, run,
                              run == nullptr ? nullptr : fdone);
    } else {
      const int lanes = pool == nullptr ? 1 : pool->size();
      std::vector<ColumnScratch> scratch(static_cast<size_t>(lanes));
      ParallelFor(
          pool, fcells.size(),
          [&](size_t i, int worker) {
            ComputeColumnInto(fcells[i],
                              arena_.data() +
                                  static_cast<size_t>(fslots[i]) * stride_,
                              &scratch[static_cast<size_t>(worker)]);
            if (run != nullptr) (*fdone)[i] = 1;
          },
          run);
    }
  };
  if (num_faulted == 0) {
    fill(missing, slots, &done);
  } else if (num_faulted < missing.size()) {
    // Compact the still-cold subset so the fill paths see dense lists
    // (the rectangular plan batches by row/column of the cells it is
    // given), then scatter the completion flags back.
    std::vector<CellId> cold_cells;
    std::vector<int32_t> cold_slots;
    std::vector<size_t> cold_idx;
    cold_cells.reserve(missing.size() - num_faulted);
    cold_slots.reserve(missing.size() - num_faulted);
    cold_idx.reserve(missing.size() - num_faulted);
    for (size_t i = 0; i < missing.size(); ++i) {
      if (faulted[i]) continue;
      cold_cells.push_back(missing[i]);
      cold_slots.push_back(slots[i]);
      cold_idx.push_back(i);
    }
    std::vector<char> cold_done(cold_cells.size(), run == nullptr ? 1 : 0);
    fill(cold_cells, cold_slots, &cold_done);
    for (size_t j = 0; j < cold_idx.size(); ++j) {
      done[cold_idx[j]] = cold_done[j];
    }
  }

  // Ordered publish.  Columns a stop skipped revert to cold and their
  // slabs go back to the free list; publishing only the completed subset
  // is consistent because a column is a pure function of (cell, dataset,
  // space) — whoever warms it later gets the identical bits.
  size_t published = 0;
  for (size_t i = 0; i < missing.size(); ++i) {
    const size_t slot = static_cast<size_t>(slots[i]);
    if (done[i]) {
      cell_slot_[static_cast<size_t>(missing[i])] = slots[i];
      slot_cell_[slot] = missing[i];
      slot_last_use_[slot] = tick;
      ++published;
    } else {
      cell_slot_[static_cast<size_t>(missing[i])] = kNoSlot;
      free_slots_.push_back(slots[i]);
    }
  }
  num_slots_ += published;
  if (run != nullptr && published < missing.size()) {
    ws.stop = run->CheckStop();  // sticky: reports the stop that fired
  }
  if (stats != nullptr) *stats = ws;
  return published;
}

std::vector<double> NmEngine::ScoreBatch(const std::vector<Pattern>& patterns,
                                         int num_threads,
                                         BatchScoreStats* stats,
                                         Measure measure,
                                         const RunContext* run) const {
  const int threads = ResolveThreadCount(num_threads);
  BatchScoreStats out_stats;
  out_stats.threads_used = threads;
  std::vector<double> out(patterns.size());
  TP_COUNTER_INC("nm.batches");
  TP_HISTOGRAM_OBSERVE("nm.batch_size", patterns.size(),
                       {10, 100, 1000, 10000, 100000});
  if (run != nullptr) {
    const StopReason sr = run->CheckStop();
    if (sr != StopReason::kNone) {
      out_stats.stop = sr;
      if (stats != nullptr) *stats = out_stats;
      return out;
    }
  }

  // Chunking: with a memory budget the batch is split so each chunk's
  // distinct-cell working set fits the arena budget (boundaries are a
  // pure function of the pattern list and the budget — deterministic);
  // without one the whole batch is one chunk, the exact pre-budget
  // code path.
  std::vector<std::pair<size_t, size_t>> chunks;
  if (run != nullptr && run->memory_budget_bytes > 0 && stride_ > 0) {
    const size_t budget_slots =
        static_cast<size_t>(run->memory_budget_bytes / column_bytes());
    std::unordered_set<CellId> chunk_cells;
    std::vector<CellId> pat_cells;
    size_t begin = 0;
    for (size_t i = 0; i < patterns.size(); ++i) {
      pat_cells.clear();
      for (size_t j = 0; j < patterns[i].length(); ++j) {
        const CellId c = patterns[i][j];
        if (c == kWildcardCell) continue;
        if (std::find(pat_cells.begin(), pat_cells.end(), c) ==
            pat_cells.end()) {
          pat_cells.push_back(c);
        }
      }
      if (pat_cells.size() > budget_slots) {
        // A single pattern overflows the budget by itself: no chunking
        // or eviction can ever score it.
        out_stats.stop = StopReason::kMemoryBudgetExceeded;
        if (stats != nullptr) *stats = out_stats;
        return out;
      }
      size_t newly = 0;
      for (CellId c : pat_cells) {
        if (chunk_cells.count(c) == 0) ++newly;
      }
      if (i > begin && chunk_cells.size() + newly > budget_slots) {
        chunks.emplace_back(begin, i);
        chunk_cells.clear();
        begin = i;
      }
      for (CellId c : pat_cells) chunk_cells.insert(c);
    }
    chunks.emplace_back(begin, patterns.size());
  } else {
    chunks.emplace_back(0, patterns.size());
  }
  out_stats.chunks = static_cast<int>(chunks.size());

  ThreadPool* pool = PoolFor(threads);
  const size_t lanes = pool == nullptr ? 1 : static_cast<size_t>(pool->size());
  std::vector<WalkScratch> walk_scratch(lanes);
  WallTimer timer;
  for (const auto& chunk : chunks) {
    const size_t cb = chunk.first;
    const size_t ce = chunk.second;
    timer.Reset();
    bool warm_stopped = false;
    {
      // Warm-up: every column any candidate of the chunk needs exists
      // before a worker runs, so the scoring region below only reads
      // the arena.
      TP_TRACE_SPAN("nm/warmup");
      std::vector<CellId> needed;
      for (size_t i = cb; i < ce; ++i) {
        for (size_t j = 0; j < patterns[i].length(); ++j) {
          needed.push_back(patterns[i][j]);
        }
      }
      WarmStats ws;
      out_stats.cells_warmed += WarmCells(needed, threads, &ws, run);
      out_stats.cells_hit += ws.hits;
      out_stats.cells_evicted += ws.evicted;
      TP_COUNTER_ADD("nm.warmup_hits", ws.hits);
      TP_COUNTER_ADD("nm.warmup_misses", ws.misses);
      if (ws.stop != StopReason::kNone) {
        out_stats.stop = ws.stop;
        warm_stopped = true;
      }
    }
    out_stats.warmup_seconds += timer.Seconds();
    if (warm_stopped) break;

    timer.Reset();
    {
      TP_TRACE_SPAN("nm/scoring");
      Walk(std::span<const Pattern>(patterns).subspan(cb, ce - cb), measure,
           pool, run, walk_scratch, out.data() + cb, &out_stats);
    }
    out_stats.scoring_seconds += timer.Seconds();
    num_pattern_evaluations_ += static_cast<int64_t>(ce - cb);
    if (run != nullptr) {
      const StopReason sr = run->CheckStop();
      if (sr != StopReason::kNone) {
        out_stats.stop = sr;
        break;
      }
    }
  }
  TP_COUNTER_ADD("nm.cells_warmed", out_stats.cells_warmed);
  TP_COUNTER_ADD("nm.candidates_scored", patterns.size());
  if (stats != nullptr) *stats = out_stats;
  return out;
}

std::vector<double> NmEngine::NmTotalBatch(const std::vector<Pattern>& patterns,
                                           int num_threads,
                                           BatchScoreStats* stats,
                                           const RunContext* run) const {
  return ScoreBatch(patterns, num_threads, stats, Measure::kNm, run);
}

std::vector<double> NmEngine::MatchTotalBatch(
    const std::vector<Pattern>& patterns, int num_threads,
    BatchScoreStats* stats, const RunContext* run) const {
  return ScoreBatch(patterns, num_threads, stats, Measure::kMatch, run);
}

double NmEngine::NmTotalWithGaps(const Pattern& p, int max_gap) const {
  assert(max_gap >= 0);
  ++num_pattern_evaluations_;
  const size_t m = p.length();
  if (p.SpecifiedCount() == 0) return kNegInf;  // see ValidateScorable
  std::vector<const double*> cols;
  ResolveColumns(p, &cols);
  double total = 0.0;
  for (size_t i = 0; i < data_->size(); ++i) {
    const size_t off = offsets_[i];
    const size_t len = offsets_[i + 1] - off;
    if (len < m) {
      total += LogFloor();
      continue;
    }
    // dp[s]: best log-sum of p_0..p_j with p_j matched at snapshot s.
    std::vector<double> dp(len), prev(len);
    for (size_t s = 0; s < len; ++s) {
      prev[s] = cols[0] != nullptr ? cols[0][off + s] : 0.0;
    }
    for (size_t j = 1; j < m; ++j) {
      for (size_t s = 0; s < len; ++s) {
        double best_prev = kNegInf;
        // Previous position matched at s-1-gap for gap in [0, max_gap].
        const size_t lo = s >= static_cast<size_t>(max_gap) + 1
                              ? s - static_cast<size_t>(max_gap) - 1
                              : 0;
        if (s >= 1) {
          for (size_t sp = lo; sp <= s - 1; ++sp) {
            best_prev = std::max(best_prev, prev[sp]);
          }
        }
        const double here = cols[j] != nullptr ? cols[j][off + s] : 0.0;
        dp[s] = best_prev == kNegInf ? kNegInf : best_prev + here;
      }
      std::swap(dp, prev);
    }
    const double best = *std::max_element(prev.begin(), prev.end());
    total += best == kNegInf
                 ? LogFloor()
                 : best / static_cast<double>(p.SpecifiedCount());
  }
  return total;
}

std::vector<CellId> NmEngine::TouchedCells(double radius_sigmas) const {
  std::unordered_set<CellId> seen;
  for (const auto& pt : flat_points_) {
    const double r = radius_sigmas * pt.sigma + space_.delta +
                     0.5 * std::max(space_.grid.cell_width(),
                                    space_.grid.cell_height());
    for (CellId c : space_.grid.CellsWithin(pt.mean, r)) seen.insert(c);
  }
  std::vector<CellId> out(seen.begin(), seen.end());
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ScoredPattern> RerankWithGaps(const NmEngine& engine,
                                          std::vector<ScoredPattern> patterns,
                                          int max_gap) {
  for (auto& sp : patterns) {
    sp.nm = engine.NmTotalWithGaps(sp.pattern, max_gap);
  }
  std::sort(patterns.begin(), patterns.end(), BetterScored);
  return patterns;
}

double WindowLogMatch(const std::vector<TrajectoryPoint>& points, size_t begin,
                      const Pattern& p, const MiningSpace& space) {
  assert(begin + p.length() <= points.size());
  double sum = 0.0;
  for (size_t j = 0; j < p.length(); ++j) {
    sum += space.LogProb(points[begin + j], p[j]);
  }
  return sum;
}

}  // namespace trajpattern
