#include "core/nm_engine.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <limits>
#include <new>
#include <numeric>
#include <thread>
#include <utility>

#include "core/simd_kernels.h"
#include "obs/obs.h"
#include "prob/log_space.h"
#include "prob/normal.h"
#include "stats/timer.h"

namespace trajpattern {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

/// Budget of one walk tile: the columns of the chunk's distinct cells
/// restricted to a tile fit in it, and so does the tile buffer.  A
/// constant, so the plan never depends on the host; DESIGN.md 4d has the
/// sweep that picked it.
constexpr size_t kTileBytes = size_t{1} << 20;

/// The column of a wildcard position.
constexpr uint32_t kNoColumn = std::numeric_limits<uint32_t>::max();

/// Most candidates one walk slice holds, so that a large first-cell
/// group still spreads over the lanes.
constexpr size_t kSliceCandidates = 64;

}  // namespace

NmEngine::NmEngine(const TrajectoryDataset& data, const MiningSpace& space)
    : data_(&data), space_(space) {
  offsets_.reserve(data.size() + 1);
  stride_ = data.TotalPoints();
  px_.reserve(stride_);
  py_.reserve(stride_);
  sigma_.reserve(stride_);
  for (const auto& t : data) {
    offsets_.push_back(px_.size());
    for (const auto& p : t) {
      px_.push_back(p.mean.x);
      py_.push_back(p.mean.y);
      sigma_.push_back(p.sigma);
    }
  }
  offsets_.push_back(px_.size());
  const size_t num_factors =
      space_.model == IndifferenceModel::kRectangular
          ? static_cast<size_t>(space_.grid.nx() + space_.grid.ny())
          : static_cast<size_t>(space_.grid.num_cells()) + 1;
  factors_.resize(num_factors);
}

NmEngine::~NmEngine() = default;

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

std::pair<int32_t, int32_t> NmEngine::FactorIds(CellId cell) const {
  const Grid& grid = space_.grid;
  if (space_.model == IndifferenceModel::kRectangular) {
    return {grid.ColumnOf(cell), grid.nx() + grid.RowOf(cell)};
  }
  return {cell, grid.num_cells()};
}

void NmEngine::ComputeFactorInto(int32_t id, double* out,
                                 std::vector<double>* dist) const {
  const Grid& grid = space_.grid;
  const double delta = space_.delta;
  const size_t n = stride_;
  if (space_.model == IndifferenceModel::kRectangular) {
    // `CenterOf` derives center.x purely from the column index and
    // center.y purely from the row index, so every cell of a grid column
    // (row) shares these doubles with `MiningSpace::LogProb` bit for bit.
    if (id < grid.nx()) {
      const double cx = grid.CenterOf(grid.At(id, 0)).x;
      simd::LogIntervalProbColumn(px_.data(), sigma_.data(), cx - delta,
                                  cx + delta, out, n);
    } else {
      const double cy = grid.CenterOf(grid.At(0, id - grid.nx())).y;
      simd::LogIntervalProbColumn(py_.data(), sigma_.data(), cy - delta,
                                  cy + delta, out, n);
    }
    return;
  }
  if (id == grid.num_cells()) {
    std::fill(out, out + n, 0.0);
    return;
  }
  const Point2 center = grid.CenterOf(id);
  // One cheap distance pass, then the batched Rice-CDF quadrature, then
  // the log in place.
  if (dist->size() < n) dist->resize(n);
  for (size_t g = 0; g < n; ++g) {
    (*dist)[g] = Distance(Point2(px_[g], py_[g]), center);
  }
  RadialWithinProbBatch(dist->data(), sigma_.data(), delta, out, n);
  for (size_t g = 0; g < n; ++g) out[g] = SafeLog(out[g]);
}

const double* NmEngine::ResidentFactor(int32_t id) const {
  const double* const v = factors_[static_cast<size_t>(id)].get();
  assert(v != nullptr);  // the walk only reads warm vectors
  return v;
}

double NmEngine::TotalOne(const Pattern& p, Measure measure) const {
  BatchScoreStats stats;
  const double out =
      ScoreBatch(std::span<const Pattern>(&p, 1), 1, &stats, measure,
                 nullptr)[0];
  // Without a run context only a failed allocation can stop the batch.
  if (stats.stop != StopReason::kNone) throw std::bad_alloc();
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
  /// index), and per walk position k the column of each pattern position
  /// (an index into `factors`, kNoColumn for a wildcard) at
  /// [col_begin[k], col_begin[k+1]) of `cols`.
  std::vector<size_t> order;
  std::vector<uint32_t> cols;
  std::vector<size_t> col_begin;
  /// Per walk position: the last specified position (the length if
  /// none), the specified-position count, and the size of the scan group
  /// that starts there (0 inside a group).
  std::vector<size_t> last;
  std::vector<double> spec;
  std::vector<uint32_t> group;
  /// The two factor vectors of each distinct cell the chunk reads, in
  /// first-seen order: column c of a tile is built from factors[c].
  std::vector<std::pair<const double*, const double*>> factors;
  /// Running dataset total per walk position.
  std::vector<double> acc;
  /// Tile t covers trajectories [tiles[t], tiles[t + 1]); its longest
  /// trajectory has tile_max_len[t] snapshots.
  std::vector<size_t> tiles;
  std::vector<size_t> tile_max_len;
  /// Walk-position ranges [first, second) the lanes claim: candidates
  /// sharing their first cell, at most kSliceCandidates of them.
  std::vector<std::pair<size_t, size_t>> slices;
  /// Doubles per tile column and per prefix level buffer: the largest
  /// tile's snapshot count.
  size_t level_stride = 0;
  size_t max_length = 0;
};

void NmEngine::PlanWalk(std::span<const Pattern> patterns, Measure measure,
                        double* out, WalkPlan* plan) const {
  for (size_t i = 0; i < patterns.size(); ++i) {
    const Pattern& p = patterns[i];
    // Unscorable: an NM pattern with no specified position (see
    // ValidateScorable), an empty Match pattern (no window can exist),
    // and a pattern with a cell outside the grid, which has no vectors.
    if ((measure == Measure::kNm ? p.SpecifiedCount() == 0 : p.empty()) ||
        PatternCellOutsideGrid(p.cells(), space_.grid)) {
      out[i] = measure == Measure::kNm ? kNegInf : 0.0;
    } else {
      plan->order.push_back(i);
    }
  }
  // Sorted by cells, candidates sharing a prefix are neighbors.
  std::sort(plan->order.begin(), plan->order.end(), [&](size_t a, size_t b) {
    const auto cmp = patterns[a].cells() <=> patterns[b].cells();
    return cmp != 0 ? cmp < 0 : a < b;
  });

  // Give every distinct cell a tile column, resolving its factor vectors
  // once.
  std::vector<uint32_t> column_of(static_cast<size_t>(space_.grid.num_cells()),
                                  kNoColumn);
  plan->col_begin.reserve(plan->order.size() + 1);
  plan->last.reserve(plan->order.size());
  plan->spec.reserve(plan->order.size());
  for (const size_t i : plan->order) {
    const Pattern& p = patterns[i];
    plan->col_begin.push_back(plan->cols.size());
    plan->max_length = std::max(plan->max_length, p.length());
    size_t last = p.length();
    size_t spec = 0;
    for (size_t j = 0; j < p.length(); ++j) {
      const CellId c = p[j];
      if (c == kWildcardCell) {
        plan->cols.push_back(kNoColumn);
        continue;
      }
      last = j;
      ++spec;
      uint32_t& column = column_of[static_cast<size_t>(c)];
      if (column == kNoColumn) {
        column = static_cast<uint32_t>(plan->factors.size());
        const auto [x, y] = FactorIds(c);
        plan->factors.emplace_back(ResidentFactor(x), ResidentFactor(y));
      }
      plan->cols.push_back(column);
    }
    plan->last.push_back(last);
    plan->spec.push_back(static_cast<double>(spec));
  }
  plan->col_begin.push_back(plan->cols.size());
  plan->acc.assign(plan->order.size(), 0.0);

  // Tiles of whole trajectories, each as long as keeps the columns of
  // the distinct cells within kTileBytes (one trajectory at least).
  const size_t tile_points = std::max<size_t>(
      1, kTileBytes /
             (std::max<size_t>(plan->factors.size(), 1) * sizeof(double)));
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
  // a lane claims in a tile is a short one.  Within a slice, neighbors
  // of one length, one last specified position and the same cells before
  // it differ only in their last cell: they form one scan group.
  const auto same_group = [&](size_t a, size_t b) {
    const Pattern& pa = patterns[plan->order[a]];
    const Pattern& pb = patterns[plan->order[b]];
    const size_t last = plan->last[a];
    return last < pa.length() && pb.length() == pa.length() &&
           plan->last[b] == last &&
           std::equal(pa.cells().begin(), pa.cells().begin() + last,
                      pb.cells().begin());
  };
  plan->group.assign(plan->order.size(), 0);
  for (size_t k = 0; k < plan->order.size();) {
    const CellId first = patterns[plan->order[k]][0];
    size_t end = k + 1;
    while (end < plan->order.size() && end - k < kSliceCandidates &&
           patterns[plan->order[end]][0] == first) {
      ++end;
    }
    plan->slices.emplace_back(k, end);
    for (size_t g = k; g < end;) {
      size_t g_end = g + 1;
      while (g_end < end && g_end - g < simd::kMaxGroup &&
             same_group(g, g_end)) {
        ++g_end;
      }
      plan->group[g] = static_cast<uint32_t>(g_end - g);
      g = g_end;
    }
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
  const size_t stride = plan->level_stride;
  const bool nm = measure == Measure::kNm;
  // Column c of this tile, shifted to pattern position j.
  const auto column = [&](uint32_t c, size_t j) -> const double* {
    return tile_columns_.get() + c * stride + j;
  };
  // Stack positions [0, depth) hold the prefix sums of ws->cells.
  size_t depth = 0;
  for (size_t k = plan->slices[slice].first; k < plan->slices[slice].second;
       k += plan->group[k]) {
    const Pattern& p = patterns[plan->order[k]];
    const size_t m = p.length();
    const uint32_t* cols = plan->cols.data() + plan->col_begin[k];
    const size_t last = plan->last[k];
    const size_t group = plan->group[k];
    // Window sums of positions [0, last), shared by the group: keep the
    // longest prefix the stack already holds and fold the remaining
    // positions in one at a time, in ascending j like a window-major
    // sum.  A pattern no trajectory of the tile can host needs no sums
    // at all.
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
          continue;
        }
        // With no level below, the first specified position's prefix sum
        // is its column, read in place (0.0 + x == x; it is never -0.0)
        // and counted as neither built nor reused.
        if (below == nullptr) {
          ws->sums[j] = column(cols[j], j);
          continue;
        }
        double* level = ws->levels.data() + (j - 1) * stride;
        simd::AddTo(level, below, column(cols[j], j), tile_points - j);
        ws->sums[j] = level;
        ws->computed[j] = 1;
        ++ws->built;
      }
      if (keep < last) depth = last;
    }
    const double* sums = last == 0 || last == m ? nullptr : ws->sums[last - 1];
    const double spec = plan->spec[k];
    // The last specified position of each member is fused into the max
    // scan; the members differ only there.
    const double* lasts[simd::kMaxGroup] = {};
    double totals[simd::kMaxGroup];
    for (size_t g = 0; g < group; ++g) {
      if (last < m) {
        lasts[g] = column(plan->cols[plan->col_begin[k + g] + last], last);
      }
      totals[g] = plan->acc[k + g];
    }
    for (size_t i = ta; i < te; ++i) {
      const size_t at = offsets_[i] - p0;
      const size_t len = offsets_[i + 1] - offsets_[i];
      if (len < m) {
        if (nm) {
          for (size_t g = 0; g < group; ++g) totals[g] += LogFloor();
        }
      } else if (last == m) {
        totals[0] += 1.0;  // all-wildcard Match: every window is exp(0)
      } else {
        double best[simd::kMaxGroup];
        const double* w = sums == nullptr ? nullptr : sums + at;
        if (group == 1) {
          best[0] = simd::FusedMaxSum(w, lasts[0] + at, len - m + 1);
        } else {
          const double* t[simd::kMaxGroup];
          for (size_t g = 0; g < group; ++g) t[g] = lasts[g] + at;
          simd::FusedMaxSumGroup(w, t, group, len - m + 1, best);
        }
        for (size_t g = 0; g < group; ++g) {
          totals[g] += nm ? best[g] / spec : std::exp(best[g]);
        }
      }
    }
    for (size_t g = 0; g < group; ++g) plan->acc[k + g] = totals[g];
  }
}

void NmEngine::Walk(std::span<const Pattern> patterns, Measure measure,
                    ThreadPool* pool, const RunContext* run,
                    std::span<WalkScratch> scratch, double* out,
                    BatchScoreStats* stats) const {
  WalkPlan plan;
  PlanWalk(patterns, measure, out, &plan);
  // A computed level j sits at levels[(j - 1) * stride]: position 0 is a
  // wildcard or read in place, and the last specified position, at most
  // max_length - 1, is fused into the scan.
  const size_t level_doubles =
      plan.max_length > 2 ? (plan.max_length - 2) * plan.level_stride : 0;
  for (WalkScratch& ws : scratch) {
    if (ws.levels.size() < level_doubles) ws.levels.resize(level_doubles);
    if (ws.sums.size() < plan.max_length) {
      ws.sums.resize(plan.max_length);
      ws.cells.resize(plan.max_length);
      ws.computed.resize(plan.max_length);
    }
    ws.built = 0;
    ws.reused = 0;
  }
  // One allocation of the whole tile budget serves every later walk of
  // the engine: the tiles keep a walk's columns within it unless a
  // single trajectory alone is longer than a tile.
  const size_t column_doubles = plan.factors.size() * plan.level_stride;
  if (tile_capacity_ < column_doubles) {
    tile_capacity_ = std::max(column_doubles, kTileBytes / sizeof(double));
    tile_columns_ = nullptr;
    tile_columns_ = std::make_unique_for_overwrite<double[]>(tile_capacity_);
  }
  // Tile-major: every slice finishes a tile before any starts the next,
  // so the tile's columns serve the whole batch from cache and each
  // running total grows in ascending trajectory order.  One `Run` of the
  // pool runs the whole walk: per tile, the lanes claim and build its
  // columns, then claim its slices, and a lane that finds a phase's items
  // all claimed waits until the others have finished them.  Every claimed
  // item is running on some lane, so the wait always ends, and no slice
  // reads a column before it is built.  A handover costs two counters
  // instead of putting every worker to sleep and waking it again.
  const size_t num_tiles = plan.tiles.size() - 1;
  struct Phase {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
  };
  const std::unique_ptr<Phase[]> phases(new Phase[2 * num_tiles]);
  std::atomic<bool> stopped{false};
  // Runs `fn` on the items of `phase` this lane claims, then waits for
  // the phase to finish; false once a stop was seen.
  const auto run_phase = [&](Phase& phase, size_t n, const auto& fn) {
    for (size_t i; (i = phase.next.fetch_add(1, std::memory_order_relaxed)) <
                   n;) {
      if (run != nullptr && run->StopRequested()) {
        stopped.store(true, std::memory_order_relaxed);
        return false;
      }
      fn(i);
      phase.done.fetch_add(1, std::memory_order_release);
    }
    while (phase.done.load(std::memory_order_acquire) < n) {
      if (stopped.load(std::memory_order_relaxed)) return false;
      std::this_thread::yield();
    }
    return true;
  };
  const auto lane = [&](int worker) {
    WalkScratch* ws = &scratch[static_cast<size_t>(worker)];
    for (size_t t = 0; t < num_tiles; ++t) {
      const size_t p0 = offsets_[plan.tiles[t]];
      const size_t tile_points = offsets_[plan.tiles[t + 1]] - p0;
      const bool built = run_phase(
          phases[2 * t], plan.factors.size(), [&](size_t c) {
            simd::BuildColumn(tile_columns_.get() + c * plan.level_stride,
                              plan.factors[c].first + p0,
                              plan.factors[c].second + p0, tile_points);
          });
      if (!built ||
          !run_phase(phases[2 * t + 1], plan.slices.size(), [&](size_t s) {
            WalkSlice(patterns, measure, s, t, &plan, ws);
          })) {
        return;
      }
    }
  };
  if (pool == nullptr) {
    lane(0);
  } else {
    pool->Run(lane);
  }
  if (stopped.load(std::memory_order_relaxed)) return;
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
  if (pool_ == nullptr || pool_->size() != threads) {
    pool_ = std::make_unique<ThreadPool>(threads);
  }
  return pool_.get();
}

size_t NmEngine::WarmCells(const std::vector<CellId>& cells, int num_threads,
                           WarmStats* stats, const RunContext* run) const {
  std::vector<char> seen(factors_.size(), 0);
  std::vector<int32_t> ids;  // distinct, in first-seen order
  size_t asks = 0;
  for (const CellId c : cells) {
    if (!space_.grid.IsValid(c)) continue;  // a wildcard, or no vectors
    const auto [x, y] = FactorIds(c);
    for (const int32_t id : {x, y}) {
      if (!std::exchange(seen[static_cast<size_t>(id)], 1)) ids.push_back(id);
    }
    asks += 2;
  }
  return WarmFactors(ids, asks, num_threads, stats, run);
}

size_t NmEngine::WarmFactors(std::span<const int32_t> ids, size_t asks,
                             int num_threads, WarmStats* stats,
                             const RunContext* run) const {
  WarmStats ws;
  std::vector<int32_t> missing;  // in request order
  for (const int32_t id : ids) {
    if (factors_[static_cast<size_t>(id)] == nullptr) missing.push_back(id);
  }
  ws.misses = missing.size();
  ws.hits = asks - missing.size();
  const auto finish = [&](StopReason why, size_t published) {
    ws.stop = why;
    if (stats != nullptr) *stats = ws;
    return published;
  };
  if (missing.empty()) return finish(StopReason::kNone, 0);

  // Memory budget: the resident set after this request must fit.  Free
  // the lowest-id resident vectors the request does not need, no more
  // than it must; a request that overflows the budget by itself frees
  // nothing and stops.
  if (run != nullptr && run->memory_budget_bytes > 0 && stride_ > 0) {
    const size_t budget_vectors =
        static_cast<size_t>(run->memory_budget_bytes / column_bytes());
    if (ids.size() > budget_vectors) {
      return finish(StopReason::kMemoryBudgetExceeded, 0);
    }
    if (num_resident_ + missing.size() > budget_vectors) {
      const size_t excess = num_resident_ + missing.size() - budget_vectors;
      std::vector<char> needed(factors_.size(), 0);
      for (const int32_t id : ids) needed[static_cast<size_t>(id)] = 1;
      for (size_t f = 0; f < factors_.size() && ws.evicted < excess; ++f) {
        if (factors_[f] != nullptr && !needed[f]) {
          factors_[f].reset();
          ++ws.evicted;
        }
      }
      num_resident_ -= ws.evicted;
      cells_evicted_ += ws.evicted;
      TP_COUNTER_ADD("nm.cells_evicted", ws.evicted);
    }
  }
  if (run != nullptr) {
    const StopReason sr = run->CheckStop();
    if (sr != StopReason::kNone) return finish(sr, 0);
  }

  // Allocation stays on the calling thread, so the workers below only
  // fill buffers they were handed, and publishing stays a single ordered
  // pass after the fills: `factors_` never needs a lock and readers never
  // see a half-written vector.  No buffer is zero-filled; its fill is the
  // first write.
  const size_t in_flight = num_resident_ + missing.size();
  if (alloc_fault_hook_ && alloc_fault_hook_(in_flight * column_bytes())) {
    return finish(StopReason::kAllocFailed, 0);
  }
  std::vector<std::unique_ptr<double[]>> fresh(missing.size());
  try {
    for (auto& v : fresh) v = std::make_unique_for_overwrite<double[]>(stride_);
  } catch (const std::bad_alloc&) {
    return finish(StopReason::kAllocFailed, 0);
  }
  peak_vectors_ = std::max(peak_vectors_, in_flight);

  ThreadPool* pool = PoolFor(ResolveThreadCount(num_threads));
  // Without run control every fill completes; with it, `done` records
  // which vectors finished before a stop.
  std::vector<char> done(missing.size(), run == nullptr ? 1 : 0);
  std::vector<std::vector<double>> dist(
      static_cast<size_t>(pool == nullptr ? 1 : pool->size()));
  ParallelFor(
      pool, missing.size(),
      [&](size_t i, int worker) {
        ComputeFactorInto(missing[i], fresh[i].get(),
                          &dist[static_cast<size_t>(worker)]);
        if (run != nullptr) done[i] = 1;
      },
      run);

  // Ordered publish.  Vectors a stop skipped stay cold and their buffers
  // are freed with `fresh`; publishing only the completed subset is
  // consistent because a vector is a pure function of (factor id,
  // dataset, space) — whoever warms it later gets the identical bits.
  size_t published = 0;
  for (size_t i = 0; i < missing.size(); ++i) {
    if (!done[i]) continue;
    factors_[static_cast<size_t>(missing[i])] = std::move(fresh[i]);
    ++published;
  }
  num_resident_ += published;
  // A stop is sticky, so this reports the one that skipped fills.
  const bool stopped = run != nullptr && published < missing.size();
  return finish(stopped ? run->CheckStop() : StopReason::kNone, published);
}

std::vector<double> NmEngine::ScoreBatch(std::span<const Pattern> patterns,
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

  // One pass over the batch cuts it into chunks and gives each chunk its
  // distinct factor ids, in first-seen order, and its count of vector
  // asks, two per specified position.  Without a budget the whole batch
  // is one chunk; with one, a chunk closes before the pattern whose
  // vectors would overflow it, so boundaries are a pure function of the
  // pattern list and the budget.
  struct Chunk {
    size_t begin = 0;
    size_t end = 0;
    std::vector<int32_t> ids;
    size_t asks = 0;
  };
  WallTimer timer;
  const size_t budget_vectors =
      run != nullptr && run->memory_budget_bytes > 0 && stride_ > 0
          ? static_cast<size_t>(run->memory_budget_bytes / column_bytes())
          : std::numeric_limits<size_t>::max();
  std::vector<Chunk> chunks(1);
  // Per factor id: whether the open chunk holds it, and the last pattern
  // that asked for it.
  std::vector<char> in_chunk(factors_.size(), 0);
  std::vector<size_t> asked_by(factors_.size(), patterns.size());
  std::vector<int32_t> pattern_ids;
  for (size_t i = 0; i < patterns.size(); ++i) {
    // Unscorable without vectors; see PlanWalk.
    if (PatternCellOutsideGrid(patterns[i].cells(), space_.grid)) continue;
    pattern_ids.clear();
    size_t asks = 0;
    size_t newly = 0;
    for (const CellId c : patterns[i].cells()) {
      if (c == kWildcardCell) continue;
      const auto [x, y] = FactorIds(c);
      for (const int32_t f : {x, y}) {
        if (std::exchange(asked_by[static_cast<size_t>(f)], i) != i) {
          pattern_ids.push_back(f);
          newly += in_chunk[static_cast<size_t>(f)] == 0;
        }
      }
      asks += 2;
    }
    if (pattern_ids.size() > budget_vectors) {
      // A single pattern overflows the budget by itself: no chunking
      // or eviction can ever score it.
      out_stats.stop = StopReason::kMemoryBudgetExceeded;
      if (stats != nullptr) *stats = out_stats;
      return out;
    }
    if (i > chunks.back().begin &&
        chunks.back().ids.size() + newly > budget_vectors) {
      chunks.back().end = i;
      for (const int32_t f : chunks.back().ids) {
        in_chunk[static_cast<size_t>(f)] = 0;
      }
      chunks.emplace_back().begin = i;
    }
    Chunk& chunk = chunks.back();
    for (const int32_t f : pattern_ids) {
      if (!std::exchange(in_chunk[static_cast<size_t>(f)], 1)) {
        chunk.ids.push_back(f);
      }
    }
    chunk.asks += asks;
  }
  chunks.back().end = patterns.size();
  out_stats.chunks = static_cast<int>(chunks.size());
  out_stats.warmup_seconds += timer.Seconds();

  ThreadPool* pool = PoolFor(threads);
  std::vector<WalkScratch> walk_scratch(static_cast<size_t>(threads));
  for (const Chunk& chunk : chunks) {
    timer.Reset();
    WarmStats ws;
    {
      // Warm-up: every factor vector any candidate of the chunk needs
      // exists before a worker runs, so the scoring region below only
      // reads the cache.
      TP_TRACE_SPAN("nm/warmup");
      out_stats.cells_warmed +=
          WarmFactors(chunk.ids, chunk.asks, threads, &ws, run);
    }
    out_stats.warmup_seconds += timer.Seconds();
    out_stats.cells_hit += ws.hits;
    out_stats.cells_evicted += ws.evicted;
    TP_COUNTER_ADD("nm.warmup_hits", ws.hits);
    TP_COUNTER_ADD("nm.warmup_misses", ws.misses);
    if (ws.stop != StopReason::kNone) {
      out_stats.stop = ws.stop;
      break;
    }

    timer.Reset();
    {
      TP_TRACE_SPAN("nm/scoring");
      Walk(patterns.subspan(chunk.begin, chunk.end - chunk.begin), measure,
           pool, run, walk_scratch, out.data() + chunk.begin, &out_stats);
    }
    out_stats.scoring_seconds += timer.Seconds();
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

std::vector<CellId> NmEngine::TouchedCells(double radius_sigmas) const {
  const Grid& grid = space_.grid;
  const double half_cell =
      0.5 * std::max(grid.cell_width(), grid.cell_height());
  // The union of every point's `CellsWithin` list, without building the
  // lists: a cell is tested against points' discs only until one holds
  // it, and later points skip it.
  std::vector<char> marked(static_cast<size_t>(grid.num_cells()), 0);
  size_t num_marked = 0;
  for (size_t g = 0; g < stride_; ++g) {
    const Point2 mean(px_[g], py_[g]);
    const double r = radius_sigmas * sigma_[g] + space_.delta + half_cell;
    const double r2 = r * r;
    const Grid::CellRange range = grid.BoundingCells(mean, r);
    for (int row = range.row_lo; row <= range.row_hi; ++row) {
      for (int col = range.col_lo; col <= range.col_hi; ++col) {
        const CellId id = grid.At(col, row);
        char& mark = marked[static_cast<size_t>(id)];
        if (!mark && SquaredDistance(grid.CenterOf(id), mean) <= r2) {
          mark = 1;
          ++num_marked;
        }
      }
    }
  }
  std::vector<CellId> out;
  out.reserve(num_marked);
  for (CellId c = 0; c < grid.num_cells(); ++c) {
    if (marked[static_cast<size_t>(c)]) out.push_back(c);
  }
  return out;
}

std::vector<CellId> NmEngine::SingularAlphabet(bool touched_only,
                                               double radius_sigmas) const {
  if (touched_only) return TouchedCells(radius_sigmas);
  std::vector<CellId> all(static_cast<size_t>(space_.grid.num_cells()));
  std::iota(all.begin(), all.end(), CellId{0});
  return all;
}

std::optional<CellId> PatternCellOutsideGrid(std::span<const CellId> cells,
                                             const Grid& grid) {
  for (const CellId c : cells) {
    if (c != kWildcardCell && !grid.IsValid(c)) return c;
  }
  return std::nullopt;
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
