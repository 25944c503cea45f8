// Tests of the window scan: the engine's totals (the shared-prefix walk)
// against the point-at-a-time gather reference of src/testing, bit for
// bit under both indifference models; the walk's prefix-level and scan
// group accounting; all-wildcard rejection; factor warm-up edge cases;
// and checkpoint v1/v4 compat and v3 refusal.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "core/miner.h"
#include "core/mining_space.h"
#include "core/nm_engine.h"
#include "datagen/uniform_generator.h"
#include "io/checkpoint.h"
#include "prob/log_space.h"
#include "prob/rng.h"
#include "testing/reference_scorer.h"

namespace trajpattern {
namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool BitEqual(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!BitEqual(a[i], b[i])) return false;
  }
  return true;
}

/// Factor vectors a rectangular engine keeps for `cells`: one per
/// distinct grid column and one per distinct grid row.
size_t FactorVectors(const Grid& grid, const std::vector<CellId>& cells) {
  std::set<int> cols, rows;
  for (const CellId c : cells) {
    cols.insert(grid.ColumnOf(c));
    rows.insert(grid.RowOf(c));
  }
  return cols.size() + rows.size();
}

TrajectoryDataset UniformData(int objects, int snapshots, uint64_t seed) {
  UniformGeneratorOptions opt;
  opt.num_objects = objects;
  opt.num_snapshots = snapshots;
  opt.seed = seed;
  return GenerateUniformObjects(opt);
}

/// A dataset with wildly varying trajectory lengths (including
/// single-snapshot and empty-window-count cases) so the kernels see
/// every too-short / exactly-one-window / many-windows branch.
TrajectoryDataset RaggedData(uint64_t seed) {
  Rng rng(seed);
  TrajectoryDataset d;
  const int lengths[] = {1, 2, 3, 1, 7, 4, 12, 1, 5};
  int id = 0;
  for (int len : lengths) {
    Trajectory t("t" + std::to_string(id++));
    for (int s = 0; s < len; ++s) {
      t.Append(Point2(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)), 0.05);
    }
    d.Add(std::move(t));
  }
  return d;
}

/// A pattern mix covering every kernel branch: singulars, runs, interior
/// wildcards, wildcard edges, and patterns longer than some (or all)
/// trajectories.
std::vector<Pattern> MixedPatterns(const NmEngine& engine) {
  const std::vector<CellId> cells = engine.TouchedCells();
  EXPECT_GE(cells.size(), 3u);
  const CellId a = cells[0];
  const CellId b = cells[1 % cells.size()];
  const CellId c = cells[2 % cells.size()];
  const CellId w = kWildcardCell;
  return {
      Pattern(a),
      Pattern(std::vector<CellId>{a, b}),
      Pattern(std::vector<CellId>{b, a, c}),
      Pattern(std::vector<CellId>{a, w, b}),
      Pattern(std::vector<CellId>{w, a, b, w}),
      Pattern(std::vector<CellId>{a, w, w, b, c}),
      Pattern(std::vector<CellId>{a, b, c, a, b, c, a, b}),
      Pattern(std::vector<CellId>{c, w, a, w, c, w, a, w, c, w, a, w, c}),
  };
}

TEST(WindowKernelTest, StreamingMatchesGatherBitwise) {
  for (const IndifferenceModel model :
       {IndifferenceModel::kRectangular, IndifferenceModel::kRadial}) {
    for (uint64_t seed : {1u, 7u, 42u}) {
      const MiningSpace space(Grid::UnitSquare(6), 0.17, model);
      const TrajectoryDataset d = UniformData(12, 9, seed);
      NmEngine engine(d, space);
      ReferenceScorer reference(d, space);
      for (const Pattern& p : MixedPatterns(engine)) {
        EXPECT_TRUE(BitEqual(engine.NmTotal(p), reference.NmTotal(p)))
            << "seed " << seed << " len " << p.length();
        EXPECT_TRUE(BitEqual(engine.MatchTotal(p), reference.MatchTotal(p)))
            << "seed " << seed << " len " << p.length();
      }
    }
  }
}

TEST(WindowKernelTest, StreamingMatchesGatherOnRaggedTrajectories) {
  const MiningSpace space(Grid::UnitSquare(5), 0.2);
  // The second dataset adds a trajectory pinned far outside every cell,
  // whose columns sit at the log floor.
  TrajectoryDataset with_far = RaggedData(3);
  Trajectory far("far");
  for (int s = 0; s < 6; ++s) far.Append(Point2(1e3 + s, 1e3), 1e-9);
  with_far.Add(std::move(far));
  for (const TrajectoryDataset& d : {RaggedData(3), with_far}) {
    NmEngine engine(d, space);
    ReferenceScorer reference(d, space);
    const std::vector<Pattern> batch = MixedPatterns(engine);
    const std::vector<double> batch_1t = engine.NmTotalBatch(batch, 1);
    const std::vector<double> batch_8t = engine.NmTotalBatch(batch, 8);
    for (size_t i = 0; i < batch.size(); ++i) {
      const double want = reference.NmTotal(batch[i]);
      EXPECT_TRUE(BitEqual(engine.NmTotal(batch[i]), want))
          << d.size() << " trajectories, len " << batch[i].length();
      EXPECT_TRUE(BitEqual(batch_1t[i], want)) << batch[i].ToString();
      EXPECT_TRUE(BitEqual(batch_8t[i], want)) << batch[i].ToString();
    }
  }
}

TEST(WindowKernelTest, BatchMatchesSerialAcrossKernelsAndThreads) {
  for (const IndifferenceModel model :
       {IndifferenceModel::kRectangular, IndifferenceModel::kRadial}) {
    const MiningSpace space(Grid::UnitSquare(6), 0.17, model);
    const TrajectoryDataset d = UniformData(20, 12, 11);
    NmEngine engine(d, space);
    ReferenceScorer reference(d, space);
    const std::vector<Pattern> batch = MixedPatterns(engine);
    std::vector<double> nm_want(batch.size()), match_want(batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      nm_want[i] = reference.NmTotal(batch[i]);
      match_want[i] = reference.MatchTotal(batch[i]);
    }
    for (const int threads : {1, 8}) {
      EXPECT_TRUE(BitEqual(engine.NmTotalBatch(batch, threads), nm_want))
          << threads << " threads";
      EXPECT_TRUE(BitEqual(engine.MatchTotalBatch(batch, threads), match_want))
          << threads << " threads";
    }
    // Serial per-pattern calls agree with the batch too.
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(BitEqual(engine.NmTotal(batch[i]), nm_want[i]));
      EXPECT_TRUE(BitEqual(engine.MatchTotal(batch[i]), match_want[i]));
    }
  }
}

/// Ragged trajectories over the unit square for the shared-prefix walk:
/// every tenth is shorter than the longest patterns (so the log floor is
/// reached), and there are enough snapshots (about 14k) that a batch
/// needing all 20 factor vectors of a 10x10 grid walks them in several
/// tiles.
TrajectoryDataset WalkData(uint64_t seed) {
  Rng rng(seed);
  TrajectoryDataset d;
  for (int i = 0; i < 180; ++i) {
    Trajectory t("w" + std::to_string(i));
    const int len =
        i % 10 == 0 ? rng.UniformInt(1, 4) : rng.UniformInt(60, 110);
    for (int s = 0; s < len; ++s) {
      t.Append(Point2(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)), 0.05);
    }
    d.Add(std::move(t));
  }
  return d;
}

/// A prefix-heavy batch in shuffled order: every word of length 1-5 over
/// three cells and of length 1-3 over four, stems with interior, leading
/// and trailing wildcards, exact duplicates, a strict-prefix pair, an
/// all-wildcard pattern, and a singular of every touched cell (which
/// widens the batch's factor-vector set, and so shortens its tiles).
std::vector<Pattern> PrefixHeavyBatch(const NmEngine& engine, uint64_t seed) {
  const std::vector<CellId> touched = engine.TouchedCells();
  EXPECT_GE(touched.size(), 40u);
  const CellId a = touched[3], b = touched[11], c = touched[17];
  const CellId e = touched[29], w = kWildcardCell;
  std::vector<Pattern> batch;
  std::vector<std::vector<CellId>> words = {{}};
  for (size_t len = 1; len <= 5; ++len) {
    std::vector<std::vector<CellId>> longer;
    for (const auto& word : words) {
      if (word.size() + 1 != len) continue;
      for (const CellId x : {a, b, c, e}) {
        if (x == e && len > 3) continue;
        longer.push_back(word);
        longer.back().push_back(x);
      }
    }
    for (const auto& word : longer) batch.emplace_back(word);
    words = std::move(longer);
  }
  for (const std::vector<CellId>& cells : std::vector<std::vector<CellId>>{
           {a, w, b},
           {a, w, b, c},
           {a, w, w, c, e},
           {w, a, b},
           {w, w, c},
           {a, b, w},
           {c, w, w},
           {w, w},
           {a, b, c},
           {a, w, b},
           {e, a},
           {e, a, b, c, e}}) {
    batch.emplace_back(cells);
  }
  for (const CellId x : touched) batch.emplace_back(x);
  Rng rng(seed);
  for (size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[static_cast<size_t>(rng.UniformInt(
                                0, static_cast<int>(i) - 1))]);
  }
  return batch;
}

TEST(WindowKernelTest, SharedPrefixWalkMatchesGatherBitwise) {
  const MiningSpace space(Grid::UnitSquare(10), 0.1);
  const TrajectoryDataset d = WalkData(5);
  ReferenceScorer reference(d, space);
  NmEngine engine(d, space);
  const std::vector<Pattern> batch = PrefixHeavyBatch(engine, 23);
  std::vector<double> nm_want(batch.size()), match_want(batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    nm_want[i] = reference.NmTotal(batch[i]);
    match_want[i] = reference.MatchTotal(batch[i]);
  }
  const auto expect_want = [&](const std::vector<double>& nm,
                               const std::vector<double>& match,
                               const std::string& what) {
    ASSERT_EQ(nm.size(), batch.size());
    ASSERT_EQ(match.size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(BitEqual(nm[i], nm_want[i]))
          << what << " NM " << batch[i].ToString();
      EXPECT_TRUE(BitEqual(match[i], match_want[i]))
          << what << " Match " << batch[i].ToString();
    }
  };

  for (const int threads : {1, 4}) {
    BatchScoreStats nm_stats, match_stats;
    const std::vector<double> nm = engine.NmTotalBatch(batch, threads,
                                                       &nm_stats);
    const std::vector<double> match =
        engine.MatchTotalBatch(batch, threads, &match_stats);
    expect_want(nm, match, std::to_string(threads) + " threads");
    EXPECT_EQ(nm_stats.chunks, 1);
    EXPECT_GE(nm_stats.tiles, 3);
    EXPECT_EQ(match_stats.tiles, nm_stats.tiles);
    EXPECT_GT(nm_stats.prefix_levels_reused, 0);
  }

  // A budget of 12 of the batch's 20 factor vectors (a pattern here has
  // at most 4 distinct cells, so at most 8 vectors) splits the batch into
  // chunks that each plan and walk on their own.
  RunContext run;
  run.memory_budget_bytes = 12 * engine.column_bytes();
  NmEngine budgeted(d, space);
  for (const int threads : {1, 4}) {
    BatchScoreStats nm_stats, match_stats;
    const std::vector<double> nm =
        budgeted.NmTotalBatch(batch, threads, &nm_stats, &run);
    const std::vector<double> match =
        budgeted.MatchTotalBatch(batch, threads, &match_stats, &run);
    ASSERT_EQ(nm_stats.stop, StopReason::kNone);
    ASSERT_EQ(match_stats.stop, StopReason::kNone);
    EXPECT_GE(nm_stats.chunks, 2);
    expect_want(nm, match, "budgeted, " + std::to_string(threads) + " threads");
  }

  // One pattern is a walk of one.
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(BitEqual(engine.NmTotal(batch[i]), nm_want[i]))
        << batch[i].ToString();
    EXPECT_TRUE(BitEqual(engine.MatchTotal(batch[i]), match_want[i]))
        << batch[i].ToString();
  }
}

TEST(WindowKernelTest, PrefixLevelCountsAreHandCountedAndThreadInvariant) {
  const MiningSpace space(Grid::UnitSquare(6), 0.17);
  const TrajectoryDataset d = UniformData(8, 10, 3);
  NmEngine engine(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 4u);
  const CellId a = cells[0], b = cells[1], c = cells[2], e = cells[3];
  const CellId w = kWildcardCell;
  // A level folds one more specified position into a sum of at least
  // one; a first specified position's level is its tile column, read in
  // place, and counts as neither built nor reused.  Neighbors of a slice
  // with one length, one last specified position and the same cells
  // before it form a scan group, which takes its prefix levels once:
  // they count once for the group, built or reused.
  // Walk order (cells ascending, the wildcard first), slices and groups:
  //   a*bc  reads a, builds a+*+b                 built 1
  //   abc   keeps a, builds a+b                   built 2
  //   abcd  reuses a+b, builds a+b+c              built 3, reused 1
  //   abd   reuses a+b                            reused 2
  //   ac    needs only a, its column
  //   bca, bcb, bcd   new slice, one group: reads b, builds b+c once
  //                                               built 4
  //   bcda  reuses b+c, builds b+c+d              built 5, reused 3
  const std::vector<Pattern> batch = {
      Pattern(std::vector<CellId>{a, b, c}),
      Pattern(std::vector<CellId>{a, b, e}),
      Pattern(std::vector<CellId>{b, c, b}),
      Pattern(std::vector<CellId>{a, b, c, e}),
      Pattern(std::vector<CellId>{a, c}),
      Pattern(std::vector<CellId>{b, c, e, a}),
      Pattern(std::vector<CellId>{b, c, e}),
      Pattern(std::vector<CellId>{a, w, b, c}),
      Pattern(std::vector<CellId>{b, c, a}),
  };
  ReferenceScorer reference(d, space);
  for (const int threads : {1, 4}) {
    BatchScoreStats stats;
    const std::vector<double> nm = engine.NmTotalBatch(batch, threads, &stats);
    EXPECT_EQ(stats.tiles, 1) << threads << " threads";
    EXPECT_EQ(stats.prefix_levels_built, 5) << threads << " threads";
    EXPECT_EQ(stats.prefix_levels_reused, 3) << threads << " threads";
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(BitEqual(nm[i], reference.NmTotal(batch[i])))
          << batch[i].ToString() << ", " << threads << " threads";
    }
  }
}

TEST(WindowKernelTest, ScanGroupsSplitAtSliceBoundariesAcrossTiles) {
  // 68 candidates a-x-y on one first cell (17 x, 4 y each) after the
  // singular a, and a singular of every touched cell to widen the batch
  // into several tiles.  A slice holds at most 64 candidates, so the
  // first cell's run is cut at walk position 64 of it: the group a-x15-*
  // (positions 61-64) has three members in the first slice and one in
  // the second.  Each slice builds one level a+x per group it holds, per
  // tile: x0..x15 and x15..x16, 18 a tile, nothing reused.
  const MiningSpace space(Grid::UnitSquare(10), 0.1);
  Rng rng(31);
  TrajectoryDataset d;
  for (int i = 0; i < 300; ++i) {
    Trajectory t("g" + std::to_string(i));
    const int len = rng.UniformInt(60, 110);
    for (int s = 0; s < len; ++s) {
      t.Append(Point2(rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)), 0.05);
    }
    d.Add(std::move(t));
  }
  NmEngine engine(d, space);
  const std::vector<CellId> touched = engine.TouchedCells();
  ASSERT_GE(touched.size(), 40u);
  const CellId a = touched[0];
  std::vector<Pattern> batch;
  for (size_t x = 0; x < 17; ++x) {
    for (size_t y = 0; y < 4; ++y) {
      batch.emplace_back(std::vector<CellId>{a, touched[1 + 2 * x],
                                             touched[35 + y]});
    }
  }
  for (const CellId x : touched) batch.emplace_back(x);
  ReferenceScorer reference(d, space);
  for (const int threads : {1, 4}) {
    BatchScoreStats nm_stats, match_stats;
    const std::vector<double> nm =
        engine.NmTotalBatch(batch, threads, &nm_stats);
    const std::vector<double> match =
        engine.MatchTotalBatch(batch, threads, &match_stats);
    EXPECT_GE(nm_stats.tiles, 3) << threads << " threads";
    EXPECT_EQ(nm_stats.prefix_levels_built, 18 * nm_stats.tiles)
        << threads << " threads";
    EXPECT_EQ(nm_stats.prefix_levels_reused, 0) << threads << " threads";
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(BitEqual(nm[i], reference.NmTotal(batch[i])))
          << batch[i].ToString() << ", " << threads << " threads";
      EXPECT_TRUE(BitEqual(match[i], reference.MatchTotal(batch[i])))
          << batch[i].ToString() << ", " << threads << " threads";
    }
  }
}

TEST(WindowKernelTest, AllWildcardPatternsAreRejected) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(4, 5, 13);
  NmEngine engine(d, space);

  const Pattern empty{std::vector<CellId>{}};
  const Pattern stars(std::vector<CellId>{kWildcardCell, kWildcardCell});
  EXPECT_EQ(NmEngine::ValidateScorable(empty).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(NmEngine::ValidateScorable(stars).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(NmEngine::ValidateScorable(Pattern(CellId{0})).ok());
  EXPECT_TRUE(
      NmEngine::ValidateScorable(Pattern(std::vector<CellId>{0, kWildcardCell}))
          .ok());

  // The NM entry points reject by value (-inf: unreachable by any real
  // pattern) rather than dividing by the zero specified-count, and so
  // does the reference.
  EXPECT_EQ(engine.NmTotal(stars), kNegInf);
  const std::vector<double> batch =
      engine.NmTotalBatch({Pattern(CellId{0}), stars});
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_GT(batch[0], kNegInf);
  EXPECT_EQ(batch[1], kNegInf);
  ReferenceScorer reference(d, space);
  EXPECT_EQ(reference.NmTotal(stars), kNegInf);
  EXPECT_EQ(reference.Nm(stars, 0), kNegInf);

  // Match does not normalize: the all-wildcard pattern stays defined and
  // scores 1 per trajectory long enough to host a window.
  EXPECT_EQ(engine.MatchTotal(stars), static_cast<double>(d.size()));
}

TEST(WindowKernelTest, EmptyDatasetScoresZeroAndWarmsNothing) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d;
  NmEngine engine(d, space);
  EXPECT_TRUE(engine.TouchedCells().empty());
  // Cells 0-2 lie in grid columns 0-2 of grid row 0: four vectors.
  EXPECT_EQ(engine.WarmCells({0, 1, 2}), 4u);
  EXPECT_EQ(engine.num_cached_cells(), 4u);
  // Zero-length vectors: scoring sums over no trajectories.
  EXPECT_EQ(engine.NmTotal(Pattern(CellId{0})), 0.0);
  EXPECT_EQ(engine.MatchTotal(Pattern(CellId{0})), 0.0);
}

TEST(WindowKernelTest, SingleSnapshotTrajectoriesFloorLongPatterns) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  TrajectoryDataset d;
  for (int i = 0; i < 3; ++i) {
    Trajectory t("t" + std::to_string(i));
    t.Append(Point2(0.3, 0.3), 0.05);
    d.Add(std::move(t));
  }
  NmEngine engine(d, space);
  const CellId c = space.grid.CellOf(Point2(0.3, 0.3));
  // A length-2 pattern fits no window: every trajectory contributes the
  // log floor to NM and 0 to match.
  const Pattern pair(std::vector<CellId>{c, c});
  EXPECT_EQ(engine.NmTotal(pair), 3.0 * LogFloor());
  EXPECT_EQ(engine.MatchTotal(pair), 0.0);
  // Singulars still score normally.
  EXPECT_GT(engine.NmTotal(Pattern(c)), 3.0 * LogFloor());
}

TEST(WindowKernelTest, RewarmingIsANoOp) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(6, 6, 17);
  NmEngine engine(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);

  const std::vector<CellId> two{cells[0], cells[1]};
  const size_t vectors = FactorVectors(space.grid, two);
  EXPECT_EQ(engine.WarmCells(two), vectors);
  EXPECT_EQ(engine.num_cached_cells(), vectors);
  // Re-warming (with duplicates) adds nothing and grows nothing.
  EXPECT_EQ(engine.WarmCells({cells[0], cells[1], cells[0]}), 0u);
  EXPECT_EQ(engine.num_cached_cells(), vectors);
  // A batch over warmed-plus-new cells warms exactly the new vectors.
  BatchScoreStats stats;
  engine.NmTotalBatch(MixedPatterns(engine), 1, &stats);
  EXPECT_EQ(engine.num_cached_cells(), vectors + stats.cells_warmed);
  EXPECT_GT(stats.cells_warmed, 0u);
}

TEST(WindowKernelTest, WarmingEmptyCellListIsANoOp) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(4, 5, 19);
  NmEngine engine(d, space);
  NmEngine::WarmStats stats;
  EXPECT_EQ(engine.WarmCells({}, 4, &stats), 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(engine.num_cached_cells(), 0u);
  // A wildcard-only request is equally empty: wildcards have no column.
  EXPECT_EQ(engine.WarmCells({kWildcardCell, kWildcardCell}, 1, &stats), 0u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
}

TEST(WindowKernelTest, WarmStatsSplitHitsAndMisses) {
  const MiningSpace space(Grid::UnitSquare(4), 0.25);
  const TrajectoryDataset d = UniformData(6, 6, 17);
  NmEngine engine(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);

  NmEngine::WarmStats stats;
  // Cold: each cell asks for its two factor vectors.  The distinct
  // vectors of the two distinct cells miss; every other ask — the
  // in-request duplicate cell's, and a vector the two cells share — is a
  // hit on one staged by the same call.
  const size_t vectors = FactorVectors(space.grid, {cells[0], cells[1]});
  EXPECT_EQ(engine.WarmCells({cells[0], cells[1], cells[0]}, 1, &stats),
            vectors);
  EXPECT_EQ(stats.misses, vectors);
  EXPECT_EQ(stats.hits, 6u - vectors);
  // Warm: every ask is a hit, nothing is computed.
  EXPECT_EQ(engine.WarmCells({cells[1], cells[0]}, 1, &stats), 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 4u);

  // The batch stats surface the same split: a second identical batch
  // warms nothing and reports every vector request as a hit.
  BatchScoreStats cold, warm;
  const std::vector<Pattern> patterns = MixedPatterns(engine);
  engine.NmTotalBatch(patterns, 1, &cold);
  engine.NmTotalBatch(patterns, 1, &warm);
  EXPECT_EQ(warm.cells_warmed, 0u);
  EXPECT_EQ(warm.cells_hit, cold.cells_hit + cold.cells_warmed);
}

TEST(WindowKernelTest, WarmOrderAndThreadCountDoNotChangeScores) {
  const MiningSpace space(Grid::UnitSquare(5), 0.2);
  const TrajectoryDataset d = UniformData(12, 9, 29);
  NmEngine reference(d, space);
  const std::vector<CellId> cells = reference.TouchedCells();
  ASSERT_GE(cells.size(), 3u);
  const std::vector<Pattern> patterns = MixedPatterns(reference);
  reference.WarmCells(cells, 1);
  const std::vector<double> want = reference.NmTotalBatch(patterns, 1);

  Rng rng(31);
  for (int threads : {1, 2, 4}) {
    std::vector<CellId> shuffled = cells;
    for (size_t i = shuffled.size(); i > 1; --i) {
      std::swap(shuffled[i - 1],
                shuffled[static_cast<size_t>(
                    rng.UniformInt(0, static_cast<int>(i) - 1))]);
    }
    NmEngine engine(d, space);
    EXPECT_EQ(engine.WarmCells(shuffled, threads),
              FactorVectors(space.grid, cells));
    EXPECT_TRUE(BitEqual(engine.NmTotalBatch(patterns, threads), want))
        << threads << " threads, shuffled warm order";
  }
}

TEST(WindowKernelTest, FactoredWarmupMatchesLazySerialPath) {
  // A parallel warm-up of every touched cell's factor vectors, then a
  // batch, must score bit-identically to the serial per-pattern entry
  // points, which warm one pattern's vectors at a time — under the
  // rectangular model (grid-column and grid-row factors) and the radial
  // one (a column per cell paired with the +0.0 vector).
  for (const IndifferenceModel model :
       {IndifferenceModel::kRectangular, IndifferenceModel::kRadial}) {
    const MiningSpace space(Grid::UnitSquare(4), 0.25, model);
    const TrajectoryDataset d = UniformData(8, 7, 37);
    NmEngine lazy(d, space);
    const std::vector<Pattern> patterns = MixedPatterns(lazy);
    std::vector<double> want(patterns.size());
    for (size_t i = 0; i < patterns.size(); ++i) {
      want[i] = lazy.NmTotal(patterns[i]);
    }
    NmEngine warmed(d, space);
    warmed.WarmCells(warmed.TouchedCells(), 4);
    const std::vector<double> got = warmed.NmTotalBatch(patterns, 4);
    EXPECT_TRUE(BitEqual(got, want))
        << (model == IndifferenceModel::kRadial ? "radial" : "rectangular");
  }
}

TEST(WindowKernelTest, CheckpointV2RoundTripsWorkCounters) {
  MinerCheckpoint cp;
  cp.iteration = 3;
  cp.k = 5;
  cp.omega = -12.5;
  cp.candidates_evaluated = 12345;
  cp.candidates_pruned = 678;
  cp.scores.emplace(std::vector<CellId>{1, kWildcardCell, 2}, -13.25);
  cp.scores.emplace(std::vector<CellId>{1}, -11.5);
  cp.scores.emplace(std::vector<CellId>{2}, -14.0);
  cp.prev_high.push_back(1);  // cells 1
  cp.prev_queue.push_back(2);  // cells 2

  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(cp, ss).ok());
  EXPECT_NE(ss.str().find("trajpattern_checkpoint,v5"), std::string::npos);

  MinerCheckpoint back;
  ASSERT_TRUE(ReadMinerCheckpoint(ss, &back).ok());
  EXPECT_EQ(back.iteration, 3);
  EXPECT_EQ(back.k, 5);
  EXPECT_EQ(back.candidates_evaluated, 12345);
  EXPECT_EQ(back.candidates_pruned, 678);
  ASSERT_EQ(back.scores.size(), 3u);
  EXPECT_EQ(back.scores.pattern(0), cp.scores.pattern(0));
  EXPECT_TRUE(BitEqual(back.scores.nm(0), cp.scores.nm(0)));
  EXPECT_EQ(back.prev_high, cp.prev_high);
  EXPECT_EQ(back.prev_queue, cp.prev_queue);
}

TEST(WindowKernelTest, CheckpointReaderRefusesOtherVersions) {
  // A v1 file as written before the work counters existed, under the old
  // interval measure: refused with a typed status that names the
  // measure change, not loaded.
  const std::string v1 =
      "trajpattern_checkpoint,v1\n"
      "iteration,2\n"
      "k,4\n"
      "omega,-0x1.9p+3\n"
      "scores,1\n"
      "-0x1.ap+3,7;*;9\n"
      "prev_high,1\n"
      "7;*;9\n"
      "prev_queue,0\n"
      "end\n";
  std::stringstream ss(v1);
  MinerCheckpoint cp;
  const Status s1 = ReadMinerCheckpoint(ss, &cp);
  EXPECT_EQ(s1.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s1.ToString().find("measure"), std::string::npos) << s1.ToString();
  EXPECT_EQ(cp.scores.size(), 0u);

  // A v3 file (sharded runs) is refused with its own typed status, not
  // the bad-header one; an unknown version is corruption.
  std::stringstream v3("trajpattern_checkpoint,v3\nend\n");
  const Status s3 = ReadMinerCheckpoint(v3, &cp);
  EXPECT_EQ(s3.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(s3.ToString().find("v3"), std::string::npos) << s3.ToString();
  std::stringstream bad("trajpattern_checkpoint,v9\nend\n");
  EXPECT_EQ(ReadMinerCheckpoint(bad, &cp).code(), StatusCode::kDataLoss);
}

}  // namespace
}  // namespace trajpattern
