#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <vector>

#include "common/run_context.h"
#include "core/miner.h"
#include "core/mining_space.h"
#include "core/nm_engine.h"
#include "datagen/bus_generator.h"
#include "datagen/uniform_generator.h"
#include "datagen/zebranet_generator.h"
#include "prob/log_space.h"
#include "prob/normal.h"
#include "prob/rng.h"
#include "testing/reference_scorer.h"
#include "trajectory/transform.h"

namespace trajpattern {
namespace {

MiningSpace TestSpace(int n = 4, double delta = 0.1) {
  return MiningSpace(Grid::UnitSquare(n), delta);
}

bool BitEq(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

TrajectoryDataset OneTrajectory(std::initializer_list<Point2> means,
                                double sigma = 0.05) {
  Trajectory t("t0");
  for (const auto& m : means) t.Append(m, sigma);
  TrajectoryDataset d;
  d.Add(std::move(t));
  return d;
}

TEST(NmEngineTest, SingularNmIsBestSnapshot) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d =
      OneTrajectory({{0.1, 0.1}, {0.9, 0.9}, {0.4, 0.4}});
  NmEngine engine(d, space);
  const CellId c = space.grid.CellOf(Point2(0.1, 0.1));
  const Pattern p(c);
  double best = -1e300;
  for (const auto& pt : d[0]) {
    best = std::max(best, space.LogProb(pt, c));
  }
  EXPECT_NEAR(engine.NmTotal(p), best, 1e-12);
}

TEST(NmEngineTest, PairNmIsBestWindowMean) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d =
      OneTrajectory({{0.1, 0.1}, {0.6, 0.6}, {0.9, 0.9}});
  NmEngine engine(d, space);
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));
  const Pattern p({std::vector<CellId>{a, b}});
  // Two windows: (s0, s1) and (s1, s2).
  const double w0 =
      space.LogProb(d[0][0], a) + space.LogProb(d[0][1], b);
  const double w1 =
      space.LogProb(d[0][1], a) + space.LogProb(d[0][2], b);
  EXPECT_NEAR(engine.NmTotal(p), std::max(w0, w1) / 2.0, 1e-12);
}

TEST(NmEngineTest, NmSumsOverTrajectories) {
  const MiningSpace space = TestSpace();
  TrajectoryDataset d;
  Trajectory t1("a");
  t1.Append(Point2(0.1, 0.1), 0.05);
  Trajectory t2("b");
  t2.Append(Point2(0.9, 0.9), 0.05);
  d.Add(t1);
  d.Add(t2);
  NmEngine all(d, space);

  TrajectoryDataset d1, d2;
  d1.Add(t1);
  d2.Add(t2);
  NmEngine e1(d1, space);
  NmEngine e2(d2, space);

  const Pattern p(space.grid.CellOf(Point2(0.1, 0.1)));
  EXPECT_NEAR(all.NmTotal(p), e1.NmTotal(p) + e2.NmTotal(p), 1e-12);
}

TEST(NmEngineTest, TooShortTrajectoryContributesFloor) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d = OneTrajectory({{0.1, 0.1}});
  NmEngine engine(d, space);
  const CellId c = space.grid.CellOf(Point2(0.1, 0.1));
  const Pattern p({std::vector<CellId>{c, c}});
  EXPECT_DOUBLE_EQ(engine.NmTotal(p), LogFloor());
  EXPECT_DOUBLE_EQ(engine.MatchTotal(p), 0.0);
}

TEST(NmEngineTest, MatchIsExpOfBestWindowSum) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d = OneTrajectory({{0.1, 0.1}, {0.6, 0.6}});
  NmEngine engine(d, space);
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));
  const Pattern p({std::vector<CellId>{a, b}});
  const double sum = space.LogProb(d[0][0], a) + space.LogProb(d[0][1], b);
  EXPECT_NEAR(engine.MatchTotal(p), std::exp(sum), 1e-12);
}

TEST(NmEngineTest, WildcardPositionScoresLogOne) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d = OneTrajectory({{0.1, 0.1}, {0.6, 0.6}});
  NmEngine engine(d, space);
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const Pattern p({std::vector<CellId>{a, kWildcardCell}});
  // The wildcard contributes log 1 = 0 to the window sum and does not
  // count toward the normalization (SpecifiedCount() == 1).
  const double expected = space.LogProb(d[0][0], a);
  EXPECT_NEAR(engine.NmTotal(p), expected, 1e-12);
}

TEST(NmEngineTest, TouchedCellsCoverSnapshotMeans) {
  const UniformGeneratorOptions gopt{.num_objects = 10,
                                     .num_snapshots = 10,
                                     .seed = 5};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = TestSpace(8, 0.02);
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  for (const auto& t : d) {
    for (const auto& pt : t) {
      const CellId c = space.grid.CellOf(pt.mean);
      EXPECT_TRUE(std::binary_search(cells.begin(), cells.end(), c));
    }
  }
}

// A Fig. 4-shaped ZebraNet set: a 10x10 grid, delta one cell.
TrajectoryDataset ZebraData() {
  ZebraNetGeneratorOptions opt;
  opt.num_zebras = 60;
  opt.num_groups = 6;
  opt.num_snapshots = 20;
  opt.sigma = 0.006;
  opt.seed = 3;
  return GenerateZebraNet(opt);
}

MiningSpace ZebraSpace() {
  const Grid grid = Grid::UnitSquare(10);
  return MiningSpace(grid, grid.cell_width());
}

// §6.1 bus velocities on a 24x24 grid over their bounding box, delta half
// a cell: sigma spans about two cells, so few entries are floored.
TrajectoryDataset VelocityData() {
  BusGeneratorOptions opt;
  opt.num_routes = 2;
  opt.buses_per_route = 3;
  opt.num_days = 2;
  opt.num_snapshots = 40;
  opt.waypoint_pool = 14;
  opt.seed = 5;
  return ToVelocityTrajectories(GenerateBusTraces(opt));
}

MiningSpace VelocitySpace(const TrajectoryDataset& d) {
  const Grid grid(d.MeanBoundingBox(0.005), 24, 24);
  return MiningSpace(grid,
                     0.5 * std::max(grid.cell_width(), grid.cell_height()));
}

// What `TouchedCells` computes, by its definition: the sorted union of
// every point's `Grid::CellsWithin` list at radius
// radius_sigmas * sigma + delta + half a cell.
std::vector<CellId> TouchedCellsByDefinition(const TrajectoryDataset& d,
                                             const MiningSpace& space,
                                             double radius_sigmas) {
  std::set<CellId> seen;
  for (const auto& t : d) {
    for (const auto& pt : t) {
      const double r = radius_sigmas * pt.sigma + space.delta +
                       0.5 * std::max(space.grid.cell_width(),
                                      space.grid.cell_height());
      for (CellId c : space.grid.CellsWithin(pt.mean, r)) seen.insert(c);
    }
  }
  return std::vector<CellId>(seen.begin(), seen.end());
}

TEST(NmEngineTest, TouchedCellsIsTheUnionOfCellsWithin) {
  const TrajectoryDataset zebra = ZebraData();
  const TrajectoryDataset velocity = VelocityData();
  const struct {
    const TrajectoryDataset* data;
    MiningSpace space;
  } cases[] = {{&zebra, ZebraSpace()}, {&velocity, VelocitySpace(velocity)}};
  for (const auto& c : cases) {
    NmEngine engine(*c.data, c.space);
    for (const double radius_sigmas : {0.0, 1.0, 3.0}) {
      const std::vector<CellId> expected =
          TouchedCellsByDefinition(*c.data, c.space, radius_sigmas);
      ASSERT_FALSE(expected.empty());
      EXPECT_EQ(engine.TouchedCells(radius_sigmas), expected)
          << "radius_sigmas=" << radius_sigmas;
    }
  }
}

TEST(NmEngineTest, TouchedCellsClampsPointsOutsideTheGridAndHugeSigmas) {
  const MiningSpace space = TestSpace(8, 0.02);
  // Points beyond each side of the unit square, one inside.
  const TrajectoryDataset outside = OneTrajectory(
      {{-0.3, 0.5}, {1.4, 1.2}, {0.5, -2.0}, {0.55, 0.45}}, 0.01);
  NmEngine outside_engine(outside, space);
  const std::vector<CellId> expected =
      TouchedCellsByDefinition(outside, space, 3.0);
  EXPECT_EQ(outside_engine.TouchedCells(3.0), expected);
  EXPECT_LT(expected.size(), static_cast<size_t>(space.grid.num_cells()));

  // A knows-nothing sigma: every cell is within reach.
  const TrajectoryDataset wide = OneTrajectory({{0.5, 0.5}, {-5.0, 9.0}}, 1e6);
  NmEngine wide_engine(wide, space);
  std::vector<CellId> all(static_cast<size_t>(space.grid.num_cells()));
  for (CellId c = 0; c < space.grid.num_cells(); ++c) {
    all[static_cast<size_t>(c)] = c;
  }
  EXPECT_EQ(TouchedCellsByDefinition(wide, space, 3.0), all);
  EXPECT_EQ(wide_engine.TouchedCells(3.0), all);
}

// Every log-prob entry the walk folds is finite, in [LogFloor(), 0] and
// never -0.0: the walk materializes a first specified position as its own
// prefix sum, and the AVX2 kernels reassociate max, which both rely on.
// Under the rectangular model each entry is AddLogFactors of two floored
// 1-D log factors, the bits of `LogNormalIntervalProb` that the engine's
// factor table holds.  The singular scores the engine builds from that
// table, from a batch warm-up on 2 threads or one pattern at a time, are
// each trajectory's best entry summed in trajectory order, bit for bit.
TEST(NmEngineTest, ColumnEntriesLieInTheFlooredLogDomain) {
  const TrajectoryDataset zebra = ZebraData();
  const TrajectoryDataset velocity = VelocityData();
  const struct {
    const TrajectoryDataset* data;
    MiningSpace space;
  } cases[] = {{&zebra, ZebraSpace()}, {&velocity, VelocitySpace(velocity)}};
  const auto in_domain = [](double e) {
    return e >= LogFloor() && e <= 0.0 && !(e == 0.0 && std::signbit(e));
  };
  size_t total_floored = 0;
  for (const auto& c : cases) {
    const Grid& grid = c.space.grid;
    const double delta = c.space.delta;
    std::vector<CellId> cells(static_cast<size_t>(grid.num_cells()));
    std::vector<Pattern> singulars;
    for (CellId cell = 0; cell < grid.num_cells(); ++cell) {
      cells[static_cast<size_t>(cell)] = cell;
      singulars.emplace_back(cell);
    }
    NmEngine batch(*c.data, c.space);
    ASSERT_EQ(batch.WarmCells(cells, 2),
              static_cast<size_t>(grid.nx() + grid.ny()));
    const std::vector<double> batch_nm = batch.NmTotalBatch(singulars, 2);
    NmEngine serial(*c.data, c.space);
    size_t floored = 0;
    size_t entries = 0;
    for (const CellId cell : cells) {
      const Point2 center = grid.CenterOf(cell);
      double want = 0.0;
      for (const auto& t : *c.data) {
        double best = -std::numeric_limits<double>::infinity();
        for (const auto& pt : t) {
          const double fx = LogNormalIntervalProb(
              pt.mean.x, pt.sigma, center.x - delta, center.x + delta);
          const double fy = LogNormalIntervalProb(
              pt.mean.y, pt.sigma, center.y - delta, center.y + delta);
          ASSERT_TRUE(in_domain(fx)) << "cell " << cell << ": " << fx;
          ASSERT_TRUE(in_domain(fy)) << "cell " << cell << ": " << fy;
          const double e = c.space.LogProb(pt, cell);
          ASSERT_TRUE(in_domain(e)) << "cell " << cell << ": " << e;
          ASSERT_TRUE(BitEq(e, AddLogFactors(fx, fy))) << "cell " << cell;
          best = std::max(best, e);
          floored += e == LogFloor();
          ++entries;
        }
        want += best;  // a singular's NM is its best entry over 1
      }
      const size_t i = static_cast<size_t>(cell);
      EXPECT_TRUE(BitEq(batch_nm[i], want)) << "cell " << cell;
      EXPECT_TRUE(BitEq(serial.NmTotal(singulars[i]), want)) << "cell " << cell;
    }
    // Both the floored and the unfloored side of the domain are covered
    // (the velocity grid spans only ~11 sigma, so it floors little).
    total_floored += floored;
    EXPECT_LT(floored, entries);
  }
  EXPECT_GT(total_floored, 0u);
}

TEST(NmEngineTest, CountersTrackWork) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d = OneTrajectory({{0.1, 0.1}, {0.6, 0.6}});
  NmEngine engine(d, space);
  EXPECT_EQ(engine.num_cached_cells(), 0u);
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));
  engine.NmTotal(Pattern(a));
  // The cache holds factor vectors: a's grid column and grid row.
  EXPECT_EQ(engine.num_cached_cells(), 2u);
  // Re-scoring the same cell reuses its vectors.
  engine.NmTotal(Pattern(std::vector<CellId>{a, a}));
  EXPECT_EQ(engine.num_cached_cells(), 2u);
  // b shares neither a's column nor a's row.
  engine.MatchTotal(Pattern(b));
  EXPECT_EQ(engine.num_cached_cells(), 4u);
}

// A cell outside the grid (a pattern mined on a finer grid, or a corrupt
// pattern file) has no factor vectors.  Every entry point scores such a
// pattern as unscorable (NM -inf, Match 0) and warms nothing for it, and
// the other patterns of a batch keep their bits.
TEST(NmEngineTest, PatternsWithCellsOutsideTheGridAreUnscorable) {
  constexpr double kNegInf = -std::numeric_limits<double>::infinity();
  const MiningSpace space = TestSpace();  // 4x4: cells 0-15
  const TrajectoryDataset d =
      OneTrajectory({{0.1, 0.1}, {0.6, 0.6}, {0.9, 0.9}, {0.4, 0.4}});
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));
  const Pattern ab(std::vector<CellId>{a, b});
  const Pattern ba(std::vector<CellId>{b, kWildcardCell, a});
  NmEngine reference(d, space);
  const double nm_ab = reference.NmTotal(ab);
  const double nm_ba = reference.NmTotal(ba);
  const double match_ab = reference.MatchTotal(ab);
  const double match_ba = reference.MatchTotal(ba);
  for (const CellId bad :
       {CellId{space.grid.num_cells()}, CellId{2000000000}}) {
    const std::vector<Pattern> outside = {
        Pattern(bad), Pattern(std::vector<CellId>{a, bad}),
        Pattern(std::vector<CellId>{bad, kWildcardCell, b})};
    for (const Pattern& p : outside) {
      NmEngine engine(d, space);
      EXPECT_EQ(engine.NmTotal(p), kNegInf) << p.ToString();
      EXPECT_EQ(engine.MatchTotal(p), 0.0) << p.ToString();
      EXPECT_EQ(engine.num_cached_cells(), 0u) << p.ToString();
    }
    // In a batch, at 1 and 4 threads, and under a budget of the four
    // factor vectors of a and b (a column and a row each), which the
    // out-of-grid patterns' own cells would overflow.
    const std::vector<Pattern> batch = {ab, outside[0], outside[1], ba,
                                        outside[2]};
    for (const int threads : {1, 4}) {
      for (const bool budget : {false, true}) {
        NmEngine engine(d, space);
        RunContext run;
        if (budget) run.memory_budget_bytes = 4 * engine.column_bytes();
        BatchScoreStats stats;
        const std::vector<double> nm =
            engine.NmTotalBatch(batch, threads, &stats, &run);
        EXPECT_EQ(stats.stop, StopReason::kNone);
        const std::vector<double> match =
            engine.MatchTotalBatch(batch, threads, &stats, &run);
        EXPECT_EQ(stats.stop, StopReason::kNone);
        EXPECT_EQ(engine.num_cached_cells(), 4u);
        EXPECT_TRUE(BitEq(nm[0], nm_ab));
        EXPECT_TRUE(BitEq(nm[3], nm_ba));
        EXPECT_TRUE(BitEq(match[0], match_ab));
        EXPECT_TRUE(BitEq(match[3], match_ba));
        for (const size_t i : {1, 2, 4}) {
          EXPECT_EQ(nm[i], kNegInf) << batch[i].ToString();
          EXPECT_EQ(match[i], 0.0) << batch[i].ToString();
        }
      }
    }
    // Warming such a cell directly is a no-op: only a's two vectors.
    NmEngine engine(d, space);
    NmEngine::WarmStats ws;
    EXPECT_EQ(engine.WarmCells({a, bad}, 1, &ws), 2u);
    EXPECT_EQ(ws.hits + ws.misses, 2u);
  }
}

// The factor cache holds one vector per grid column and one per grid row
// under the rectangular model, so a whole mine on a 10x10 grid never
// allocates more than 20, however many cells it scores.
TEST(NmEngineTest, FullMineKeepsAtMostOneVectorPerGridColumnAndRow) {
  const TrajectoryDataset data = ZebraData();
  const MiningSpace space = ZebraSpace();
  NmEngine engine(data, space);
  MinerOptions opt;
  opt.k = 10;
  opt.max_pattern_length = 4;
  const MiningResult result = MineTrajPatterns(engine, opt);
  ASSERT_FALSE(result.patterns.empty());
  EXPECT_GT(engine.TouchedCells().size(), 20u);
  EXPECT_LE(engine.arena_peak_bytes(), 20 * engine.column_bytes());
  EXPECT_LE(engine.num_cached_cells(), 20u);
  EXPECT_EQ(result.stats.cells_cached, engine.num_cached_cells());
}

// Each factor vector is one buffer.  Every warm-up that allocates asks the
// fault hook once, with the bytes of the resident plus requested vectors,
// and the peak counts vectors.  Under a 2-vector budget, warming a cell
// in another grid column and row evicts the first cell's two vectors and
// asks the hook for two new ones: nothing freed is reused without asking.
// A failing hook then publishes nothing.
TEST(NmEngineTest, FaultHookAndPeakCountResidentPlusRequestedVectors) {
  const MiningSpace space = TestSpace();  // 4x4
  const TrajectoryDataset d = OneTrajectory({{0.1, 0.1}, {0.6, 0.6}});
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));  // column 0, row 0
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));  // column 2, row 2
  for (const bool fail : {false, true}) {
    NmEngine engine(d, space);
    const size_t vector = engine.column_bytes();
    std::vector<size_t> asked;
    size_t resident_when_asked = 0;
    engine.set_alloc_fault_hook([&](size_t bytes) {
      asked.push_back(bytes);
      resident_when_asked = engine.num_cached_cells();
      return fail && asked.size() == 2;
    });
    EXPECT_EQ(engine.WarmCells({a}), 2u);
    EXPECT_EQ(asked, std::vector<size_t>{2 * vector});
    EXPECT_EQ(engine.arena_peak_bytes(), 2 * vector);

    RunContext run;
    run.memory_budget_bytes = 2 * vector;
    NmEngine::WarmStats ws;
    const size_t warmed = engine.WarmCells({b}, 1, &ws, &run);
    EXPECT_EQ(ws.evicted, 2u) << "fail=" << fail;
    EXPECT_EQ(asked, (std::vector<size_t>{2 * vector, 2 * vector}))
        << "fail=" << fail;
    EXPECT_EQ(engine.arena_peak_bytes(), 2 * vector) << "fail=" << fail;
    if (fail) {
      EXPECT_EQ(ws.stop, StopReason::kAllocFailed);
      EXPECT_EQ(warmed, 0u);
      EXPECT_EQ(engine.num_cached_cells(), resident_when_asked);
    } else {
      EXPECT_EQ(ws.stop, StopReason::kNone);
      EXPECT_EQ(warmed, 2u);
      EXPECT_EQ(engine.num_cached_cells(), 2u);
      // Without a budget nothing is evicted: the hook sees the two
      // resident vectors plus the two requested ones.
      const CellId c = space.grid.CellOf(Point2(0.35, 0.35));  // 1, 1
      EXPECT_EQ(engine.WarmCells({c}), 2u);
      EXPECT_EQ(asked.back(), 4 * vector);
      EXPECT_EQ(engine.arena_peak_bytes(), 4 * vector);
    }
  }
}

// A stop that fires after the buffers are allocated but before they are
// filled (here the fault hook cancels the run) skips every fill.  None of
// the unfilled buffers is published, so the same engine, asked again
// without a stop, scores a fresh engine's bits.
TEST(NmEngineTest, BuffersAStopLeftUnfilledAreNotPublished) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d = OneTrajectory({{0.1, 0.1}, {0.6, 0.6}});
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));
  const Pattern p(std::vector<CellId>{a, b});
  NmEngine fresh(d, space);
  const double want = fresh.NmTotal(p);
  for (const int threads : {1, 4}) {
    NmEngine engine(d, space);
    RunContext run;
    engine.set_alloc_fault_hook([&run](size_t) {
      run.token.Cancel();
      return false;
    });
    NmEngine::WarmStats ws;
    EXPECT_EQ(engine.WarmCells(p.cells(), threads, &ws, &run), 0u);
    EXPECT_EQ(ws.stop, StopReason::kCancelled);
    EXPECT_EQ(engine.num_cached_cells(), 0u);
    engine.set_alloc_fault_hook(nullptr);
    EXPECT_TRUE(BitEq(engine.NmTotal(p), want)) << threads << " threads";
  }
}

// The radial model keeps a column per cell, paired with one shared +0.0
// vector.  A budget of four vectors holds any pattern of up to three
// distinct cells (its columns and the +0.0 vector), so a batch over many
// cells is chunked and each chunk's warm-up evicts columns it does not
// need.  The +0.0 vector is never the victim: every radial request that
// can evict needs it, and eviction spares the request's own vectors.  The
// scores stay the point-at-a-time reference's, bit for bit, and a pattern
// of four distinct cells, whose five vectors exceed the budget, stops the
// batch with the typed budget reason.
TEST(NmEngineTest, RadialFactorCacheEvictsUnderABudgetAndKeepsItsBits) {
  const MiningSpace space(Grid::UnitSquare(5), 0.2,
                          IndifferenceModel::kRadial);
  const UniformGeneratorOptions gopt{.num_objects = 12,
                                     .num_snapshots = 9,
                                     .seed = 29};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  NmEngine engine(d, space);
  ReferenceScorer reference(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 8u);
  const CellId w = kWildcardCell;
  std::vector<Pattern> batch;
  for (size_t i = 0; i < cells.size(); ++i) {
    const CellId a = cells[i];
    const CellId b = cells[(i + 1) % cells.size()];
    const CellId c = cells[(i + 3) % cells.size()];
    batch.emplace_back(a);
    batch.emplace_back(std::vector<CellId>{a, b});
    batch.emplace_back(std::vector<CellId>{a, w, c, b});
    batch.emplace_back(std::vector<CellId>{c, a, c});
  }
  RunContext run;
  run.memory_budget_bytes = 4 * engine.column_bytes();
  for (const int threads : {1, 4}) {
    BatchScoreStats nm_stats, match_stats;
    const std::vector<double> nm =
        engine.NmTotalBatch(batch, threads, &nm_stats, &run);
    const std::vector<double> match =
        engine.MatchTotalBatch(batch, threads, &match_stats, &run);
    ASSERT_EQ(nm_stats.stop, StopReason::kNone);
    ASSERT_EQ(match_stats.stop, StopReason::kNone);
    EXPECT_GE(nm_stats.chunks, 2);
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_TRUE(BitEq(nm[i], reference.NmTotal(batch[i])))
          << threads << " threads, " << batch[i].ToString();
      EXPECT_TRUE(BitEq(match[i], reference.MatchTotal(batch[i])))
          << threads << " threads, " << batch[i].ToString();
    }
  }
  EXPECT_GT(engine.cells_evicted(), 0u);
  EXPECT_LE(engine.num_cached_cells(), 4u);
  EXPECT_LE(engine.arena_peak_bytes(), run.memory_budget_bytes);

  const Pattern four(
      std::vector<CellId>{cells[0], cells[1], cells[2], cells[3]});
  BatchScoreStats stats;
  engine.NmTotalBatch({batch[0], four}, 1, &stats, &run);
  EXPECT_EQ(stats.stop, StopReason::kMemoryBudgetExceeded);
}

// Over a budget, a warm-up frees the lowest resident factor ids that its
// request does not need, and no more than it must; how recently a vector
// was used plays no part.  On a 10x10 grid cell (c, c) needs grid column
// c and grid row c, factor ids {c, 10 + c}.  With cells (7, 7) and then
// (1, 1) warm, ids {1, 7, 11, 17} fill a budget of four, so a request
// for cell (3, 3) frees ids 1 and 7, not the older 7 and 17, and warming
// (1, 1) again misses once, for id 1.  A request whose own vectors exceed
// the budget frees nothing.
TEST(NmEngineTest, BudgetEvictsTheLowestIdsTheRequestDoesNotNeed) {
  const MiningSpace space = TestSpace(10, 0.08);
  const TrajectoryDataset d =
      OneTrajectory({{0.15, 0.15}, {0.75, 0.75}, {0.35, 0.35}, {0.7, 0.1}});
  const auto diagonal = [&](int c) { return space.grid.At(c, c); };
  NmEngine engine(d, space);
  RunContext run;
  run.memory_budget_bytes = 4 * engine.column_bytes();
  NmEngine::WarmStats ws;
  EXPECT_EQ(engine.WarmCells({diagonal(7)}, 1, &ws, &run), 2u);
  EXPECT_EQ(engine.WarmCells({diagonal(1)}, 1, &ws, &run), 2u);
  EXPECT_EQ(ws.evicted, 0u);
  EXPECT_EQ(engine.WarmCells({diagonal(3)}, 1, &ws, &run), 2u);
  EXPECT_EQ(ws.evicted, 2u);
  EXPECT_EQ(engine.cells_evicted(), 2u);
  EXPECT_EQ(engine.num_cached_cells(), 4u);
  EXPECT_LE(engine.arena_peak_bytes(), run.memory_budget_bytes);
  EXPECT_EQ(engine.WarmCells({diagonal(1)}, 1, &ws, &run), 1u);
  EXPECT_EQ(ws.misses, 1u);
  EXPECT_EQ(ws.hits, 1u);
  EXPECT_EQ(ws.evicted, 1u);
  EXPECT_EQ(engine.WarmCells({diagonal(2), diagonal(4), diagonal(6)}, 1, &ws,
                             &run),
            0u);
  EXPECT_EQ(ws.stop, StopReason::kMemoryBudgetExceeded);
  EXPECT_EQ(ws.evicted, 0u);
  EXPECT_EQ(engine.num_cached_cells(), 4u);

  // Scoring under the budget evicts between chunks and keeps a fresh
  // engine's bits.
  const std::vector<Pattern> patterns = {
      Pattern(diagonal(7)),
      Pattern(std::vector<CellId>{diagonal(1), diagonal(3)}),
      Pattern(std::vector<CellId>{diagonal(3), kWildcardCell, diagonal(7)})};
  NmEngine fresh(d, space);
  const std::vector<double> want = fresh.NmTotalBatch(patterns);
  BatchScoreStats stats;
  const std::vector<double> got =
      engine.NmTotalBatch(patterns, 1, &stats, &run);
  EXPECT_EQ(stats.stop, StopReason::kNone);
  EXPECT_EQ(stats.chunks, 3);
  EXPECT_GT(stats.cells_evicted, 0u);
  for (size_t i = 0; i < patterns.size(); ++i) {
    EXPECT_TRUE(BitEq(got[i], want[i])) << patterns[i].ToString();
  }
  EXPECT_LE(engine.arena_peak_bytes(), run.memory_budget_bytes);
}

// Under the rectangular model a pattern's working set is its distinct
// grid columns plus its distinct grid rows.  A budget of exactly that
// many vectors scores it with the unbudgeted bits; one vector less stops
// the batch with kMemoryBudgetExceeded before anything is warmed.
TEST(NmEngineTest, BudgetBelowOnePatternsFactorVectorsStops) {
  const MiningSpace space = TestSpace(10, 0.08);
  const TrajectoryDataset d = OneTrajectory(
      {{0.05, 0.05}, {0.35, 0.55}, {0.75, 0.95}, {0.36, 0.52}, {0.05, 0.1}});
  // Three cells in three grid columns and three grid rows, the first
  // twice: six vectors.
  const CellId a = space.grid.CellOf(Point2(0.05, 0.05));
  const CellId b = space.grid.CellOf(Point2(0.35, 0.55));
  const CellId c = space.grid.CellOf(Point2(0.75, 0.95));
  const Pattern p(std::vector<CellId>{a, b, kWildcardCell, c, a});
  NmEngine unbudgeted(d, space);
  const double want = unbudgeted.NmTotal(p);
  ASSERT_EQ(unbudgeted.num_cached_cells(), 6u);
  for (const size_t vectors : {size_t{6}, size_t{5}}) {
    NmEngine engine(d, space);
    RunContext run;
    run.memory_budget_bytes = vectors * engine.column_bytes();
    BatchScoreStats stats;
    const std::vector<double> got = engine.NmTotalBatch({p}, 1, &stats, &run);
    if (vectors == 6) {
      EXPECT_EQ(stats.stop, StopReason::kNone);
      EXPECT_TRUE(BitEq(got[0], want));
    } else {
      EXPECT_EQ(stats.stop, StopReason::kMemoryBudgetExceeded);
      EXPECT_EQ(engine.num_cached_cells(), 0u);
    }
  }
}

TEST(NmEngineTest, WindowLogMatchAgreesWithEngine) {
  const MiningSpace space = TestSpace();
  const TrajectoryDataset d = OneTrajectory({{0.1, 0.1}, {0.6, 0.6}});
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));
  const Pattern p({std::vector<CellId>{a, b}});
  const double lm = WindowLogMatch(d[0].points(), 0, p, space);
  NmEngine engine(d, space);
  EXPECT_NEAR(engine.MatchTotal(p), std::exp(lm), 1e-12);
}

// ---------------------------------------------------------------------------
// Property suites: the paper's structural claims, checked over random data.
// ---------------------------------------------------------------------------

class NmPropertyTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, NmPropertyTest, ::testing::Range(1, 9));

/// `GenerateUniformObjects` with trajectory i cut to 1 + 5i mod L
/// snapshots (1, 6, 11, 1, ...), so a concatenation is too long for some
/// trajectories that still host one of its halves.
/// A memo holding `entries`; a repeated pattern keeps its first value.
ScoreMemo MemoOf(const std::vector<ScoredPattern>& entries) {
  ScoreMemo memo;
  for (const ScoredPattern& e : entries) memo.emplace(e.pattern.cells(), e.nm);
  return memo;
}

TrajectoryDataset RaggedObjects(const UniformGeneratorOptions& gopt) {
  const TrajectoryDataset full = GenerateUniformObjects(gopt);
  TrajectoryDataset out;
  for (size_t i = 0; i < full.size(); ++i) {
    Trajectory t(full[i].id());
    const size_t keep = 1 + (5 * i) % full[i].size();
    for (size_t s = 0; s < keep; ++s) t.Append(full[i][s]);
    out.Add(std::move(t));
  }
  return out;
}

// Property 1 of the paper: NM(P' . P'') <= max(NM(P'), NM(P'')).  And
// the split bound that tightens it: NM(P' . P'') is at most the
// specified-count-weighted mean of the halves' NM, per trajectory (a
// trajectory too short for P' . P'' scores LogFloor, which no mean of
// the halves goes below) and over the dataset, where `SplitBound` reads
// the halves from a memo and must hold in floating point with no
// tolerance — also when a half's memo value is itself a split bound.
TEST_P(NmPropertyTest, MinMaxPropertyHolds) {
  const int seed = GetParam();
  const UniformGeneratorOptions gopt{.num_objects = 8,
                                     .num_snapshots = 15,
                                     .seed = static_cast<uint64_t>(seed)};
  const TrajectoryDataset d = RaggedObjects(gopt);
  const MiningSpace space = TestSpace(4, 0.12);
  NmEngine engine(d, space);
  ReferenceScorer reference(d, space);
  const auto cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);

  Rng rng(seed * 977);
  int floor_cases = 0;
  for (int trial = 0; trial < 40; ++trial) {
    auto random_pattern = [&](int max_len) {
      const int len = rng.UniformInt(1, max_len);
      std::vector<CellId> cs(len);
      for (auto& c : cs) {
        c = cells[rng.UniformInt(0, static_cast<int>(cells.size()) - 1)];
      }
      return Pattern(cs);
    };
    const Pattern left = random_pattern(3);
    const Pattern right = random_pattern(3);
    const Pattern cat = left.Concat(right);
    const double nm_left = engine.NmTotal(left);
    const double nm_right = engine.NmTotal(right);
    const double nm_cat = engine.NmTotal(cat);
    EXPECT_LE(nm_cat, std::max(nm_left, nm_right) + 1e-9)
        << "left=" << left.ToString() << " right=" << right.ToString();

    const double s_left = static_cast<double>(left.SpecifiedCount());
    const double s_right = static_cast<double>(right.SpecifiedCount());
    for (size_t i = 0; i < d.size(); ++i) {
      if (d[i].size() < cat.length()) {
        ++floor_cases;
        EXPECT_EQ(reference.Nm(cat, i), LogFloor());
      }
      const double mean = (s_left * reference.Nm(left, i) +
                           s_right * reference.Nm(right, i)) /
                          (s_left + s_right);
      EXPECT_LE(reference.Nm(cat, i), mean + 1e-9)
          << "trajectory " << i << " left=" << left.ToString()
          << " right=" << right.ToString();
    }

    const ScoreMemo memo = MemoOf({{left, nm_left}, {right, nm_right}});
    const double bound = SplitBound(cat.cells(), memo, d.size());
    EXPECT_LE(nm_cat, bound)
        << "left=" << left.ToString() << " right=" << right.ToString();
    EXPECT_LE(bound, std::max(nm_left, nm_right) + 1e-9);

    // Chained: the left half memoized as its own split bound, read from
    // its exact sub-halves.
    if (left.length() >= 2) {
      ScoreMemo sub;
      for (size_t cut = 1; cut < left.length(); ++cut) {
        for (const Pattern& half :
             {left.SubPattern(0, cut),
              left.SubPattern(cut, left.length() - cut)}) {
          sub.emplace(half.cells(), engine.NmTotal(half));
        }
      }
      const double left_bound = SplitBound(left.cells(), sub, d.size());
      EXPECT_LE(nm_left, left_bound);
      const ScoreMemo chained =
          MemoOf({{left, left_bound}, {right, nm_right}});
      EXPECT_LE(nm_cat, SplitBound(cat.cells(), chained, d.size()))
          << "left=" << left.ToString() << " right=" << right.ToString();
    }
  }
  EXPECT_GT(floor_cases, 0);
}

// The Apriori property holds for match (but not for NM): a super-pattern
// never has larger match than any contiguous sub-pattern.
TEST_P(NmPropertyTest, AprioriHoldsForMatch) {
  const int seed = GetParam();
  const UniformGeneratorOptions gopt{.num_objects = 8,
                                     .num_snapshots = 15,
                                     .seed = static_cast<uint64_t>(seed + 100)};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = TestSpace(4, 0.12);
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);

  Rng rng(seed * 1231);
  for (int trial = 0; trial < 25; ++trial) {
    const int len = rng.UniformInt(2, 4);
    std::vector<CellId> cs(len);
    for (auto& c : cs) {
      c = cells[rng.UniformInt(0, static_cast<int>(cells.size()) - 1)];
    }
    const Pattern p(cs);
    const double match_p = engine.MatchTotal(p);
    for (size_t begin = 0; begin < p.length(); ++begin) {
      for (size_t sub_len = 1; begin + sub_len <= p.length(); ++sub_len) {
        const Pattern sub = p.SubPattern(begin, sub_len);
        EXPECT_LE(match_p, engine.MatchTotal(sub) + 1e-12)
            << "p=" << p.ToString() << " sub=" << sub.ToString();
      }
    }
  }
}

// NM values of real (non-floor) patterns lie in [LogFloor(), 0] per
// trajectory, so dataset NM is bounded by trajectory count times that.
TEST_P(NmPropertyTest, NmBounds) {
  const int seed = GetParam();
  const UniformGeneratorOptions gopt{.num_objects = 6,
                                     .num_snapshots = 10,
                                     .seed = static_cast<uint64_t>(seed + 300)};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = TestSpace(4, 0.12);
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  Rng rng(seed * 31);
  for (int trial = 0; trial < 20; ++trial) {
    const int len = rng.UniformInt(1, 3);
    std::vector<CellId> cs(len);
    for (auto& c : cs) {
      c = cells[rng.UniformInt(0, static_cast<int>(cells.size()) - 1)];
    }
    const double nm = engine.NmTotal(Pattern(cs));
    EXPECT_LE(nm, 0.0);
    EXPECT_GE(nm, LogFloor() * static_cast<double>(d.size()));
  }
}

}  // namespace
}  // namespace trajpattern
