#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <vector>

#include "core/miner.h"
#include "core/mining_space.h"
#include "core/nm_engine.h"
#include "datagen/bus_generator.h"
#include "datagen/uniform_generator.h"
#include "datagen/zebranet_generator.h"
#include "prob/log_space.h"
#include "prob/rng.h"
#include "testing/reference_scorer.h"
#include "trajectory/transform.h"

namespace trajpattern {
namespace {

MiningSpace TestSpace(int n = 4, double delta = 0.1) {
  return MiningSpace(Grid::UnitSquare(n), delta);
}

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

TEST(NmEngineTest, GapZeroMatchesContiguous) {
  const UniformGeneratorOptions gopt{.num_objects = 5,
                                     .num_snapshots = 12,
                                     .seed = 3};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = TestSpace(4, 0.15);
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);
  const Pattern p({std::vector<CellId>{cells[0], cells[1], cells[0]}});
  EXPECT_NEAR(engine.NmTotalWithGaps(p, 0), engine.NmTotal(p), 1e-9);
}

TEST(NmEngineTest, GapsOnlyImproveNm) {
  const UniformGeneratorOptions gopt{.num_objects = 5,
                                     .num_snapshots = 12,
                                     .seed = 4};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = TestSpace(4, 0.15);
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 3u);
  const Pattern p({std::vector<CellId>{cells[0], cells[2], cells[1]}});
  double prev = engine.NmTotalWithGaps(p, 0);
  for (int gap = 1; gap <= 3; ++gap) {
    const double cur = engine.NmTotalWithGaps(p, gap);
    EXPECT_GE(cur, prev - 1e-9) << "gap=" << gap;
    prev = cur;
  }
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

// Every column entry is finite, in [LogFloor(), 0] and never -0.0: the
// walk reads a first column in place as its own prefix sum, and the AVX2
// kernels reassociate max, which both rely on.  Each entry is also the
// bits of MiningSpace::LogProb, whether the factored batch warm-up or the
// serial per-cell path built it.
TEST(NmEngineTest, ColumnEntriesLieInTheFlooredLogDomain) {
  const TrajectoryDataset zebra = ZebraData();
  const TrajectoryDataset velocity = VelocityData();
  const struct {
    const TrajectoryDataset* data;
    MiningSpace space;
  } cases[] = {{&zebra, ZebraSpace()}, {&velocity, VelocitySpace(velocity)}};
  size_t total_floored = 0;
  for (const auto& c : cases) {
    std::vector<const TrajectoryPoint*> points;
    for (const auto& t : *c.data) {
      for (const auto& pt : t) points.push_back(&pt);
    }
    std::vector<CellId> cells(static_cast<size_t>(c.space.grid.num_cells()));
    for (CellId cell = 0; cell < c.space.grid.num_cells(); ++cell) {
      cells[static_cast<size_t>(cell)] = cell;
    }
    NmEngine batch(*c.data, c.space);
    ASSERT_EQ(batch.WarmCells(cells, 2), cells.size());
    NmEngine serial(*c.data, c.space);
    size_t floored = 0;
    size_t entries = 0;
    for (const CellId cell : cells) {
      serial.NmTotalWithGaps(Pattern(cell), 0);  // warms one column
      const std::span<const double> col = batch.ResidentColumn(cell);
      const std::span<const double> lazy = serial.ResidentColumn(cell);
      ASSERT_EQ(col.size(), points.size());
      ASSERT_EQ(lazy.size(), points.size());
      for (size_t g = 0; g < col.size(); ++g) {
        const double e = col[g];
        ASSERT_GE(e, LogFloor()) << "cell " << cell << " entry " << g;
        ASSERT_LE(e, 0.0) << "cell " << cell << " entry " << g;
        ASSERT_FALSE(e == 0.0 && std::signbit(e))
            << "cell " << cell << " entry " << g;
        const double want = c.space.LogProb(*points[g], cell);
        ASSERT_EQ(std::memcmp(&e, &want, sizeof(double)), 0)
            << "cell " << cell << " entry " << g;
        ASSERT_EQ(std::memcmp(&lazy[g], &want, sizeof(double)), 0)
            << "cell " << cell << " entry " << g;
        floored += e == LogFloor();
        ++entries;
      }
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
  EXPECT_EQ(engine.num_pattern_evaluations(), 0);
  EXPECT_EQ(engine.num_cached_cells(), 0u);
  const CellId a = space.grid.CellOf(Point2(0.1, 0.1));
  const CellId b = space.grid.CellOf(Point2(0.6, 0.6));
  engine.NmTotal(Pattern(a));
  EXPECT_EQ(engine.num_pattern_evaluations(), 1);
  EXPECT_EQ(engine.num_cached_cells(), 1u);
  // Re-scoring the same cell reuses its column.
  engine.NmTotal(Pattern(std::vector<CellId>{a, a}));
  EXPECT_EQ(engine.num_cached_cells(), 1u);
  engine.MatchTotal(Pattern(b));
  EXPECT_EQ(engine.num_pattern_evaluations(), 3);
  EXPECT_EQ(engine.num_cached_cells(), 2u);
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
