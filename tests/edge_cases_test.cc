#include <gtest/gtest.h>

#include <limits>

#include "baseline/brute_force.h"
#include "baseline/match_apriori.h"
#include "baseline/pb_miner.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "core/parameters.h"
#include "core/pattern_group.h"
#include "core/top_k.h"
#include "prob/log_space.h"

namespace trajpattern {
namespace {

MiningSpace TinySpace() { return MiningSpace(Grid::UnitSquare(2), 0.3); }

TEST(EdgeCaseTest, EmptyDatasetMinesNothing) {
  const TrajectoryDataset empty;
  NmEngine engine(empty, TinySpace());
  // Touched alphabet is empty -> nothing to grow from.
  MinerOptions opt;
  opt.k = 3;
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.patterns.empty());
  EXPECT_EQ(engine.TouchedCells().size(), 0u);
}

TEST(EdgeCaseTest, EmptyDatasetFullAlphabet) {
  const TrajectoryDataset empty;
  NmEngine engine(empty, TinySpace());
  MinerOptions opt;
  opt.k = 2;
  opt.restrict_to_touched_cells = false;
  opt.max_pattern_length = 2;
  // Every pattern scores 0 (no trajectories to sum over); the miner must
  // still terminate and return k patterns.
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_EQ(result.patterns.size(), 2u);
  for (const auto& sp : result.patterns) {
    EXPECT_DOUBLE_EQ(sp.nm, 0.0);
  }
}

TEST(EdgeCaseTest, SingleSnapshotTrajectories) {
  TrajectoryDataset d;
  Trajectory t("one");
  t.Append(Point2(0.2, 0.2), 0.05);
  d.Add(std::move(t));
  NmEngine engine(d, TinySpace());
  MinerOptions opt;
  opt.k = 2;
  opt.max_pattern_length = 3;
  const MiningResult result = MineTrajPatterns(engine, opt);
  ASSERT_EQ(result.patterns.size(), 2u);
  // No window of length >= 2 exists, so multi-position patterns score
  // the floor and the best patterns must be singular.
  EXPECT_EQ(result.patterns[0].pattern.length(), 1u);
}

TEST(EdgeCaseTest, KLargerThanPatternSpace) {
  TrajectoryDataset d;
  Trajectory t("a");
  t.Append(Point2(0.2, 0.2), 0.05);
  t.Append(Point2(0.8, 0.8), 0.05);
  d.Add(std::move(t));
  NmEngine engine(d, TinySpace());
  MinerOptions opt;
  opt.k = 1000;  // far more than the bounded pattern space
  opt.max_pattern_length = 2;
  const MiningResult result = MineTrajPatterns(engine, opt);
  // All patterns up to length 2 over the touched alphabet.
  EXPECT_GT(result.patterns.size(), 0u);
  EXPECT_LE(result.patterns.size(), 1000u);
  EXPECT_FALSE(result.stats.hit_iteration_cap);
}

// k <= 0 asks for nothing: the tracker keeps nothing and its ω is +inf,
// so every pattern is low and the run ends after one empty generation.
TEST(EdgeCaseTest, NonPositiveKMinesNothing) {
  TrajectoryDataset d;
  Trajectory t("a");
  t.Append(Point2(0.2, 0.2), 0.05);
  t.Append(Point2(0.8, 0.8), 0.05);
  t.Append(Point2(0.2, 0.8), 0.05);
  d.Add(std::move(t));
  for (const int k : {0, -3}) {
    NmEngine engine(d, TinySpace());
    MinerOptions opt;
    opt.k = k;
    opt.max_pattern_length = 3;
    const MiningResult result = MineTrajPatterns(engine, opt);
    EXPECT_TRUE(result.patterns.empty()) << "k=" << k;
    EXPECT_FALSE(result.stats.aborted) << "k=" << k;

    TopKPatterns top_k(k);
    top_k.Offer(Pattern(CellId{0}), 0.0);
    EXPECT_EQ(top_k.size(), 0u) << "k=" << k;
    EXPECT_EQ(top_k.Omega(), std::numeric_limits<double>::infinity());
  }
}

TEST(EdgeCaseTest, MinLengthBeyondTrajectoriesYieldsFloorScores) {
  TrajectoryDataset d;
  Trajectory t("short");
  t.Append(Point2(0.2, 0.2), 0.05);
  t.Append(Point2(0.2, 0.2), 0.05);
  d.Add(std::move(t));
  NmEngine engine(d, TinySpace());
  MinerOptions opt;
  opt.k = 2;
  opt.min_length = 5;  // longer than any trajectory
  opt.max_pattern_length = 5;
  const MiningResult result = MineTrajPatterns(engine, opt);
  for (const auto& sp : result.patterns) {
    EXPECT_GE(sp.pattern.length(), 5u);
    EXPECT_DOUBLE_EQ(sp.nm, LogFloor());  // unsatisfiable, floor-scored
  }
}

TEST(EdgeCaseTest, BaselinesHandleEmptyData) {
  const TrajectoryDataset empty;
  NmEngine engine(empty, TinySpace());
  PbMinerOptions pb;
  pb.k = 3;
  pb.max_length = 2;
  EXPECT_TRUE(MinePbPatterns(engine, pb).patterns.empty());
  MatchMinerOptions mo;
  mo.k = 3;
  mo.max_length = 2;
  EXPECT_TRUE(MineMatchPatterns(engine, mo).patterns.empty());
  EXPECT_TRUE(BruteForceTopK(engine, 3, 2).empty());
}

TEST(EdgeCaseTest, GroupingSinglePattern) {
  const Grid grid = Grid::UnitSquare(4);
  std::vector<ScoredPattern> one = {
      {Pattern(std::vector<CellId>{0, 1}), -1.0}};
  const auto groups = GroupPatterns(one, grid, 0.1);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 1u);
}

TEST(EdgeCaseTest, SuggestParametersOnEmptyData) {
  const ParameterSuggestion s = SuggestParameters(TrajectoryDataset(), 16);
  EXPECT_GE(s.cells_per_side, 1);
  EXPECT_GT(s.delta, 0.0);
  EXPECT_GT(s.gamma, 0.0);
  // The suggested space must be constructible.
  const MiningSpace space = s.MakeSpace();
  EXPECT_GT(space.grid.num_cells(), 0);
}

TEST(EdgeCaseTest, ZeroSigmaTrajectoriesAreExactIndicators) {
  // sigma = 0 degenerates the probability to an indicator, which must
  // flow through NM without NaNs.
  TrajectoryDataset d;
  Trajectory t("exact");
  t.Append(Point2(0.25, 0.25), 0.0);
  t.Append(Point2(0.75, 0.75), 0.0);
  d.Add(std::move(t));
  const MiningSpace space(Grid::UnitSquare(2), 0.3);
  NmEngine engine(d, space);
  const CellId a = space.grid.CellOf(Point2(0.25, 0.25));
  const CellId b = space.grid.CellOf(Point2(0.75, 0.75));
  // On-cell positions within delta: probability 1, log 0.
  EXPECT_DOUBLE_EQ(engine.NmTotal(Pattern(std::vector<CellId>{a, b})), 0.0);
  // Mismatched cell: floor, not NaN.
  const double nm = engine.NmTotal(Pattern(std::vector<CellId>{b, a}));
  EXPECT_TRUE(std::isfinite(nm));
  EXPECT_LT(nm, LogFloor() / 2.0 + 1.0);
}

}  // namespace
}  // namespace trajpattern
