#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/uniform_generator.h"
#include "prob/rng.h"
#include "trajectory/trajectory.h"

namespace trajpattern {
namespace {

MiningSpace SmallSpace(int n = 4, double delta = 0.1) {
  return MiningSpace(Grid::UnitSquare(n), delta);
}

/// Trajectories that visit A, then a position drawn uniformly from the
/// whole space, then B — the motif (A, *, B) with an unpredictable
/// middle.
TrajectoryDataset GappedMotifData(int count, uint64_t seed) {
  Rng rng(seed);
  const Point2 a(0.125, 0.125);
  const Point2 b(0.875, 0.875);
  TrajectoryDataset d;
  for (int i = 0; i < count; ++i) {
    Rng local = rng.Fork();
    Trajectory t("m" + std::to_string(i));
    // Two noise snapshots, the motif, two noise snapshots.
    auto noise = [&]() {
      return Point2(local.Uniform(0.0, 1.0), local.Uniform(0.0, 1.0));
    };
    t.Append(noise(), 0.01);
    t.Append(noise(), 0.01);
    t.Append(a, 0.01);
    t.Append(noise(), 0.01);  // the wildcard position
    t.Append(b, 0.01);
    t.Append(noise(), 0.01);
    d.Add(std::move(t));
  }
  return d;
}

TEST(WildcardNmTest, NormalizesBySpecifiedPositions) {
  const MiningSpace space = SmallSpace();
  Trajectory t("t");
  t.Append(Point2(0.125, 0.125), 0.03);
  t.Append(Point2(0.5, 0.5), 0.03);
  t.Append(Point2(0.875, 0.875), 0.03);
  TrajectoryDataset d;
  d.Add(std::move(t));
  NmEngine engine(d, space);
  const CellId a = space.grid.CellOf(Point2(0.125, 0.125));
  const CellId b = space.grid.CellOf(Point2(0.875, 0.875));
  const Pattern starred(std::vector<CellId>{a, kWildcardCell, b});
  const double la = space.LogProb(d[0][0], a);
  const double lb = space.LogProb(d[0][2], b);
  // Only one window; mean over the TWO specified positions.
  EXPECT_NEAR(engine.NmTotal(starred), (la + lb) / 2.0, 1e-12);
  EXPECT_EQ(starred.SpecifiedCount(), 2u);
}

TEST(WildcardNmTest, StarPaddingCannotInflateScores) {
  const UniformGeneratorOptions gopt{.num_objects = 6,
                                     .num_snapshots = 10,
                                     .seed = 3};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace();
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);
  const Pattern starred(
      std::vector<CellId>{cells[0], kWildcardCell, cells[1]});
  // Normalizing by specified positions keeps min-max intact: the starred
  // pattern cannot beat both of its specified halves.
  EXPECT_LE(engine.NmTotal(starred),
            std::max(engine.NmTotal(Pattern(cells[0])),
                     engine.NmTotal(Pattern(cells[1]))) +
                1e-12);
  // A trailing wildcard cannot raise a singular's score.
  const Pattern single(cells[0]);
  const Pattern single_starred(
      std::vector<CellId>{cells[0], kWildcardCell});
  EXPECT_LE(engine.NmTotal(single_starred), engine.NmTotal(single) + 1e-12);
}

TEST(WildcardNmTest, MinMaxHoldsAcrossWildcardJoin) {
  const UniformGeneratorOptions gopt{.num_objects = 8,
                                     .num_snapshots = 12,
                                     .seed = 7};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace();
  NmEngine engine(d, space);
  const auto cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 3u);
  Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    const Pattern left(
        cells[rng.UniformInt(0, static_cast<int>(cells.size()) - 1)]);
    const Pattern right(std::vector<CellId>{
        cells[rng.UniformInt(0, static_cast<int>(cells.size()) - 1)],
        cells[rng.UniformInt(0, static_cast<int>(cells.size()) - 1)]});
    const Pattern joined = left.Concat(Pattern(kWildcardCell)).Concat(right);
    const double nm_joined = engine.NmTotal(joined);
    EXPECT_LE(nm_joined,
              std::max(engine.NmTotal(left), engine.NmTotal(right)) + 1e-9);
    // The split bound holds at every cut of (l, *, r1, r2), each of which
    // has a starred half: (*, r1, r2), (l, *) and (l, *, r1).  Weights
    // count specified positions only, so the star adds nothing.
    for (size_t cut = 1; cut < joined.length(); ++cut) {
      const Pattern a = joined.SubPattern(0, cut);
      const Pattern b = joined.SubPattern(cut, joined.length() - cut);
      ScoreMemo memo;
      memo.emplace(a.cells(), engine.NmTotal(a));
      memo.emplace(b.cells(), engine.NmTotal(b));
      const double bound = SplitBound(joined.cells(), memo, d.size());
      EXPECT_LE(nm_joined, bound)
          << "joined=" << joined.ToString() << " cut=" << cut;
      EXPECT_TRUE(std::isfinite(bound));  // both halves were found
    }
  }
}

TEST(WildcardMinerTest, FindsGappedMotif) {
  const TrajectoryDataset d = GappedMotifData(30, 17);
  const MiningSpace space = SmallSpace(4, 0.1);
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 10;
  opt.min_length = 3;
  opt.max_pattern_length = 3;
  opt.max_wildcards = 1;
  const MiningResult result = MineTrajPatterns(engine, opt);
  ASSERT_FALSE(result.patterns.empty());
  const CellId a = space.grid.CellOf(Point2(0.125, 0.125));
  const CellId b = space.grid.CellOf(Point2(0.875, 0.875));
  const Pattern motif(std::vector<CellId>{a, kWildcardCell, b});
  // The gapped motif must be the very best length-3 pattern: the middle
  // position is unpredictable, so every fully-specified (a, x, b) scores
  // strictly worse.
  EXPECT_EQ(result.patterns[0].pattern, motif)
      << "got " << result.patterns[0].pattern.ToString();
}

TEST(WildcardMinerTest, NoEdgeWildcardsInResults) {
  const TrajectoryDataset d = GappedMotifData(10, 23);
  const MiningSpace space = SmallSpace(4, 0.1);
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 20;
  opt.max_pattern_length = 4;
  opt.max_wildcards = 2;
  const MiningResult result = MineTrajPatterns(engine, opt);
  for (const auto& sp : result.patterns) {
    const Pattern& p = sp.pattern;
    EXPECT_NE(p[0], kWildcardCell) << p.ToString();
    EXPECT_NE(p[p.length() - 1], kWildcardCell) << p.ToString();
  }
}

TEST(WildcardMinerTest, DisabledByDefault) {
  const TrajectoryDataset d = GappedMotifData(10, 29);
  const MiningSpace space = SmallSpace(4, 0.1);
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 20;
  opt.max_pattern_length = 3;
  const MiningResult result = MineTrajPatterns(engine, opt);
  for (const auto& sp : result.patterns) {
    EXPECT_EQ(std::ranges::find(sp.pattern.cells(), kWildcardCell),
              sp.pattern.cells().end())
        << sp.pattern.ToString();
  }
}

}  // namespace
}  // namespace trajpattern
