#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "baseline/brute_force.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/planted_generator.h"
#include "datagen/uniform_generator.h"

namespace trajpattern {
namespace {

MiningSpace SmallSpace(int n = 4, double delta = 0.12) {
  return MiningSpace(Grid::UnitSquare(n), delta);
}

/// Compares two NM score sequences (best first) within tolerance.
void ExpectSameScores(const std::vector<ScoredPattern>& got,
                      const std::vector<ScoredPattern>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i].nm, want[i].nm, 1e-9)
        << "rank " << i << " got " << got[i].pattern.ToString() << " want "
        << want[i].pattern.ToString();
  }
}

TEST(TrajPatternMinerTest, FindsSingularTopOnTrivialData) {
  // One stationary object: the best pattern must sit on its cell.
  Trajectory t("a");
  for (int i = 0; i < 10; ++i) t.Append(Point2(0.6, 0.6), 0.02);
  TrajectoryDataset d;
  d.Add(std::move(t));
  const MiningSpace space = SmallSpace();
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 1;
  const MiningResult result = MineTrajPatterns(engine, opt);
  ASSERT_EQ(result.patterns.size(), 1u);
  const Pattern& best = result.patterns[0].pattern;
  // Every position of the winner is the object's cell (NM ties across
  // lengths are possible for a stationary object; all-positions-on-cell
  // is the invariant).
  const CellId expect = space.grid.CellOf(Point2(0.6, 0.6));
  for (size_t i = 0; i < best.length(); ++i) EXPECT_EQ(best[i], expect);
}

class MinerExactnessTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, MinerExactnessTest, ::testing::Range(1, 7));

// Theorem 1: TrajPattern returns the exact top-k by NM.  Verified against
// brute-force enumeration bounded at the same maximum length.
TEST_P(MinerExactnessTest, MatchesBruteForceTopK) {
  const int seed = GetParam();
  const UniformGeneratorOptions gopt{.num_objects = 6,
                                     .num_snapshots = 10,
                                     .sigma = 0.02,
                                     .seed = static_cast<uint64_t>(seed)};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace(3, 0.15);
  NmEngine engine(d, space);

  constexpr int kK = 8;
  constexpr size_t kMaxLen = 3;
  MinerOptions opt;
  opt.k = kK;
  opt.max_pattern_length = kMaxLen;
  const MiningResult result = MineTrajPatterns(engine, opt);
  const auto brute = BruteForceTopK(engine, kK, kMaxLen);
  ExpectSameScores(result.patterns, brute);
  EXPECT_FALSE(result.stats.hit_iteration_cap);
}

TEST_P(MinerExactnessTest, MinLengthVariantMatchesBruteForce) {
  const int seed = GetParam();
  const UniformGeneratorOptions gopt{.num_objects = 5,
                                     .num_snapshots = 8,
                                     .sigma = 0.02,
                                     .seed = static_cast<uint64_t>(seed + 50)};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace(3, 0.15);
  NmEngine engine(d, space);

  constexpr int kK = 5;
  constexpr size_t kMaxLen = 3;
  constexpr size_t kMinLen = 2;
  MinerOptions opt;
  opt.k = kK;
  opt.max_pattern_length = kMaxLen;
  opt.min_length = kMinLen;
  const MiningResult result = MineTrajPatterns(engine, opt);
  const auto brute = BruteForceTopK(engine, kK, kMaxLen, kMinLen);
  ExpectSameScores(result.patterns, brute);
  for (const auto& sp : result.patterns) {
    EXPECT_GE(sp.pattern.length(), kMinLen);
  }
}

TEST(TrajPatternMinerTest, RecoversPlantedPattern) {
  // Plant a 3-step staircase; the miner must surface its grid rendering.
  PlantedPatternOptions popt;
  popt.pattern = {Point2(0.125, 0.125), Point2(0.375, 0.375),
                  Point2(0.625, 0.625)};
  popt.num_with_pattern = 25;
  popt.num_background = 5;
  popt.num_snapshots = 12;
  popt.embed_noise = 0.002;
  popt.sigma = 0.01;
  popt.seed = 9;
  const TrajectoryDataset d = GeneratePlantedPatterns(popt);
  const MiningSpace space(Grid::UnitSquare(4), 0.08);
  NmEngine engine(d, space);

  MinerOptions opt;
  opt.k = 10;
  opt.min_length = 3;
  opt.max_pattern_length = 4;
  const MiningResult result = MineTrajPatterns(engine, opt);
  ASSERT_FALSE(result.patterns.empty());

  std::vector<CellId> expected;
  for (const auto& p : popt.pattern) {
    expected.push_back(space.grid.CellOf(p));
  }
  const Pattern truth(expected);
  bool found = false;
  for (const auto& sp : result.patterns) {
    if (sp.pattern == truth) found = true;
  }
  EXPECT_TRUE(found) << "expected " << truth.ToString();
  // And it should be the very best length-3 pattern.
  EXPECT_EQ(result.patterns[0].pattern, truth);
}

TEST(TrajPatternMinerTest, StatsAreConsistent) {
  const UniformGeneratorOptions gopt{.num_objects = 4,
                                     .num_snapshots = 8,
                                     .seed = 17};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace(3, 0.15);
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 4;
  opt.max_pattern_length = 2;
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_GT(result.stats.iterations, 0);
  EXPECT_GT(result.stats.candidates_evaluated, 0);
  EXPECT_GE(result.stats.candidates_generated, 0);
  EXPECT_GT(result.stats.alphabet_size, 0u);
  EXPECT_GE(result.stats.seconds, 0.0);
  EXPECT_EQ(result.patterns.size(), 4u);
  // Results sorted best-first.
  for (size_t i = 1; i < result.patterns.size(); ++i) {
    EXPECT_GE(result.patterns[i - 1].nm, result.patterns[i].nm);
  }
}

// Exact mode skips the scan of every candidate whose split bound is
// below ω: the skips count as pruned, the decisions do not depend on the
// thread count, and the answer matches brute force.  Beam mode scans
// every candidate it keeps.
TEST(TrajPatternMinerTest, SplitBoundSkipsScansExactly) {
  const UniformGeneratorOptions gopt{.num_objects = 6,
                                     .num_snapshots = 10,
                                     .sigma = 0.02,
                                     .seed = 31};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace(4, 0.12);
  MinerOptions opt;
  opt.k = 5;
  opt.max_pattern_length = 3;

  NmEngine engine(d, space);
  const MiningResult serial = MineTrajPatterns(engine, opt);
  EXPECT_GT(serial.stats.candidates_pruned, 0);
  NmEngine brute_engine(d, space);
  const auto brute = BruteForceTopK(brute_engine, opt.k, 3);
  ASSERT_EQ(serial.patterns.size(), brute.size());
  for (size_t i = 0; i < brute.size(); ++i) {
    EXPECT_EQ(serial.patterns[i].pattern, brute[i].pattern) << "rank " << i;
    EXPECT_EQ(serial.patterns[i].nm, brute[i].nm) << "rank " << i;
  }

  opt.num_threads = 4;
  NmEngine threaded_engine(d, space);
  const MiningResult threaded = MineTrajPatterns(threaded_engine, opt);
  EXPECT_EQ(threaded.stats.candidates_pruned, serial.stats.candidates_pruned);
  EXPECT_EQ(threaded.stats.candidates_evaluated,
            serial.stats.candidates_evaluated);

  opt.num_threads = 1;
  opt.max_candidates_per_iteration = 1000000;
  NmEngine beam_engine(d, space);
  const MiningResult beam = MineTrajPatterns(beam_engine, opt);
  EXPECT_EQ(beam.stats.candidates_pruned, 0);
  EXPECT_FALSE(beam.stats.hit_candidate_cap);
}

TEST(TrajPatternMinerTest, DeterministicAcrossRuns) {
  const UniformGeneratorOptions gopt{.num_objects = 5,
                                     .num_snapshots = 10,
                                     .seed = 23};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace(3, 0.15);
  NmEngine e1(d, space);
  NmEngine e2(d, space);
  MinerOptions opt;
  opt.k = 6;
  opt.max_pattern_length = 3;
  const MiningResult r1 = MineTrajPatterns(e1, opt);
  const MiningResult r2 = MineTrajPatterns(e2, opt);
  ASSERT_EQ(r1.patterns.size(), r2.patterns.size());
  for (size_t i = 0; i < r1.patterns.size(); ++i) {
    EXPECT_EQ(r1.patterns[i].pattern, r2.patterns[i].pattern);
    EXPECT_DOUBLE_EQ(r1.patterns[i].nm, r2.patterns[i].nm);
  }
}

TEST(TrajPatternMinerTest, CandidateBeamCapIsReported) {
  const UniformGeneratorOptions gopt{.num_objects = 6,
                                     .num_snapshots = 10,
                                     .seed = 29};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace(4, 0.12);
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 8;
  opt.max_pattern_length = 3;
  opt.max_candidates_per_iteration = 5;
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.stats.hit_candidate_cap);
  EXPECT_EQ(result.patterns.size(), 8u);
}

TEST(TrajPatternMinerTest, FullAlphabetAgreesWithTouchedCells) {
  // Restricting the alphabet to touched cells is an optimization only:
  // the mined top-k must be identical.
  const UniformGeneratorOptions gopt{.num_objects = 4,
                                     .num_snapshots = 8,
                                     .seed = 31};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space = SmallSpace(3, 0.2);
  NmEngine e1(d, space);
  NmEngine e2(d, space);
  MinerOptions opt;
  opt.k = 5;
  opt.max_pattern_length = 2;
  opt.restrict_to_touched_cells = true;
  const MiningResult r1 = MineTrajPatterns(e1, opt);
  opt.restrict_to_touched_cells = false;
  const MiningResult r2 = MineTrajPatterns(e2, opt);
  ASSERT_EQ(r1.patterns.size(), r2.patterns.size());
  for (size_t i = 0; i < r1.patterns.size(); ++i) {
    EXPECT_NEAR(r1.patterns[i].nm, r2.patterns[i].nm, 1e-9);
  }
}

}  // namespace
}  // namespace trajpattern
