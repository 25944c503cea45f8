#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/miner.h"
#include "core/nm_engine.h"
#include "core/pattern_group.h"
#include "datagen/uniform_generator.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

// ---------------------------------------------------------------------------
// Pattern-group invariants over random inputs.
// ---------------------------------------------------------------------------

class GroupPropertyTest : public ::testing::TestWithParam<int> {};

INSTANTIATE_TEST_SUITE_P(Seeds, GroupPropertyTest, ::testing::Range(1, 7));

TEST_P(GroupPropertyTest, PartitionAndPairwiseSimilarity) {
  Rng rng(GetParam() * 131);
  const Grid grid = Grid::UnitSquare(12);
  const double gamma = 0.13;
  // Random same-length patterns with clustered positions.
  std::vector<ScoredPattern> pats;
  const int n = rng.UniformInt(5, 25);
  const int len = rng.UniformInt(2, 4);
  for (int i = 0; i < n; ++i) {
    std::vector<CellId> cells;
    for (int j = 0; j < len; ++j) {
      const int col = rng.UniformInt(0, 11);
      const int row = rng.UniformInt(0, 11);
      cells.push_back(grid.At(col, row));
    }
    pats.push_back({Pattern(std::move(cells)), -0.01 * i});
  }
  const auto groups = GroupPatterns(pats, grid, gamma);

  // (1) Partition: every pattern appears in exactly one group.
  size_t total = 0;
  for (const auto& g : groups) total += g.size();
  EXPECT_EQ(total, pats.size());
  std::multiset<std::vector<CellId>> in_groups, given;
  for (const auto& g : groups) {
    for (const auto& sp : g.members) in_groups.insert(sp.pattern.cells());
  }
  for (const auto& sp : pats) given.insert(sp.pattern.cells());
  EXPECT_EQ(in_groups, given);

  // (2) Def. 2: members of a group are pairwise similar.
  for (const auto& g : groups) {
    for (size_t a = 0; a < g.members.size(); ++a) {
      for (size_t b = a + 1; b < g.members.size(); ++b) {
        EXPECT_TRUE(ArePatternsSimilar(g.members[a].pattern,
                                       g.members[b].pattern, grid, gamma));
      }
    }
  }
}

TEST_P(GroupPropertyTest, IdenticalPatternsNeverSplit) {
  Rng rng(GetParam() * 733);
  const Grid grid = Grid::UnitSquare(10);
  std::vector<CellId> cells = {grid.At(rng.UniformInt(0, 9), 3),
                               grid.At(rng.UniformInt(0, 9), 6)};
  std::vector<ScoredPattern> pats;
  for (int i = 0; i < 5; ++i) pats.push_back({Pattern(cells), -0.1 * i});
  const auto groups = GroupPatterns(pats, grid, 0.0);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(groups[0].size(), 5u);
}

// ---------------------------------------------------------------------------
// Miner behavior under the beam: deterministic and never better than
// exact (NM of the best pattern can only drop when the beam prunes).
// ---------------------------------------------------------------------------

TEST(BeamPropertyTest, BeamIsDeterministicAndBoundedByExact) {
  UniformGeneratorOptions gopt;
  gopt.num_objects = 8;
  gopt.num_snapshots = 12;
  gopt.seed = 77;
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space(Grid::UnitSquare(4), 0.12);

  MinerOptions exact;
  exact.k = 6;
  exact.max_pattern_length = 3;
  NmEngine e1(d, space);
  const MiningResult exact_res = MineTrajPatterns(e1, exact);

  MinerOptions beam = exact;
  beam.max_candidates_per_iteration = 20;
  NmEngine e2(d, space);
  NmEngine e3(d, space);
  const MiningResult beam_a = MineTrajPatterns(e2, beam);
  const MiningResult beam_b = MineTrajPatterns(e3, beam);

  ASSERT_EQ(beam_a.patterns.size(), beam_b.patterns.size());
  for (size_t i = 0; i < beam_a.patterns.size(); ++i) {
    EXPECT_EQ(beam_a.patterns[i].pattern, beam_b.patterns[i].pattern);
  }
  // Rank by rank, the beam cannot beat the exact answer.
  ASSERT_EQ(beam_a.patterns.size(), exact_res.patterns.size());
  for (size_t i = 0; i < beam_a.patterns.size(); ++i) {
    EXPECT_LE(beam_a.patterns[i].nm, exact_res.patterns[i].nm + 1e-9);
  }
}

// Wildcards compose with the min-length variant.
TEST(BeamPropertyTest, WildcardsWithMinLength) {
  UniformGeneratorOptions gopt;
  gopt.num_objects = 6;
  gopt.num_snapshots = 10;
  gopt.seed = 91;
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space(Grid::UnitSquare(3), 0.15);
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 8;
  opt.min_length = 3;
  opt.max_pattern_length = 4;
  opt.max_wildcards = 1;
  opt.max_candidates_per_iteration = 2000;
  const MiningResult res = MineTrajPatterns(engine, opt);
  ASSERT_EQ(res.patterns.size(), 8u);
  for (const auto& sp : res.patterns) {
    EXPECT_GE(sp.pattern.length(), 3u);
    // Wildcards never at the edges.
    EXPECT_NE(sp.pattern[0], kWildcardCell);
    EXPECT_NE(sp.pattern[sp.pattern.length() - 1], kWildcardCell);
  }
}

}  // namespace
}  // namespace trajpattern
