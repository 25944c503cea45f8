#include <gtest/gtest.h>

#include <vector>

#include "core/parameters.h"
#include "datagen/planted_generator.h"

namespace trajpattern {
namespace {

TEST(ParameterSuggestionTest, FollowsSection5Guidance) {
  PlantedPatternOptions gen;
  gen.pattern = {Point2(0.2, 0.2), Point2(0.8, 0.8)};
  gen.num_with_pattern = 5;
  gen.num_background = 0;
  gen.num_snapshots = 10;
  gen.sigma = 0.01;
  const TrajectoryDataset d = GeneratePlantedPatterns(gen);
  const ParameterSuggestion s = SuggestParameters(d, 64);
  EXPECT_DOUBLE_EQ(s.delta, 0.01);          // delta = mean sigma
  EXPECT_DOUBLE_EQ(s.gamma, 0.03);          // gamma = 3 sigma
  EXPECT_GE(s.cells_per_side, 1);
  EXPECT_LE(s.cells_per_side, 64);          // cap respected
  // The grid must cover every snapshot.
  const Grid grid = s.MakeGrid();
  for (const auto& t : d) {
    for (const auto& pt : t) {
      EXPECT_TRUE(s.box.Contains(pt.mean));
      EXPECT_TRUE(grid.IsValid(grid.CellOf(pt.mean)));
    }
  }
}

TEST(ParameterSuggestionTest, DegenerateDataFallsBack) {
  TrajectoryDataset d;
  Trajectory t("still");
  for (int i = 0; i < 5; ++i) t.Append(Point2(0.3, 0.3), 0.0);
  d.Add(std::move(t));
  const ParameterSuggestion s = SuggestParameters(d, 32);
  EXPECT_GT(s.delta, 0.0);
  EXPECT_GT(s.box.width(), 0.0);
  EXPECT_GE(s.cells_per_side, 1);
  // Empty data must not crash either.
  const ParameterSuggestion e = SuggestParameters(TrajectoryDataset(), 32);
  EXPECT_GE(e.cells_per_side, 1);
}

}  // namespace
}  // namespace trajpattern
