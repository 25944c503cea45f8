#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <vector>

#include "core/pattern.h"
#include "core/score_memo.h"
#include "io/ascii_art.h"
#include "io/csv.h"
#include "io/flags.h"

namespace trajpattern {
namespace {

TrajectoryDataset SampleData() {
  TrajectoryDataset d;
  Trajectory a("bus_1");
  a.Append(Point2(0.125, 0.25), 0.01);
  a.Append(Point2(0.5, 0.75), 0.02);
  Trajectory b("bus_2");
  b.Append(Point2(-1.5, 3.25), 0.005);
  d.Add(std::move(a));
  d.Add(std::move(b));
  return d;
}

TEST(CsvTest, TrajectoriesRoundTrip) {
  const TrajectoryDataset d = SampleData();
  std::stringstream ss;
  WriteTrajectoriesCsv(d, ss);
  TrajectoryDataset back;
  ASSERT_TRUE(ReadTrajectoriesCsv(ss, &back));
  ASSERT_EQ(back.size(), d.size());
  for (size_t i = 0; i < d.size(); ++i) {
    EXPECT_EQ(back[i].id(), d[i].id());
    ASSERT_EQ(back[i].size(), d[i].size());
    for (size_t s = 0; s < d[i].size(); ++s) {
      EXPECT_DOUBLE_EQ(back[i][s].mean.x, d[i][s].mean.x);
      EXPECT_DOUBLE_EQ(back[i][s].mean.y, d[i][s].mean.y);
      EXPECT_DOUBLE_EQ(back[i][s].sigma, d[i][s].sigma);
    }
  }
}

TEST(CsvTest, RejectsMalformedRows) {
  std::stringstream ss("traj_id,snapshot,x,y,sigma\nbad,row\n");
  TrajectoryDataset out;
  EXPECT_FALSE(ReadTrajectoriesCsv(ss, &out));
  std::stringstream ss2("traj_id,snapshot,x,y,sigma\na,0,notanumber,0,0\n");
  EXPECT_FALSE(ReadTrajectoriesCsv(ss2, &out));
}

TEST(CsvTest, EmptyDatasetRoundTrip) {
  std::stringstream ss;
  WriteTrajectoriesCsv(TrajectoryDataset(), ss);
  TrajectoryDataset back;
  ASSERT_TRUE(ReadTrajectoriesCsv(ss, &back));
  EXPECT_TRUE(back.empty());
}

TEST(CsvTest, FileRoundTrip) {
  const TrajectoryDataset d = SampleData();
  const std::string path = ::testing::TempDir() + "/traj_io_test.csv";
  ASSERT_TRUE(WriteTrajectoriesCsvFile(d, path));
  TrajectoryDataset back;
  ASSERT_TRUE(ReadTrajectoriesCsvFile(path, &back));
  EXPECT_EQ(back.size(), d.size());
}

TEST(CsvTest, MissingFileFails) {
  TrajectoryDataset out;
  EXPECT_FALSE(ReadTrajectoriesCsvFile("/nonexistent/nope.csv", &out));
}

TEST(CsvTest, PatternsRoundTripWithWildcards) {
  std::vector<ScoredPattern> ps = {
      {Pattern(std::vector<CellId>{3, kWildcardCell, 7}), -1.25},
      {Pattern(std::vector<CellId>{0}), -0.5},
  };
  std::stringstream ss;
  WritePatternsCsv(ps, ss);
  std::vector<ScoredPattern> back;
  ASSERT_TRUE(ReadPatternsCsv(ss, &back));
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].pattern, ps[0].pattern);
  EXPECT_DOUBLE_EQ(back[0].nm, -1.25);
  EXPECT_EQ(back[1].pattern, ps[1].pattern);
}

TEST(CsvTest, PatternGroupsRoundTrip) {
  std::vector<PatternGroup> groups(2);
  groups[0].members = {{Pattern(std::vector<CellId>{1, 2}), -0.5},
                       {Pattern(std::vector<CellId>{1, 3}), -0.7}};
  groups[1].members = {{Pattern(std::vector<CellId>{9, kWildcardCell, 9}),
                        -1.5}};
  std::stringstream ss;
  WritePatternGroupsCsv(groups, ss);
  std::vector<PatternGroup> back;
  ASSERT_TRUE(ReadPatternGroupsCsv(ss, &back));
  ASSERT_EQ(back.size(), 2u);
  ASSERT_EQ(back[0].members.size(), 2u);
  ASSERT_EQ(back[1].members.size(), 1u);
  EXPECT_EQ(back[0].members[1].pattern, groups[0].members[1].pattern);
  EXPECT_DOUBLE_EQ(back[0].members[1].nm, -0.7);
  EXPECT_EQ(back[1].members[0].pattern, groups[1].members[0].pattern);
}

TEST(CsvTest, PatternGroupsRejectNonContiguousGroups) {
  std::stringstream ss(
      "group,member,nm,length,cells\n"
      "1,1,-0.5,1,3\n"
      "3,1,-0.5,1,4\n");  // group 2 missing
  std::vector<PatternGroup> out;
  EXPECT_FALSE(ReadPatternGroupsCsv(ss, &out));
}

TEST(PatternTest, ToStringRendersCellsAndWildcards) {
  const Pattern p(std::vector<CellId>{3, kWildcardCell, 7});
  EXPECT_EQ(p.ToString(), "(c3, *, c7)");
}

TEST(PatternTest, ConcatAndDrop) {
  const Pattern a(std::vector<CellId>{1, 2});
  const Pattern b(std::vector<CellId>{3});
  const Pattern c = a.Concat(b);
  EXPECT_EQ(c, Pattern(std::vector<CellId>{1, 2, 3}));
  EXPECT_EQ(c.SubPattern(1, 2), Pattern(std::vector<CellId>{2, 3}));
  EXPECT_EQ(c.SubPattern(0, 2), a);
}

TEST(PatternTest, HashDistinguishesOrder) {
  PatternHash h;
  const Pattern a(std::vector<CellId>{1, 2});
  const Pattern b(std::vector<CellId>{2, 1});
  EXPECT_NE(h(a), h(b));
  EXPECT_EQ(h(a), h(Pattern(std::vector<CellId>{1, 2})));
}

// A sub-span of a pattern's cells hashes, and probes the score memo,
// exactly like the Pattern holding them.
TEST(PatternTest, SpanLookupMatchesPatternLookup) {
  const Pattern p(std::vector<CellId>{1, kWildcardCell, 3});
  const std::span<const CellId> cells = p.cells();
  PatternHash h;
  EXPECT_EQ(h(cells.subspan(1)), h(p.SubPattern(1, 2)));
  EXPECT_EQ(h(cells.first(2)), h(p.SubPattern(0, 2)));
  ScoreMemo memo;
  memo.emplace(p.SubPattern(0, 2).cells(), -1.5);
  const double* hit = memo.find(cells.first(2));
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit, -1.5);
  EXPECT_EQ(memo.find(cells.subspan(1)), nullptr);
  EXPECT_EQ(memo.find(cells.first(1)), nullptr);
}

TEST(AsciiArtTest, DensityMarksOccupiedCells) {
  const Grid grid = Grid::UnitSquare(4);
  TrajectoryDataset d;
  Trajectory t("a");
  for (int i = 0; i < 10; ++i) t.Append(Point2(0.1, 0.1), 0.0);  // cell (0,0)
  t.Append(Point2(0.9, 0.9), 0.0);                               // cell (3,3)
  d.Add(std::move(t));
  const std::string art = RenderDensity(d, grid);
  // Frame: 4+2 columns (+ newline) by 4+2 rows.
  const std::vector<std::string> lines = [&] {
    std::vector<std::string> out;
    std::istringstream is(art);
    std::string line;
    while (std::getline(is, line)) out.push_back(line);
    return out;
  }();
  ASSERT_EQ(lines.size(), 6u);
  EXPECT_EQ(lines[0], "+----+");
  // Top row holds the (3,3) cell's single point; bottom row the dense
  // (0,0) cell, which must use the hottest ramp character.
  EXPECT_NE(lines[1][4], ' ');
  EXPECT_EQ(lines[4][1], '@');
  // Empty cells are blank.
  EXPECT_EQ(lines[2][2], ' ');
}

TEST(FlagsTest, ParsesTypedValues) {
  const char* argv[] = {"prog", "--k=25", "--delta=0.5", "--name=zebra",
                        "--fast", "--off=false"};
  Flags flags(6, const_cast<char**>(argv));
  EXPECT_EQ(flags.GetInt("k", 1), 25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("delta", 0.0), 0.5);
  EXPECT_EQ(flags.GetString("name", ""), "zebra");
  EXPECT_TRUE(flags.GetBool("fast", false));
  EXPECT_FALSE(flags.GetBool("off", true));
  EXPECT_EQ(flags.GetInt("missing", 42), 42);
  EXPECT_TRUE(flags.Has("k"));
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagsTest, IgnoresNonFlagArguments) {
  const char* argv[] = {"prog", "positional", "-x", "--ok=1"};
  Flags flags(4, const_cast<char**>(argv));
  EXPECT_FALSE(flags.Has("positional"));
  EXPECT_FALSE(flags.Has("x"));
  EXPECT_TRUE(flags.Has("ok"));
}

}  // namespace
}  // namespace trajpattern
