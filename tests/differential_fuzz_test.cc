// Differential fuzz harness: the tier-1 slice of the campaign that
// bench/fuzz_corpus runs at full width in CI.  Every seed here executes
// the complete oracle pass (engine vs reference scorer + brute force,
// frontier, checkpoint/resume, thread determinism, warm order, memo
// bounds); see docs/correctness.md for the contracts.
#include <cstdio>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "testing/instance.h"
#include "testing/mining_oracle.h"
#include "testing/shrinker.h"

namespace trajpattern {
namespace {

std::string Render(const FuzzInstance& inst) {
  std::ostringstream os;
  WriteInstance(inst, os);
  return os.str();
}

TEST(InstanceTest, GenerationIsDeterministic) {
  for (uint64_t seed : {1ull, 7ull, 42ull, 1000ull}) {
    EXPECT_EQ(Render(GenerateInstance(seed)), Render(GenerateInstance(seed)))
        << "seed " << seed;
  }
}

TEST(InstanceTest, RoundTripIsBitExact) {
  for (uint64_t seed = 1; seed <= 100; ++seed) {
    const FuzzInstance inst = GenerateInstance(seed);
    const std::string first = Render(inst);
    std::istringstream is(first);
    FuzzInstance parsed;
    const Status s = ParseInstance(is, &parsed);
    ASSERT_TRUE(s.ok()) << "seed " << seed << ": " << s.ToString();
    EXPECT_EQ(Render(parsed), first) << "seed " << seed;
  }
}

TEST(InstanceTest, FileRoundTrip) {
  const FuzzInstance inst = GenerateInstance(3);
  const std::string path =
      ::testing::TempDir() + "/fuzz_instance_roundtrip.repro";
  ASSERT_TRUE(WriteInstanceFile(inst, path).ok());
  FuzzInstance loaded;
  ASSERT_TRUE(ReadInstanceFile(path, &loaded).ok());
  EXPECT_EQ(Render(loaded), Render(inst));
  std::remove(path.c_str());
}

TEST(InstanceTest, ParserRejectsMalformedInput) {
  const struct {
    const char* name;
    const char* text;
  } cases[] = {
      {"empty", ""},
      {"bad header", "not_a_repro,v9\n"},
      {"truncated preamble", "trajpattern_repro,v1\nseed,1\n"},
      {"bad seed", "trajpattern_repro,v1\nseed,banana\n"},
  };
  for (const auto& c : cases) {
    std::istringstream is(c.text);
    FuzzInstance out;
    out.k = 99;  // sentinel: a failed parse must not touch the output
    const Status s = ParseInstance(is, &out);
    EXPECT_FALSE(s.ok()) << c.name;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << c.name;
    EXPECT_EQ(out.k, 99) << c.name << ": output modified on failure";
  }
}

// Instances have no sharded axis: a `shards` line before `sync`, well
// formed or not, is rejected.  (RegressionReplayTest parses the
// committed repros, which carry none.)
TEST(InstanceTest, ParserRejectsBadShardsLine) {
  const std::string good = Render(GenerateInstance(3));
  const size_t pos = good.find("sync,");
  ASSERT_NE(pos, std::string::npos);
  for (const char* line :
       {"shards,2,0", "shards,3,3735928559", "shards,0,0", "shards,-2,0",
        "shards,99999,0", "shards,2,banana", "shards,2"}) {
    std::string text = good;
    text.insert(pos, std::string(line) + "\n");
    std::istringstream is(text);
    FuzzInstance out;
    const Status s = ParseInstance(is, &out);
    EXPECT_FALSE(s.ok()) << line;
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << line;
  }
}

TEST(InstanceTest, ParserRejectsTruncatedTrajectoryBlock) {
  const FuzzInstance inst = GenerateInstance(11);
  std::string text = Render(inst);
  // Chop the trailer and the last line: a torn write.
  text.resize(text.size() / 2);
  std::istringstream is(text);
  FuzzInstance out;
  const Status s = ParseInstance(is, &out);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
}

// The tier-1 fuzz slice.  CI's fuzz-smoke job extends the same campaign
// to >= 500 seeds via bench/fuzz_corpus.
class DifferentialFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzzTest, OraclePassesOnSeed) {
  const FuzzInstance inst = GenerateInstance(GetParam());
  const OracleReport report = MiningOracle().Check(inst);
  EXPECT_TRUE(report.ok()) << report.divergence;
  EXPECT_TRUE(report.memo_bounds_checked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzTest,
                         ::testing::Range<uint64_t>(1, 61));

// The frontier leg needs two boundaries, which seed 7's reference run
// has; it must not quietly stop running.
TEST(MiningOracleTest, FrontierLegRunsWhenTheRunHasTwoBoundaries) {
  const OracleReport report = MiningOracle().Check(GenerateInstance(7));
  EXPECT_TRUE(report.ok()) << report.divergence;
  EXPECT_TRUE(report.frontier_checked);
}

TEST(ShrinkerTest, ReachesAFixpointUnderASimplePredicate) {
  // Predicate independent of the oracle so the test pins the shrinking
  // mechanics alone: "at least 3 snapshots total".  The greedy passes
  // must walk down to exactly 3 and stop.
  FuzzInstance inst = GenerateInstance(1);
  Trajectory filler("filler");
  for (int i = 0; i < 8; ++i) filler.Append(Point2(0.5, 0.5), 0.05);
  inst.data.Add(filler);
  ASSERT_GE(inst.data.TotalPoints(), 3u);
  const auto predicate = [](const FuzzInstance& c) {
    return c.data.TotalPoints() >= 3;
  };
  const FuzzInstance shrunk = Shrinker().Shrink(inst, predicate);
  EXPECT_TRUE(predicate(shrunk));
  EXPECT_EQ(shrunk.data.TotalPoints(), 3u);
  EXPECT_TRUE(shrunk.report_streams.empty());
}

TEST(ShrinkerTest, ShrunkInstanceStillFailsTheSameOracle) {
  // A synthetic always-true predicate would shrink to nothing; instead
  // exercise the real loop: find a seed whose *mutated* copy diverges
  // (force disagreement by corrupting the kill iteration contract is not
  // possible from outside, so use the predicate "k is odd" as a stand-in
  // for a persistent property the shrinker must preserve).
  FuzzInstance inst = GenerateInstance(5);
  inst.k = 5;
  const auto predicate = [](const FuzzInstance& c) { return c.k % 2 == 1; };
  const FuzzInstance shrunk = Shrinker().Shrink(inst, predicate);
  EXPECT_TRUE(predicate(shrunk));
  // Everything removable was removed.
  EXPECT_EQ(shrunk.data.TotalPoints(), 0u);
  EXPECT_TRUE(shrunk.report_streams.empty());
  EXPECT_EQ(shrunk.max_pattern_length, 1u);
}

}  // namespace
}  // namespace trajpattern
