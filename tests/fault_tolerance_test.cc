// The fault-tolerant ingestion pipeline end to end: injector determinism,
// validator classification/repair/quarantine, hardened CSV parsing, and
// checkpoint/resume bit-identity of the miner.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/planted_generator.h"
#include "geometry/grid.h"
#include "io/checkpoint.h"
#include "io/csv.h"
#include "prob/rng.h"
#include "server/fault_injector.h"
#include "server/mining_supervisor.h"
#include "trajectory/validate.h"

namespace trajpattern {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

Trajectory MakeTrajectory(const std::string& id,
                          const std::vector<Point2>& means,
                          double sigma = 0.01) {
  Trajectory t(id);
  for (const Point2& m : means) t.Append(m, sigma);
  return t;
}

std::vector<ReportEvent> MakeCleanEvents(size_t n) {
  std::vector<ReportEvent> events;
  for (size_t i = 0; i < n; ++i) {
    events.push_back(ReportEvent{0, static_cast<double>(i),
                                 Point2(0.01 * static_cast<double>(i), 0.5)});
  }
  return events;
}

// ---------------------------------------------------------------- injector

TEST(FaultInjectorTest, ZeroRatesAreIdentity) {
  const auto clean = MakeCleanEvents(50);
  FaultStats stats;
  const auto out = FaultInjector(FaultInjectorOptions{}).Inject(clean, &stats);
  EXPECT_EQ(out, clean);
  EXPECT_EQ(stats.input, 50u);
  EXPECT_EQ(stats.emitted, 50u);
  EXPECT_EQ(stats.dropped + stats.duplicated + stats.reordered +
                stats.delayed + stats.corrupted,
            0u);
}

TEST(FaultInjectorTest, SameSeedSameStream) {
  const auto clean = MakeCleanEvents(200);
  FaultInjectorOptions opt;
  opt.drop_rate = 0.1;
  opt.duplicate_rate = 0.05;
  opt.reorder_rate = 0.05;
  opt.delay_rate = 0.1;
  opt.corrupt_rate = 0.05;
  opt.seed = 42;
  const auto a = FaultInjector(opt).Inject(clean);
  const auto b = FaultInjector(opt).Inject(clean);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    // NaN-corrupted events compare unequal through ==; compare bits.
    EXPECT_EQ(a[i].object, b[i].object);
    EXPECT_EQ(std::memcmp(&a[i].time, &b[i].time, sizeof(double)), 0);
    EXPECT_EQ(
        std::memcmp(&a[i].location, &b[i].location, sizeof(Point2)), 0);
  }

  opt.seed = 43;
  const auto c = FaultInjector(opt).Inject(clean);
  bool different = a.size() != c.size();
  for (size_t i = 0; !different && i < a.size(); ++i) {
    different = std::memcmp(&a[i].location, &c[i].location,
                            sizeof(Point2)) != 0 ||
                a[i].time != c[i].time;
  }
  EXPECT_TRUE(different);
}

TEST(FaultInjectorTest, DropRateOneDropsEverything) {
  const auto clean = MakeCleanEvents(20);
  FaultInjectorOptions opt;
  opt.drop_rate = 1.0;
  FaultStats stats;
  const auto out = FaultInjector(opt).Inject(clean, &stats);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(stats.dropped, 20u);
}

TEST(ParseFaultSpecTest, ParsesAllKeys) {
  const auto parsed =
      ParseFaultSpec("drop:0.05,corrupt:0.01,dup:0.02,reorder:0.03,delay:0.4");
  ASSERT_TRUE(parsed.ok());
  EXPECT_DOUBLE_EQ(parsed->drop_rate, 0.05);
  EXPECT_DOUBLE_EQ(parsed->corrupt_rate, 0.01);
  EXPECT_DOUBLE_EQ(parsed->duplicate_rate, 0.02);
  EXPECT_DOUBLE_EQ(parsed->reorder_rate, 0.03);
  EXPECT_DOUBLE_EQ(parsed->delay_rate, 0.4);
  EXPECT_TRUE(ParseFaultSpec("").ok());
}

TEST(ParseFaultSpecTest, RejectsBadSpecs) {
  EXPECT_EQ(ParseFaultSpec("drop:1.5").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("drop:-0.1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("warp:0.1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("drop=0.1").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("drop:abc").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParseFaultSpec("drop:nan").status().code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- validator

TEST(TrajectoryValidatorTest, ClassifiesStructuralFaults) {
  const Trajectory t = [] {
    Trajectory t("x");
    t.Append(Point2(0.1, 0.1), 0.01);
    t.Append(Point2(kNan, 0.2), 0.01);
    t.Append(Point2(0.3, 0.3), 0.0);    // sigma <= 0
    t.Append(Point2(0.4, 0.4), kNan);   // sigma NaN
    t.Append(Point2(0.5, 0.5), 0.01);
    return t;
  }();
  const auto faults = TrajectoryValidator(ValidationPolicy{}).Classify(t);
  ASSERT_EQ(faults.size(), 5u);
  EXPECT_EQ(faults[0], SnapshotFault::kOk);
  EXPECT_EQ(faults[1], SnapshotFault::kNonFiniteCoord);
  EXPECT_EQ(faults[2], SnapshotFault::kBadSigma);
  EXPECT_EQ(faults[3], SnapshotFault::kBadSigma);
  EXPECT_EQ(faults[4], SnapshotFault::kOk);
}

TEST(TrajectoryValidatorTest, FlagsTeleportsAgainstTrustedAnchor) {
  ValidationPolicy policy;
  policy.max_jump = 1.0;
  const Trajectory t = MakeTrajectory(
      "x", {Point2(0.0, 0.0), Point2(0.5, 0.0), Point2(25.0, 25.0),
            Point2(1.0, 0.0), Point2(1.5, 0.0)});
  const auto faults = TrajectoryValidator(policy).Classify(t);
  EXPECT_EQ(faults[2], SnapshotFault::kTeleport);
  EXPECT_EQ(faults[0], SnapshotFault::kOk);
  EXPECT_EQ(faults[1], SnapshotFault::kOk);
  EXPECT_EQ(faults[3], SnapshotFault::kOk);
  EXPECT_EQ(faults[4], SnapshotFault::kOk);
}

TEST(TrajectoryValidatorTest, CorruptedHeadDoesNotCondemnTail) {
  ValidationPolicy policy;
  policy.max_jump = 1.0;
  // The first snapshot is the corrupted one: anchoring must skip it.
  const Trajectory t = MakeTrajectory(
      "x", {Point2(30.0, 30.0), Point2(0.5, 0.0), Point2(1.0, 0.0),
            Point2(1.5, 0.0)});
  const auto faults = TrajectoryValidator(policy).Classify(t);
  EXPECT_EQ(faults[0], SnapshotFault::kTeleport);
  EXPECT_EQ(faults[1], SnapshotFault::kOk);
  EXPECT_EQ(faults[2], SnapshotFault::kOk);
  EXPECT_EQ(faults[3], SnapshotFault::kOk);
}

TEST(TrajectoryValidatorTest, RepairInterpolatesNaNRun) {
  Trajectory t = MakeTrajectory(
      "x", {Point2(0.0, 0.0), Point2(kNan, kNan), Point2(kNan, kNan),
            Point2(0.3, 0.0)},
      0.01);
  size_t repaired = 0;
  const Status s =
      TrajectoryValidator(ValidationPolicy{}).Repair(&t, &repaired);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(repaired, 2u);
  EXPECT_NEAR(t[1].mean.x, 0.1, 1e-12);
  EXPECT_NEAR(t[2].mean.x, 0.2, 1e-12);
  EXPECT_NEAR(t[1].mean.y, 0.0, 1e-12);
  // Repaired sigma is inflated above the trusted base (Eq. 1 regime).
  EXPECT_GT(t[1].sigma, 0.01);
  EXPECT_TRUE(std::isfinite(t[1].sigma));
}

TEST(TrajectoryValidatorTest, RepairHoldsFlatPastTheEnds) {
  Trajectory t = MakeTrajectory(
      "x", {Point2(kNan, kNan), Point2(0.2, 0.4), Point2(0.3, 0.4)}, 0.01);
  const Status s = TrajectoryValidator(ValidationPolicy{}).Repair(&t);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(t[0].mean, Point2(0.2, 0.4));
}

TEST(TrajectoryValidatorTest, RepairFixesBadSigmaKeepingLocation) {
  Trajectory t = MakeTrajectory(
      "x", {Point2(0.1, 0.1), Point2(0.2, 0.2), Point2(0.3, 0.3)}, 0.02);
  t[1].sigma = -1.0;
  const Status s = TrajectoryValidator(ValidationPolicy{}).Repair(&t);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(t[1].mean, Point2(0.2, 0.2));  // the reported location survives
  EXPECT_DOUBLE_EQ(t[1].sigma, 0.02);      // nearest trusted sigma
}

TEST(TrajectoryValidatorTest, QuarantinesWhenTooFaultyOrRepairOff) {
  ValidationPolicy policy;
  policy.max_fault_fraction = 0.25;
  Trajectory mostly_bad = MakeTrajectory(
      "bad", {Point2(0.1, 0.1), Point2(kNan, kNan), Point2(kNan, kNan),
              Point2(0.4, 0.4), Point2(0.5, 0.5), Point2(0.6, 0.6)});
  EXPECT_EQ(TrajectoryValidator(policy).Repair(&mostly_bad).code(),
            StatusCode::kDataLoss);

  ValidationPolicy no_repair;
  no_repair.repair = false;
  Trajectory one_bad = MakeTrajectory(
      "x", {Point2(0.1, 0.1), Point2(kNan, kNan), Point2(0.3, 0.3)});
  EXPECT_EQ(TrajectoryValidator(no_repair).Repair(&one_bad).code(),
            StatusCode::kDataLoss);
}

TEST(TrajectoryValidatorTest, DropsWhenTooFewTrustedPoints) {
  Trajectory t = MakeTrajectory(
      "x", {Point2(kNan, kNan), Point2(0.2, 0.2), Point2(kNan, kNan)});
  EXPECT_EQ(TrajectoryValidator(ValidationPolicy{}).Repair(&t).code(),
            StatusCode::kFailedPrecondition);
}

TEST(TrajectoryValidatorTest, ValidateRoutesRepairQuarantineDrop) {
  TrajectoryDataset in;
  in.Add(MakeTrajectory("clean", {Point2(0.1, 0.1), Point2(0.2, 0.2)}));
  in.Add(MakeTrajectory(
      "fixable", {Point2(0.1, 0.1), Point2(kNan, kNan), Point2(0.3, 0.3)}));
  in.Add(MakeTrajectory("hopeless",
                        {Point2(kNan, kNan), Point2(kNan, kNan),
                         Point2(0.2, 0.2)}));
  ValidationPolicy policy;
  policy.max_fault_fraction = 0.0;  // any fault => quarantine
  ValidationReport report;
  TrajectoryDataset quarantine;
  const TrajectoryDataset out =
      TrajectoryValidator(policy).Validate(in, &report, &quarantine);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id(), "clean");
  EXPECT_EQ(report.quarantined, 1u);
  ASSERT_EQ(report.quarantined_ids.size(), 1u);
  EXPECT_EQ(report.quarantined_ids[0], "fixable");
  ASSERT_EQ(quarantine.size(), 1u);
  EXPECT_EQ(quarantine[0].id(), "fixable");
  EXPECT_EQ(report.dropped, 1u);
  EXPECT_EQ(report.trajectories, 3u);
  EXPECT_EQ(report.non_finite, 3u);
}

// ------------------------------------------------------------ hardened CSV

TEST(CsvHardeningTest, RejectsNonFiniteCoordinateWithLineNumber) {
  std::istringstream is(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,0.01\n"
      "a,1,nan,0.2,0.01\n");
  TrajectoryDataset out;
  CsvDiagnostic diag;
  EXPECT_FALSE(ReadTrajectoriesCsv(is, &out, &diag));
  EXPECT_EQ(diag.line, 3u);
  EXPECT_NE(diag.message.find("non-finite"), std::string::npos);
}

TEST(CsvHardeningTest, RejectsNonPositiveSigmaWithLineNumber) {
  std::istringstream is(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,0.01\n"
      "a,1,0.2,0.2,0.0\n"
      "a,2,0.3,0.3,0.01\n");
  TrajectoryDataset out;
  CsvDiagnostic diag;
  EXPECT_FALSE(ReadTrajectoriesCsv(is, &out, &diag));
  EXPECT_EQ(diag.line, 3u);
  std::istringstream is2(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,inf\n");
  EXPECT_FALSE(ReadTrajectoriesCsv(is2, &out, &diag));
  EXPECT_EQ(diag.line, 2u);
}

TEST(CsvHardeningTest, AcceptsCleanInputUnchanged) {
  std::istringstream is(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,0.01\n"
      "a,1,0.2,0.2,0.01\n");
  TrajectoryDataset out;
  CsvDiagnostic diag;
  EXPECT_TRUE(ReadTrajectoriesCsv(is, &out, &diag));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].size(), 2u);
}

// The snapshot column and the grouping are part of the format: rows that
// break either would otherwise read as a different dataset (time-major
// rows as one-point trajectories, a missing row as a shifted trajectory).
TEST(CsvHardeningTest, RejectsTimeMajorRowsWithLineNumber) {
  std::istringstream is(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,0.01\n"
      "b,0,0.5,0.5,0.01\n"
      "a,1,0.2,0.2,0.01\n"
      "b,1,0.6,0.6,0.01\n");
  TrajectoryDataset out;
  CsvDiagnostic diag;
  EXPECT_FALSE(ReadTrajectoriesCsv(is, &out, &diag));
  EXPECT_EQ(diag.line, 4u);
  EXPECT_NE(diag.message.find("grouped by trajectory"), std::string::npos)
      << diag.message;
}

TEST(CsvHardeningTest, RejectsSkippedSnapshotWithLineNumber) {
  std::istringstream is(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,0.01\n"
      "a,1,0.2,0.2,0.01\n"
      "a,3,0.4,0.4,0.01\n");
  TrajectoryDataset out;
  CsvDiagnostic diag;
  EXPECT_FALSE(ReadTrajectoriesCsv(is, &out, &diag));
  EXPECT_EQ(diag.line, 4u);
  EXPECT_NE(diag.message.find("should be 2"), std::string::npos)
      << diag.message;
}

TEST(CsvHardeningTest, RejectsRepeatedSnapshotWithLineNumber) {
  std::istringstream is(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,0.01\n"
      "a,1,0.2,0.2,0.01\n"
      "a,1,0.3,0.3,0.01\n");
  TrajectoryDataset out;
  CsvDiagnostic diag;
  EXPECT_FALSE(ReadTrajectoriesCsv(is, &out, &diag));
  EXPECT_EQ(diag.line, 4u);
  EXPECT_NE(diag.message.find("should be 2"), std::string::npos)
      << diag.message;
}

TEST(CsvHardeningTest, RejectsReturningIdWithLineNumber) {
  std::istringstream is(
      "traj_id,snapshot,x,y,sigma\n"
      "a,0,0.1,0.1,0.01\n"
      "a,1,0.2,0.2,0.01\n"
      "b,0,0.5,0.5,0.01\n"
      "a,2,0.3,0.3,0.01\n");
  TrajectoryDataset out;
  CsvDiagnostic diag;
  EXPECT_FALSE(ReadTrajectoriesCsv(is, &out, &diag));
  EXPECT_EQ(diag.line, 5u);
  EXPECT_NE(diag.message.find("trajectory a returns"), std::string::npos)
      << diag.message;
}

TEST(CsvHardeningTest, PatternsRejectNaNNm) {
  std::istringstream is(
      "rank,nm,length,cells\n"
      "1,nan,2,3;4\n");
  std::vector<ScoredPattern> out;
  CsvDiagnostic diag;
  EXPECT_FALSE(ReadPatternsCsv(is, &out, &diag));
  EXPECT_EQ(diag.line, 2u);
}

// ---------------------------------------------------- checkpoint round-trip

MinerCheckpoint MakeSampleCheckpoint() {
  MinerCheckpoint cp;
  cp.iteration = 2;
  cp.k = 10;
  cp.omega = -123.456789012345678;
  cp.scores.emplace(std::vector<CellId>{3, 4, 5}, -10.25);
  cp.scores.emplace(std::vector<CellId>{7, kWildcardCell, 9}, -77.125);
  cp.scores.emplace(std::vector<CellId>{1},
                    -std::numeric_limits<double>::infinity());
  cp.scores.emplace(std::vector<CellId>{3, 4}, -50.5);
  cp.prev_high.push_back(3);  // cells 3;4
  cp.prev_queue.push_back(2);  // cells 1
  cp.prev_queue.push_back(3);  // cells 3;4
  return cp;
}

TEST(CheckpointIoTest, RoundTripsBitExactly) {
  const MinerCheckpoint cp = MakeSampleCheckpoint();
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(cp, ss).ok());
  MinerCheckpoint loaded;
  const Status s = ReadMinerCheckpoint(ss, &loaded);
  ASSERT_TRUE(s.ok()) << s.ToString();
  EXPECT_EQ(loaded.iteration, cp.iteration);
  EXPECT_EQ(loaded.k, cp.k);
  EXPECT_EQ(std::memcmp(&loaded.omega, &cp.omega, sizeof(double)), 0);
  ASSERT_EQ(loaded.scores.size(), cp.scores.size());
  for (ScoreMemo::Id i = 0; i < cp.scores.size(); ++i) {
    EXPECT_EQ(loaded.scores.pattern(i), cp.scores.pattern(i));
    EXPECT_EQ(std::bit_cast<uint64_t>(loaded.scores.nm(i)),
              std::bit_cast<uint64_t>(cp.scores.nm(i)));
  }
  EXPECT_EQ(loaded.prev_high, cp.prev_high);
  EXPECT_EQ(loaded.prev_queue, cp.prev_queue);
}

// The exact v2 text, pinned: the writer spells every double from its
// bits, and every byte must still match the "%a"/decimal spelling of the
// files earlier builds wrote.
TEST(CheckpointIoTest, WriterGoldenText) {
  MinerCheckpoint cp;
  cp.iteration = 3;
  cp.k = 7;
  cp.omega = -std::numeric_limits<double>::infinity();
  cp.candidates_evaluated = 12345678901;
  cp.candidates_pruned = 42;
  cp.hit_candidate_cap = true;
  cp.scores.emplace(std::vector<CellId>{0, kWildcardCell, 2147483647}, -0.0);
  cp.scores.emplace(std::vector<CellId>{5},
                    std::numeric_limits<double>::denorm_min());
  cp.scores.emplace(std::vector<CellId>{2147483647, 1},
                    -std::numeric_limits<double>::max());
  cp.scores.emplace(std::vector<CellId>{9, 9}, -10.25);
  cp.prev_high.push_back(1);  // cells 5
  cp.prev_queue.push_back(1);  // cells 5
  cp.prev_queue.push_back(2);  // cells 2147483647;1
  std::ostringstream os;
  ASSERT_TRUE(WriteMinerCheckpoint(cp, os).ok());
  EXPECT_EQ(os.str(),
            "trajpattern_checkpoint,v5\n"
            "iteration,3\n"
            "k,7\n"
            "omega,-inf\n"
            "candidates_evaluated,12345678901\n"
            "candidates_pruned,42\n"
            "beam_capped,1\n"
            "scores,4\n"
            "-0x0p+0,0;*;2147483647\n"
            "0x0.0000000000001p-1022,5\n"
            "-0x1.fffffffffffffp+1023,2147483647;1\n"
            "-0x1.48p+3,9;9\n"
            "prev_high,1\n"
            "5\n"
            "prev_queue,2\n"
            "5\n"
            "2147483647;1\n"
            "end\n");
  MinerCheckpoint back;
  std::istringstream in(os.str());
  ASSERT_TRUE(ReadMinerCheckpoint(in, &back).ok());
  ASSERT_EQ(back.scores.size(), cp.scores.size());
  for (ScoreMemo::Id i = 0; i < cp.scores.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>(back.scores.nm(i)),
              std::bit_cast<uint64_t>(cp.scores.nm(i)))
        << i;
  }
}

// Every finite double the writer emits is spelled exactly as
// snprintf("%a") spells it.
TEST(CheckpointIoTest, WriterMatchesPrintfHexfloatOnRandomBits) {
  constexpr int kValues = 100000;
  Rng rng(20061);
  MinerCheckpoint cp;
  cp.k = 1;
  cp.scores.reserve(kValues, kValues);
  while (static_cast<int>(cp.scores.size()) < kValues) {
    const double v = std::bit_cast<double>(rng.engine()());
    if (!std::isfinite(v)) continue;
    cp.scores.emplace(
        std::vector<CellId>{static_cast<CellId>(cp.scores.size())}, v);
  }
  std::ostringstream os;
  ASSERT_TRUE(WriteMinerCheckpoint(cp, os).ok());
  std::istringstream lines(os.str());
  std::string line;
  while (std::getline(lines, line) && line.rfind("scores,", 0) != 0) {
  }
  for (ScoreMemo::Id i = 0; i < cp.scores.size(); ++i) {
    ASSERT_TRUE(std::getline(lines, line));
    char expected[64];
    std::snprintf(expected, sizeof(expected), "%a,%d", cp.scores.nm(i),
                  cp.scores.cells(i)[0]);
    ASSERT_EQ(line, expected);
  }
}

TEST(CheckpointIoTest, RejectsTruncatedAndForeignInput) {
  MinerCheckpoint cp;
  std::istringstream not_ours("hello,world\n");
  EXPECT_EQ(ReadMinerCheckpoint(not_ours, &cp).code(), StatusCode::kDataLoss);

  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  std::string text = ss.str();
  text.resize(text.size() / 2);  // tear the file
  std::istringstream torn(text);
  EXPECT_EQ(ReadMinerCheckpoint(torn, &cp).code(), StatusCode::kDataLoss);
}

// Serializes the sample checkpoint and applies one find/replace, for
// corruption tests that flip a single field.
std::string CorruptedCheckpoint(const std::string& find,
                                const std::string& replace) {
  std::stringstream ss;
  EXPECT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  std::string text = ss.str();
  const size_t pos = text.find(find);
  EXPECT_NE(pos, std::string::npos) << find;
  text.replace(pos, find.size(), replace);
  return text;
}

TEST(CheckpointIoTest, RejectsAllocationBombCounts) {
  // A flipped digit in a block count must come back as a typed Status,
  // not as std::bad_alloc out of an unchecked reserve().
  for (const char* count : {"scores,200000000", "scores,-3"}) {
    MinerCheckpoint cp;
    std::istringstream in(CorruptedCheckpoint("scores,", count));
    // The oversized count either fails the plausibility bound or the
    // row-by-row truncation check; both are kDataLoss.
    EXPECT_EQ(ReadMinerCheckpoint(in, &cp).code(), StatusCode::kDataLoss)
        << count;
  }
}

TEST(CheckpointIoTest, RejectsCorruptCellLists) {
  const MinerCheckpoint sample = MakeSampleCheckpoint();
  ASSERT_FALSE(sample.prev_queue.empty());
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(sample, ss).ok());
  const std::string good = ss.str();
  // Negative cell, CellId overflow, and a trailing ';' (lost cell) are
  // all corruption, not formatting slack.
  for (const char* bad_row : {"-7", "99999999999", "3;"}) {
    std::string text = good;
    const size_t row = text.rfind("3;4\n");
    ASSERT_NE(row, std::string::npos);
    text.replace(row, 3, bad_row);
    MinerCheckpoint cp;
    std::istringstream in(text);
    EXPECT_EQ(ReadMinerCheckpoint(in, &cp).code(), StatusCode::kDataLoss)
        << bad_row;
  }
}

TEST(CheckpointIoTest, RejectsNegativeWorkCounters) {
  MinerCheckpoint cp;
  std::istringstream in(
      CorruptedCheckpoint("candidates_evaluated,", "candidates_evaluated,-1\n"
                                                   "ignored,"));
  EXPECT_EQ(ReadMinerCheckpoint(in, &cp).code(), StatusCode::kDataLoss);
}

// `iteration` and `k` are ints in memory.  A value past INT_MAX used to
// wrap in the cast: "k,4294967360" loaded as k=64.
TEST(CheckpointIoTest, RejectsIterationAndKAboveIntMax) {
  const std::pair<const char*, const char*> corruptions[] = {
      {"iteration,2\n", "iteration,4294967297\n"},
      {"iteration,2\n", "iteration,2147483648\n"},
      {"k,10\n", "k,4294967360\n"},
      {"k,10\n", "k,2147483648\n"},
  };
  for (const auto& [find, replace] : corruptions) {
    MinerCheckpoint cp;
    std::istringstream in(CorruptedCheckpoint(find, replace));
    const Status s = ReadMinerCheckpoint(in, &cp);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << replace;
    const std::string field(find, std::strchr(find, ','));
    EXPECT_NE(s.ToString().find(field + " out of range"), std::string::npos)
        << s.ToString();
  }
  // INT_MAX itself still loads.
  MinerCheckpoint cp;
  std::istringstream in(CorruptedCheckpoint("k,10\n", "k,2147483647\n"));
  ASSERT_TRUE(ReadMinerCheckpoint(in, &cp).ok());
  EXPECT_EQ(cp.k, std::numeric_limits<int>::max());
}

TEST(CheckpointIoTest, FailedReadLeavesOutputUntouched) {
  // The reader parses into a local and publishes on success only: a torn
  // file must not leave the caller holding half a checkpoint.
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  std::string text = ss.str();
  text.resize(text.size() - 4);  // drop the 'end' trailer
  MinerCheckpoint cp;
  cp.iteration = 123;
  cp.k = 45;
  cp.scores.emplace(std::vector<CellId>{9}, 0.5);
  std::istringstream torn(text);
  EXPECT_EQ(ReadMinerCheckpoint(torn, &cp).code(), StatusCode::kDataLoss);
  EXPECT_EQ(cp.iteration, 123);
  EXPECT_EQ(cp.k, 45);
  ASSERT_EQ(cp.scores.size(), 1u);
  EXPECT_EQ(cp.scores.pattern(0), Pattern(CellId{9}));
}

// v1, v2 and v4 files hold NM values of the old interval measure,
// Phi(hi) - Phi(lo); resuming one would mix two measures in one run.  The
// reader refuses each with kFailedPrecondition naming its version and the
// measure change, and leaves the caller's checkpoint untouched.
TEST(CheckpointIoTest, OldMeasureFormatsAreRefused) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  const std::string v5 = ss.str();
  ASSERT_EQ(v5.rfind("trajpattern_checkpoint,v5\n", 0), 0u);
  for (const std::string version : {"v1", "v2", "v4"}) {
    std::string text = v5;
    text.replace(text.find("v5"), 2, version);
    // v1 predates the work counters, v1 and v2 the beam-cap flag.
    std::vector<std::string> missing;
    if (version != "v4") missing.push_back("beam_capped,");
    if (version == "v1") {
      missing.push_back("candidates_evaluated,");
      missing.push_back("candidates_pruned,");
    }
    for (const std::string& key : missing) {
      const size_t pos = text.find(key);
      ASSERT_NE(pos, std::string::npos) << key;
      text.erase(pos, text.find('\n', pos) + 1 - pos);
    }
    MinerCheckpoint cp;
    cp.iteration = 99;  // canary: a refused read must not touch *cp
    std::istringstream in(text);
    const Status s = ReadMinerCheckpoint(in, &cp);
    EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition) << version;
    EXPECT_NE(s.message().find("format " + version), std::string::npos)
        << s.ToString();
    EXPECT_NE(s.message().find("old interval measure"), std::string::npos)
        << s.ToString();
    EXPECT_EQ(cp.iteration, 99) << version;
  }
}

TEST(CheckpointIoTest, BeamCapFlagRoundTripsAndIsValidated) {
  // The beam-cap flag follows the work counters and reads back; a flag
  // other than 0 or 1 is a typed error naming its line.
  for (const bool capped : {false, true}) {
    MinerCheckpoint sample = MakeSampleCheckpoint();
    sample.hit_candidate_cap = capped;
    std::stringstream ss;
    ASSERT_TRUE(WriteMinerCheckpoint(sample, ss).ok());
    EXPECT_NE(ss.str().find(capped ? "\nbeam_capped,1\nscores,"
                                   : "\nbeam_capped,0\nscores,"),
              std::string::npos);
    MinerCheckpoint loaded;
    ASSERT_TRUE(ReadMinerCheckpoint(ss, &loaded).ok());
    EXPECT_EQ(loaded.hit_candidate_cap, capped);
  }

  MinerCheckpoint sample = MakeSampleCheckpoint();
  sample.hit_candidate_cap = true;
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(sample, ss).ok());
  std::string bad = ss.str();
  bad.replace(bad.find("beam_capped,1"), 13, "beam_capped,2");
  MinerCheckpoint loaded;
  std::istringstream bad_in(bad);
  const Status sb = ReadMinerCheckpoint(bad_in, &loaded);
  EXPECT_EQ(sb.code(), StatusCode::kDataLoss);
  EXPECT_NE(sb.message().find("line 7"), std::string::npos) << sb.ToString();
}

// Corruption corpus over the checkpoint format: every derived
// corruption must come back as a typed Status — kDataLoss with a line
// diagnostic, never a crash, a bad_alloc, or a half-loaded checkpoint.
TEST(CheckpointCorpusTest, TruncationAtEveryByteIsTypedDataLoss) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  const std::string good = ss.str();
  ASSERT_FALSE(good.empty());
  // Up to size()-1: cutting only the trailing newline leaves a file
  // std::getline still reads completely, which parses fine.
  for (size_t cut = 0; cut + 1 < good.size(); ++cut) {
    MinerCheckpoint cp;
    cp.iteration = 99;  // canary: a failed read must not touch *cp
    std::istringstream in(good.substr(0, cut));
    EXPECT_EQ(ReadMinerCheckpoint(in, &cp).code(), StatusCode::kDataLoss)
        << "cut at byte " << cut;
    EXPECT_EQ(cp.iteration, 99) << "cut at byte " << cut;
  }
}

TEST(CheckpointCorpusTest, GarbageLinesAreTypedWithLineDiagnostic) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  const std::string good = ss.str();
  // Count lines, then clobber each in turn with junk.
  size_t lines = 0;
  for (char c : good) lines += c == '\n' ? 1 : 0;
  ASSERT_GT(lines, 5u);
  for (size_t target = 0; target < lines; ++target) {
    std::string text;
    std::istringstream split(good);
    std::string line;
    for (size_t i = 0; std::getline(split, line); ++i) {
      text += i == target ? "\x01garbage\xff,,," : line;
      text += "\n";
    }
    MinerCheckpoint cp;
    std::istringstream in(text);
    const Status s = ReadMinerCheckpoint(in, &cp);
    ASSERT_EQ(s.code(), StatusCode::kDataLoss) << "line " << target;
    if (target > 0) {
      // Non-header corruption names the offending line.
      EXPECT_NE(s.ToString().find("checkpoint line"), std::string::npos)
          << s.ToString();
    }
  }
}

TEST(CheckpointCorpusTest, NaNHexfloatsAreRejected) {
  // strtod accepts "nan"/"nan(0x..)", but no real run writes one: a NaN
  // omega or score smuggled in by corruption would poison every ω
  // comparison after resume.
  for (const char* nan_spelling : {"nan", "NAN", "nan(0x7ff8)"}) {
    {
      std::string text = CorruptedCheckpoint("omega,", std::string("omega,") +
                                                           nan_spelling + "\n#");
      MinerCheckpoint cp;
      std::istringstream in(text);
      EXPECT_EQ(ReadMinerCheckpoint(in, &cp).code(), StatusCode::kDataLoss)
          << nan_spelling;
    }
    {
      // First score row's nm field.
      std::stringstream ss;
      ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
      std::string text = ss.str();
      const size_t row = text.find("3;4;5");
      ASSERT_NE(row, std::string::npos);
      const size_t line_start = text.rfind('\n', row) + 1;
      text.replace(line_start, row - line_start, std::string(nan_spelling) + ",");
      MinerCheckpoint cp;
      std::istringstream in(text);
      EXPECT_EQ(ReadMinerCheckpoint(in, &cp).code(), StatusCode::kDataLoss)
          << nan_spelling;
    }
  }
}

// A score block that lists a pattern twice would offer it to the
// resumed top-k twice; the reader names the first repeated row.  Rows
// need not be sorted (the sample's are not).
TEST(CheckpointCorpusTest, RepeatedScoreRowsAreTypedWithLineDiagnostic) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  const std::string good = ss.str();
  // Double the score block: "scores,4" + rows -> "scores,8" + rows x 2.
  const size_t header = good.find("scores,4\n");
  ASSERT_NE(header, std::string::npos);
  const size_t rows_begin = header + std::string("scores,4\n").size();
  const size_t rows_end = good.find("prev_high,");
  ASSERT_NE(rows_end, std::string::npos);
  const std::string rows = good.substr(rows_begin, rows_end - rows_begin);
  std::string text = good;
  text.replace(header, rows_end - header, "scores,8\n" + rows + rows);
  // The first repeat is the line after the original block.
  size_t repeat_line = 1;
  for (size_t i = 0; i < rows_end; ++i) repeat_line += good[i] == '\n';
  MinerCheckpoint cp;
  cp.iteration = 99;  // canary: a failed read must not touch *cp
  std::istringstream in(text);
  const Status s = ReadMinerCheckpoint(in, &cp);
  EXPECT_EQ(s.code(), StatusCode::kDataLoss);
  EXPECT_NE(s.ToString().find("checkpoint line " +
                              std::to_string(repeat_line) + ":"),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(cp.iteration, 99);
}

// Every frontier row must also be a score row, because the miner's
// frontier lists are memo ids.  A row that is not is refused, naming its
// block and line, and the output is left untouched.
TEST(CheckpointCorpusTest, FrontierRowsThatAreNotScoreRowsAreTyped) {
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(MakeSampleCheckpoint(), ss).ok());
  const std::string good = ss.str();
  for (const std::string block : {"prev_high", "prev_queue"}) {
    // The block's first row becomes 8;8, which no score row holds.
    const size_t header = good.find(block + ",");
    ASSERT_NE(header, std::string::npos);
    const size_t row = good.find('\n', header) + 1;
    std::string text = good;
    text.replace(row, good.find('\n', row) - row, "8;8");
    size_t row_line = 1;
    for (size_t i = 0; i < row; ++i) row_line += good[i] == '\n';
    MinerCheckpoint cp;
    cp.iteration = 99;  // canary: a failed read must not touch *cp
    std::istringstream in(text);
    const Status s = ReadMinerCheckpoint(in, &cp);
    EXPECT_EQ(s.code(), StatusCode::kDataLoss) << block;
    EXPECT_NE(s.ToString().find("checkpoint line " +
                                std::to_string(row_line) + ": " + block),
              std::string::npos)
        << s.ToString();
    EXPECT_EQ(cp.iteration, 99);
  }
}

TEST(CheckpointCorpusTest, BinaryGarbageFilesAreTypedErrors) {
  const std::string garbage1("\x00\xff\x7f\x01 not a checkpoint", 22);
  for (const std::string& garbage :
       {garbage1, std::string(4096, '\xee'), std::string("trajpattern")}) {
    MinerCheckpoint cp;
    std::istringstream in(garbage);
    EXPECT_EQ(ReadMinerCheckpoint(in, &cp).code(), StatusCode::kDataLoss);
  }
}

TEST(CheckpointIoTest, FileWrapperRoundTrips) {
  const std::string path = ::testing::TempDir() + "/tp_checkpoint_test.ckpt";
  const MinerCheckpoint cp = MakeSampleCheckpoint();
  ASSERT_TRUE(WriteMinerCheckpointFile(cp, path).ok());
  MinerCheckpoint loaded;
  ASSERT_TRUE(ReadMinerCheckpointFile(path, &loaded).ok());
  EXPECT_EQ(loaded.scores.size(), cp.scores.size());
  EXPECT_EQ(ReadMinerCheckpointFile(path + ".missing", &loaded).code(),
            StatusCode::kNotFound);
  std::remove(path.c_str());
}

// ------------------------------------------------------- kill-and-resume

TrajectoryDataset MakeMiningData() {
  PlantedPatternOptions opt;
  opt.pattern = {Point2(0.15, 0.15), Point2(0.45, 0.45), Point2(0.75, 0.75)};
  opt.num_with_pattern = 12;
  opt.num_background = 6;
  opt.num_snapshots = 12;
  opt.seed = 7;
  return GeneratePlantedPatterns(opt);
}

void ExpectBitIdentical(const MiningResult& a, const MiningResult& b) {
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].pattern, b.patterns[i].pattern) << "rank " << i;
    EXPECT_EQ(std::memcmp(&a.patterns[i].nm, &b.patterns[i].nm,
                          sizeof(double)),
              0)
        << "rank " << i;
  }
}

// A deeper sweep workload: a 5-cell planted chain under min_length=2
// needs 4 grow iterations, so the sweeps below have real mid-run
// boundaries to kill at (MakeMiningData converges after one).
TrajectoryDataset MakeDeepMiningData() {
  PlantedPatternOptions opt;
  opt.pattern = {Point2(0.15, 0.15), Point2(0.35, 0.35), Point2(0.55, 0.55),
                 Point2(0.75, 0.75), Point2(0.95, 0.95)};
  opt.num_with_pattern = 30;
  opt.num_background = 0;
  opt.num_snapshots = 10;
  opt.sigma = 0.005;
  opt.seed = 7;
  return GeneratePlantedPatterns(opt);
}

MinerOptions MakeDeepOptions(int num_threads) {
  MinerOptions opt;
  opt.k = 10;
  opt.min_length = 2;
  opt.max_pattern_length = 5;
  opt.num_threads = num_threads;
  return opt;
}

void ExpectSameWork(const MiningResult& a, const MiningResult& b) {
  EXPECT_EQ(a.stats.candidates_evaluated, b.stats.candidates_evaluated);
  EXPECT_EQ(a.stats.candidates_pruned, b.stats.candidates_pruned);
  EXPECT_EQ(a.stats.hit_candidate_cap, b.stats.hit_candidate_cap);
}

std::string Serialized(const MinerCheckpoint& cp) {
  std::ostringstream os;
  EXPECT_TRUE(WriteMinerCheckpoint(cp, os).ok());
  return os.str();
}

// `cp` serialized, with the rows of each block in a random order, and
// read back: neither the reader nor a resume may depend on row order.
MinerCheckpoint ShuffledRows(const MinerCheckpoint& cp, uint64_t seed) {
  Rng rng(seed);
  std::istringstream in(Serialized(cp));
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    text += line + "\n";
    const size_t comma = line.find(',');
    const std::string key = line.substr(0, comma);
    if (key != "scores" && key != "prev_high" && key != "prev_queue") {
      continue;
    }
    std::vector<std::string> rows(std::stoul(line.substr(comma + 1)));
    for (std::string& row : rows) std::getline(in, row);
    for (size_t i = rows.size(); i > 1; --i) {
      std::swap(rows[i - 1], rows[static_cast<size_t>(rng.UniformInt(
                                 0, static_cast<int>(i) - 1))]);
    }
    for (const std::string& row : rows) text += row + "\n";
  }
  std::istringstream shuffled(text);
  MinerCheckpoint back;
  EXPECT_TRUE(ReadMinerCheckpoint(shuffled, &back).ok());
  return back;
}

// Kills a mine of `data` at every boundary and resumes it; returns how
// many checkpoints the resumed runs wrote and matched to the
// uninterrupted run's.
size_t KillAndResumeAtEveryBoundary(const TrajectoryDataset& data,
                                    const MinerOptions& opt) {
  const MiningSpace space(Grid::UnitSquare(8), 0.125);

  // The uninterrupted run, with its checkpoint at every boundary b
  // serialized as full_checkpoints[b - 1].
  std::vector<std::string> full_checkpoints;
  MinerOptions recorded = opt;
  recorded.checkpoint_sink = [&full_checkpoints](const MinerCheckpoint& cp) {
    full_checkpoints.push_back(Serialized(cp));
    return true;
  };
  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, recorded);
  EXPECT_FALSE(full.patterns.empty());
  EXPECT_FALSE(full.stats.aborted);
  EXPECT_EQ(full_checkpoints.size(),
            static_cast<size_t>(full.stats.iterations));
  size_t compared = 0;

  // Kill at every iteration boundary the full run passed through, resume
  // from the serialized checkpoint, and demand bit-identity each time.
  for (int stop_after = 1; stop_after <= full.stats.iterations;
       ++stop_after) {
    MinerCheckpoint captured;
    MinerOptions interrupted = opt;
    interrupted.checkpoint_sink = [&captured,
                                   stop_after](const MinerCheckpoint& cp) {
      captured = cp;
      return cp.iteration < stop_after;
    };
    NmEngine engine(data, space);
    const MiningResult partial = MineTrajPatterns(engine, interrupted);
    if (!partial.stats.aborted) {
      // The run converged before the kill point; nothing to resume.
      ExpectBitIdentical(partial, full);
      continue;
    }

    // Serialize through the file format, as a real crash-recovery would.
    std::stringstream ss;
    EXPECT_TRUE(WriteMinerCheckpoint(captured, ss).ok());
    MinerCheckpoint loaded;
    EXPECT_TRUE(ReadMinerCheckpoint(ss, &loaded).ok());

    // The resume restores the original memo ids, so every checkpoint it
    // writes is the uninterrupted run's at the same boundary, byte for
    // byte.
    std::vector<std::string> resumed_checkpoints;
    MinerOptions resumed_opt = opt;
    resumed_opt.checkpoint_sink =
        [&resumed_checkpoints](const MinerCheckpoint& cp) {
          resumed_checkpoints.push_back(Serialized(cp));
          return true;
        };
    NmEngine resume_engine(data, space);
    const MiningResult resumed =
        MineTrajPatterns(resume_engine, resumed_opt, &loaded);
    EXPECT_FALSE(resumed.stats.aborted);
    ExpectBitIdentical(resumed, full);
    ExpectSameWork(resumed, full);
    EXPECT_EQ(stop_after + resumed_checkpoints.size(),
              full_checkpoints.size());
    for (size_t j = 0; j < resumed_checkpoints.size() &&
                       stop_after + j < full_checkpoints.size();
         ++j, ++compared) {
      EXPECT_EQ(resumed_checkpoints[j], full_checkpoints[stop_after + j])
          << "kill at " << stop_after << ", boundary " << stop_after + j + 1;
    }

    // Rows in another order change the resumed memo's ids, but not the
    // answer or the work.
    const MinerCheckpoint shuffled = ShuffledRows(loaded, stop_after);
    NmEngine shuffled_engine(data, space);
    const MiningResult from_shuffled =
        MineTrajPatterns(shuffled_engine, opt, &shuffled);
    EXPECT_FALSE(from_shuffled.stats.aborted);
    ExpectBitIdentical(from_shuffled, full);
    ExpectSameWork(from_shuffled, full);
  }
  return compared;
}

// Over a run that converges at its first boundary and a deeper one, so
// that resumed runs have later boundaries to write.
void RunKillAndResume(int num_threads) {
  MinerOptions opt;
  opt.k = 10;
  opt.max_pattern_length = 4;
  opt.num_threads = num_threads;
  KillAndResumeAtEveryBoundary(MakeMiningData(), opt);
  EXPECT_GT(KillAndResumeAtEveryBoundary(MakeDeepMiningData(),
                                         MakeDeepOptions(num_threads)),
            0u);
}

TEST(CheckpointResumeTest, BitIdenticalSingleThread) { RunKillAndResume(1); }

TEST(CheckpointResumeTest, BitIdenticalEightThreads) { RunKillAndResume(8); }

// Beam mode: a cap of 20 truncates the deep workload's staged rounds, so
// every resumed round must rank and keep the same candidates, in the
// same order, as the uninterrupted run.
TEST(CheckpointResumeTest, BeamBitIdenticalAcrossResume) {
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space(Grid::UnitSquare(8), 0.125);
  for (const int num_threads : {1, 8}) {
    SCOPED_TRACE(num_threads);
    MinerOptions opt = MakeDeepOptions(num_threads);
    opt.max_candidates_per_iteration = 20;
    NmEngine engine(data, space);
    EXPECT_TRUE(MineTrajPatterns(engine, opt).stats.hit_candidate_cap);
    // Every resumed run reports the cap too (`ExpectSameWork`), also
    // one resumed past the round that first capped.
    EXPECT_GT(KillAndResumeAtEveryBoundary(data, opt), 0u);
  }
}

// Cancellation-driven variant of the kill sweep: instead of a sink veto,
// the run's CancellationToken is tripped at every iteration boundary in
// turn.  The aborted run must report the typed reason, and the last
// sink-delivered checkpoint must resume — through the serialized file
// format — to the uninterrupted answer, bit-identically.
void RunCancellationKillSweep(int num_threads) {
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space(Grid::UnitSquare(8), 0.125);
  const MinerOptions opt = MakeDeepOptions(num_threads);

  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, opt);
  ASSERT_FALSE(full.patterns.empty());
  ASSERT_FALSE(full.stats.aborted);

  for (int stop_after = 1; stop_after < full.stats.iterations; ++stop_after) {
    MinerCheckpoint captured;
    MinerOptions cancelled = opt;
    // Copying options shares the cancellation flag (the caller's
    // handle); each interrupted run gets a fresh context so the trip
    // cannot leak into the resume run below.
    cancelled.run = RunContext();
    const CancellationToken token = cancelled.run.token;
    cancelled.checkpoint_sink = [&captured, token,
                                 stop_after](const MinerCheckpoint& cp) {
      captured = cp;
      if (cp.iteration == stop_after) token.Cancel();
      return true;
    };
    NmEngine engine(data, space);
    const MiningResult partial = MineTrajPatterns(engine, cancelled);
    ASSERT_TRUE(partial.stats.aborted) << "stop_after " << stop_after;
    EXPECT_EQ(partial.stats.stop_reason, StopReason::kCancelled);

    std::stringstream ss;
    ASSERT_TRUE(WriteMinerCheckpoint(captured, ss).ok());
    MinerCheckpoint loaded;
    ASSERT_TRUE(ReadMinerCheckpoint(ss, &loaded).ok());

    NmEngine resume_engine(data, space);
    const MiningResult resumed = MineTrajPatterns(resume_engine, opt, &loaded);
    ASSERT_FALSE(resumed.stats.aborted);
    ExpectBitIdentical(resumed, full);
  }
}

TEST(CancellationKillSweepTest, BitIdenticalSingleThread) {
  RunCancellationKillSweep(1);
}

TEST(CancellationKillSweepTest, BitIdenticalEightThreads) {
  RunCancellationKillSweep(8);
}

// Supervisor-driven variant: the Kth checkpoint *write* throws (a crash
// mid-persist, the classic torn-recovery scenario), for every K the
// uninterrupted run passes through.  The supervisor must auto-resume
// from the last durable checkpoint and still produce the uninterrupted
// answer bit-identically.
void RunSupervisorCrashSweep(int num_threads) {
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space(Grid::UnitSquare(8), 0.125);
  const MinerOptions opt = MakeDeepOptions(num_threads);

  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, opt);
  ASSERT_FALSE(full.patterns.empty());
  ASSERT_FALSE(full.stats.aborted);

  const std::string path = ::testing::TempDir() + "/tp_crash_sweep_" +
                           std::to_string(num_threads) + ".ckpt";
  // The full run delivers one checkpoint per iteration plus nothing
  // after convergence, so iterations bounds the write count.
  for (int crash_at = 1; crash_at <= full.stats.iterations; ++crash_at) {
    std::remove(path.c_str());
    NmEngine engine(data, space);
    SupervisorOptions sup;
    sup.checkpoint_path = path;
    sup.miner = opt;
    sup.sleep_fn = [](double) {};
    int writes = 0;
    bool crashed = false;
    sup.write_fn = [&writes, &crashed, crash_at](
                       const MinerCheckpoint& cp, const std::string& p) {
      if (++writes == crash_at && !crashed) {
        crashed = true;
        throw std::runtime_error("injected crash during checkpoint write");
      }
      return WriteMinerCheckpointFile(cp, p);
    };
    MiningSupervisor supervisor(&engine, sup);
    const SupervisorReport report = supervisor.Run();
    ASSERT_TRUE(report.status.ok())
        << "crash_at " << crash_at << ": " << report.status.ToString();
    ASSERT_TRUE(crashed);
    EXPECT_EQ(report.restarts, 1) << "crash_at " << crash_at;
    ASSERT_FALSE(report.result.stats.aborted);
    ExpectBitIdentical(report.result, full);
  }
  std::remove(path.c_str());
}

TEST(SupervisorCrashSweepTest, BitIdenticalSingleThread) {
  RunSupervisorCrashSweep(1);
}

TEST(SupervisorCrashSweepTest, BitIdenticalEightThreads) {
  RunSupervisorCrashSweep(8);
}

TEST(CheckpointResumeTest, SinkAbortSetsStats) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space(Grid::UnitSquare(8), 0.125);
  MinerOptions opt;
  opt.k = 5;
  opt.max_pattern_length = 4;
  int calls = 0;
  opt.checkpoint_sink = [&calls](const MinerCheckpoint&) {
    ++calls;
    return false;  // stop immediately
  };
  NmEngine engine(data, space);
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_EQ(calls, 1);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.iterations, 1);
}

// ------------------------------------------------------------- end to end

TEST(FaultPipelineTest, FaultedAndRepairedStreamRecoversTopPattern) {
  PlantedPatternOptions popt;
  popt.pattern = {Point2(0.15, 0.15), Point2(0.45, 0.45), Point2(0.75, 0.75)};
  popt.num_with_pattern = 15;
  popt.num_background = 0;
  popt.num_snapshots = 15;
  popt.seed = 3;
  const TrajectoryDataset original = GeneratePlantedPatterns(popt);

  // Dead-reckoned (post-drop) and repaired snapshots must carry honestly
  // inflated uncertainty, or a repair that lands in the wrong cell charges
  // the probability floor to every pattern through it and reshuffles the
  // top-k.  Same growth rate on the synchronizer and the validator.
  constexpr double kSigmaGrowth = 0.3;
  MobileObjectServer::Options server_options;
  server_options.sync.num_snapshots = popt.num_snapshots;
  server_options.sync.base_sigma = popt.sigma;
  server_options.sync.sigma_growth = kSigmaGrowth;

  const ReportStream clean_stream = DatasetToReportStream(original);
  const TrajectoryDataset clean =
      IngestAndSynchronize(clean_stream, server_options);
  ASSERT_EQ(clean.size(), original.size());

  FaultInjectorOptions fopt;
  fopt.drop_rate = 0.05;
  fopt.corrupt_rate = 0.01;
  fopt.corrupt_offset = 25.0;
  fopt.seed = 11;
  ReportStream faulted_stream = clean_stream;
  FaultStats fstats;
  faulted_stream.events =
      FaultInjector(fopt).Inject(clean_stream.events, &fstats);
  EXPECT_GT(fstats.dropped, 0u);

  IngestStats ingest;
  const TrajectoryDataset faulted =
      IngestAndSynchronize(faulted_stream, server_options, &ingest);

  ValidationPolicy policy;
  policy.max_jump = 5.0;
  policy.sigma_growth = kSigmaGrowth;
  const TrajectoryDataset repaired =
      TrajectoryValidator(policy).Validate(faulted);
  ASSERT_FALSE(repaired.empty());

  // delta = half the grid pitch, so off-by-one-cell pattern variants fall
  // outside every carrier's indifference region and cannot outrank a
  // mildly damaged member of the planted family.
  const MiningSpace space(Grid::UnitSquare(10), 0.05);
  MinerOptions mopt;
  mopt.k = 5;
  mopt.min_length = 2;
  mopt.max_pattern_length = 3;
  NmEngine clean_engine(clean, space);
  const MiningResult clean_result = MineTrajPatterns(clean_engine, mopt);
  NmEngine repaired_engine(repaired, space);
  const MiningResult repaired_result =
      MineTrajPatterns(repaired_engine, mopt);
  ASSERT_FALSE(clean_result.patterns.empty());
  ASSERT_FALSE(repaired_result.patterns.empty());
  // The faulted-but-repaired stream must surface the same best pattern as
  // the clean stream: the planted sequence's grid rendering.
  EXPECT_EQ(repaired_result.patterns[0].pattern,
            clean_result.patterns[0].pattern);
}

}  // namespace
}  // namespace trajpattern
