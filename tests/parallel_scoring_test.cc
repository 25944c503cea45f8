// Coverage for the parallel batch-scoring layer: the thread pool /
// ParallelFor substrate, NmTotalBatch / MatchTotalBatch equivalence with
// the serial entry points (bit-identical, including patterns longer than
// some trajectories and wildcard patterns), the warm-up contract, and
// end-to-end miner determinism across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/match_apriori.h"
#include "baseline/pb_miner.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/planted_generator.h"
#include "datagen/uniform_generator.h"
#include "obs/metrics.h"
#include "parallel/thread_pool.h"
#include "prob/rng.h"

namespace trajpattern {
namespace {

// ---------------------------------------------------------------------
// ThreadPool / ParallelFor substrate.

TEST(ThreadPoolTest, ResolveThreadCountSemantics) {
  EXPECT_GE(ResolveThreadCount(0), 1);  // 0 = hardware concurrency
  EXPECT_EQ(ResolveThreadCount(1), 1);
  EXPECT_EQ(ResolveThreadCount(7), 7);
}

TEST(ThreadPoolTest, RunCallsEveryLaneOnceWithLaneZeroOnTheCaller) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int lanes : {1, 2, 3, 4}) {
    ThreadPool pool(lanes);
    ASSERT_EQ(pool.size(), lanes);
    for (int round = 0; round < 3; ++round) {
      // Each lane writes only its own entries.
      std::vector<int> calls(static_cast<size_t>(lanes), 0);
      std::vector<std::thread::id> on(static_cast<size_t>(lanes));
      pool.Run([&](int lane) {
        ASSERT_GE(lane, 0);
        ASSERT_LT(lane, lanes);
        ++calls[static_cast<size_t>(lane)];
        on[static_cast<size_t>(lane)] = std::this_thread::get_id();
      });
      for (int lane = 0; lane < lanes; ++lane) {
        EXPECT_EQ(calls[static_cast<size_t>(lane)], 1)
            << lanes << " lanes, lane " << lane;
        // Lane 0 is the caller (a 1-lane pool runs inline); every other
        // lane is a worker thread of its own.
        EXPECT_EQ(on[static_cast<size_t>(lane)] == caller, lane == 0)
            << lanes << " lanes, lane " << lane;
        for (int other = 0; other < lane; ++other) {
          EXPECT_NE(on[static_cast<size_t>(other)],
                    on[static_cast<size_t>(lane)]);
        }
      }
    }
  }
}

TEST(ThreadPoolTest, RunsAllWorkAndIsReusable) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int round = 0; round < 3; ++round) {
    ParallelFor(&pool, 100, [&count](size_t, int) { count.fetch_add(1); });
    pool.Run([&count](int) { count.fetch_add(1); });
    EXPECT_EQ(count.load(), 104 * (round + 1));
  }
}

TEST(ThreadPoolTest, ParallelForCoversEachItemExactlyOnce) {
  ThreadPool pool(4);
  // Fewer items than lanes too: the idle lanes claim nothing.
  for (const size_t n : {size_t{2}, size_t{3}, size_t{1000}}) {
    // Each item is written by exactly one lane, so plain ints suffice; a
    // double-visit would show up as a count of 2.
    std::vector<int> visits(n, 0);
    ParallelFor(&pool, n, [&](size_t item, int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, 4);
      ++visits[item];
    });
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i], 1) << "item " << i << " of " << n;
    }
  }
}

TEST(ThreadPoolTest, ParallelForInlineFallback) {
  // A null pool and a 1-lane pool both run inline on the caller as
  // worker 0.
  const std::thread::id caller = std::this_thread::get_id();
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    std::vector<int> visits(10, 0);
    ParallelFor(pool, visits.size(), [&](size_t item, int worker) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++visits[item];
    });
    for (int v : visits) EXPECT_EQ(v, 1);
    ParallelFor(pool, 0, [&](size_t, int) { FAIL() << "n = 0 ran a body"; });
  }
}

// A few hundred fork-joins at 2-4 lanes, some with throwing lanes; run
// under ThreadSanitizer by CI's TSan leg.
TEST(ThreadPoolTest, StressRunAndParallelForWithThrowingLanes) {
  for (const int lanes : {2, 3, 4}) {
    ThreadPool pool(lanes);
    std::vector<int64_t> sums(static_cast<size_t>(lanes), 0);
    for (int round = 0; round < 100; ++round) {
      // Lane `thrower` throws on every third round; -1 is none.
      const int thrower = round % 3 == 0 ? round % lanes : -1;
      std::atomic<int> ran{0};
      const auto lane_fn = [&](int lane) {
        sums[static_cast<size_t>(lane)] += lane;  // per-lane, unsynchronized
        ran.fetch_add(1);
        if (lane == thrower) throw std::runtime_error("lane failed");
      };
      if (thrower >= 0) {
        EXPECT_THROW(pool.Run(lane_fn), std::runtime_error);
      } else {
        pool.Run(lane_fn);
      }
      EXPECT_EQ(ran.load(), lanes);

      std::vector<int> visits(37, 0);
      const auto item_fn = [&](size_t item, int) {
        ++visits[item];
        if (thrower >= 0 && item == 5) throw std::runtime_error("item 5");
      };
      if (thrower >= 0) {
        EXPECT_THROW(ParallelFor(&pool, visits.size(), item_fn),
                     std::runtime_error);
        for (const int v : visits) EXPECT_LE(v, 1);
      } else {
        ParallelFor(&pool, visits.size(), item_fn);
        for (const int v : visits) EXPECT_EQ(v, 1);
      }
    }
    for (int lane = 0; lane < lanes; ++lane) {
      EXPECT_EQ(sums[static_cast<size_t>(lane)], int64_t{100} * lane);
    }
  }
}

// ---------------------------------------------------------------------
// Batch scoring equivalence.

/// Mixed-length dataset (3..12 snapshots) so that long patterns overhang
/// some trajectories, plus enough spatial spread to touch many cells.
TrajectoryDataset MixedLengthData() {
  TrajectoryDataset d;
  Rng rng(41);
  for (int t = 0; t < 12; ++t) {
    Trajectory traj("t" + std::to_string(t));
    const int len = 3 + (t * 7) % 10;  // 3..12
    double x = rng.Uniform(0.1, 0.9);
    double y = rng.Uniform(0.1, 0.9);
    for (int s = 0; s < len; ++s) {
      x = std::clamp(x + rng.Normal(0.0, 0.05), 0.0, 1.0);
      y = std::clamp(y + rng.Normal(0.0, 0.05), 0.0, 1.0);
      traj.Append(Point2(x, y), 0.01);
    }
    d.Add(std::move(traj));
  }
  return d;
}

/// Random patterns over the touched alphabet, lengths 1..6 (longer than
/// the shortest trajectories), every third multi-cell one with an inner
/// wildcard.
std::vector<Pattern> RandomPatterns(const NmEngine& engine, int count) {
  const std::vector<CellId> cells = engine.TouchedCells();
  Rng rng(97);
  std::vector<Pattern> out;
  for (int i = 0; i < count; ++i) {
    const int len = rng.UniformInt(1, 6);
    std::vector<CellId> ids;
    for (int j = 0; j < len; ++j) {
      ids.push_back(cells[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int>(cells.size()) - 1))]);
    }
    if (len >= 3 && i % 3 == 0) ids[1] = kWildcardCell;
    out.emplace_back(std::move(ids));
  }
  return out;
}

void ExpectBitIdentical(double got, double want, const char* what, size_t i) {
  EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
      << what << " diverged at pattern " << i << ": " << got << " vs " << want;
}

TEST(NmTotalBatchTest, BitIdenticalToSerialAcrossThreadCounts) {
  const TrajectoryDataset d = MixedLengthData();
  const MiningSpace space(Grid::UnitSquare(8), 0.1);
  NmEngine serial_engine(d, space);
  const std::vector<Pattern> patterns = RandomPatterns(serial_engine, 40);
  std::vector<double> want;
  for (const auto& p : patterns) want.push_back(serial_engine.NmTotal(p));

  for (int threads : {1, 4}) {
    NmEngine batch_engine(d, space);  // fresh: warm-up must do all the work
    const std::vector<double> got =
        batch_engine.NmTotalBatch(patterns, threads);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectBitIdentical(got[i], want[i], "NmTotalBatch", i);
    }
  }
}

TEST(NmTotalBatchTest, MatchTotalBatchBitIdenticalToSerial) {
  const TrajectoryDataset d = MixedLengthData();
  const MiningSpace space(Grid::UnitSquare(8), 0.1);
  NmEngine serial_engine(d, space);
  const std::vector<Pattern> patterns = RandomPatterns(serial_engine, 40);
  std::vector<double> want;
  for (const auto& p : patterns) want.push_back(serial_engine.MatchTotal(p));

  for (int threads : {1, 4}) {
    NmEngine batch_engine(d, space);
    const std::vector<double> got =
        batch_engine.MatchTotalBatch(patterns, threads);
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectBitIdentical(got[i], want[i], "MatchTotalBatch", i);
    }
  }
}

TEST(NmTotalBatchTest, PatternLongerThanEveryTrajectoryScoresLogFloorSum) {
  const TrajectoryDataset d = MixedLengthData();  // max length 12
  const MiningSpace space(Grid::UnitSquare(8), 0.1);
  NmEngine engine(d, space);
  const std::vector<CellId> cells = engine.TouchedCells();
  const Pattern too_long(std::vector<CellId>(20, cells[0]));
  const std::vector<double> got = engine.NmTotalBatch({too_long}, 4);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_DOUBLE_EQ(got[0], static_cast<double>(d.size()) * LogFloor());
}

TEST(NmTotalBatchTest, WarmupStatsAndIdempotence) {
  const TrajectoryDataset d = MixedLengthData();
  const MiningSpace space(Grid::UnitSquare(8), 0.1);
  NmEngine engine(d, space);
  const std::vector<Pattern> patterns = RandomPatterns(engine, 20);

  BatchScoreStats first;
  engine.NmTotalBatch(patterns, 4, &first);
  EXPECT_GT(first.cells_warmed, 0u);
  EXPECT_EQ(first.cells_warmed, engine.num_cached_cells());
  EXPECT_EQ(first.threads_used, 4);
  EXPECT_GE(first.warmup_seconds, 0.0);
  EXPECT_GE(first.scoring_seconds, 0.0);

  BatchScoreStats second;
  engine.NmTotalBatch(patterns, 4, &second);
  EXPECT_EQ(second.cells_warmed, 0u);  // everything already cached

  // WarmCells alone is likewise idempotent and dedupes its input.
  std::vector<CellId> cells = engine.TouchedCells();
  cells.insert(cells.end(), cells.begin(), cells.end());
  const size_t added = engine.WarmCells(cells, 2);
  EXPECT_EQ(engine.num_cached_cells(),
            first.cells_warmed + added);
  EXPECT_EQ(engine.WarmCells(cells, 2), 0u);
}

#if TRAJPATTERN_OBS_ENABLED
// Every call runs on exactly the thread count it asks for, also after a
// call that asked for more.  With every vector warm, a batch's one `Run`
// is the walk's: one lane run per thread, the caller's included.
TEST(NmTotalBatchTest, RunsOnExactlyTheThreadsItAsksFor) {
  const TrajectoryDataset d = MixedLengthData();
  const MiningSpace space(Grid::UnitSquare(8), 0.1);
  NmEngine engine(d, space);
  engine.WarmCells(engine.TouchedCells());
  const std::vector<Pattern> patterns = RandomPatterns(engine, 40);
  const auto tasks = [] {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::Global().Snapshot();
    const auto it = snap.counters.find("pool.tasks_executed");
    return it == snap.counters.end() ? int64_t{0} : it->second;
  };
  for (const int threads : {2, 4, 2, 3, 2}) {
    const int64_t before = tasks();
    BatchScoreStats stats;
    engine.NmTotalBatch(patterns, threads, &stats);
    EXPECT_EQ(stats.cells_warmed, 0u);
    EXPECT_EQ(stats.threads_used, threads);
    EXPECT_EQ(tasks() - before, threads) << threads << " threads asked";
  }
}
#endif

TEST(NmTotalBatchTest, EmptyBatchIsANoOp) {
  const TrajectoryDataset d = MixedLengthData();
  const MiningSpace space(Grid::UnitSquare(8), 0.1);
  NmEngine engine(d, space);
  BatchScoreStats stats;
  EXPECT_TRUE(engine.NmTotalBatch({}, 4, &stats).empty());
  EXPECT_EQ(stats.cells_warmed, 0u);
}

// ---------------------------------------------------------------------
// End-to-end miner determinism across thread counts.

TrajectoryDataset PlantedData() {
  PlantedPatternOptions popt;
  popt.pattern = {Point2(0.125, 0.125), Point2(0.375, 0.375),
                  Point2(0.625, 0.625)};
  popt.num_with_pattern = 18;
  popt.num_background = 6;
  popt.num_snapshots = 12;
  popt.embed_noise = 0.002;
  popt.sigma = 0.01;
  popt.seed = 9;
  return GeneratePlantedPatterns(popt);
}

void ExpectIdenticalMiningResults(const MiningResult& a,
                                  const MiningResult& b) {
  ASSERT_EQ(a.patterns.size(), b.patterns.size());
  for (size_t i = 0; i < a.patterns.size(); ++i) {
    EXPECT_EQ(a.patterns[i].pattern, b.patterns[i].pattern)
        << "rank " << i << ": " << a.patterns[i].pattern.ToString() << " vs "
        << b.patterns[i].pattern.ToString();
    ExpectBitIdentical(a.patterns[i].nm, b.patterns[i].nm, "miner NM", i);
  }
  EXPECT_EQ(a.stats.candidates_evaluated, b.stats.candidates_evaluated);
  EXPECT_EQ(a.stats.iterations, b.stats.iterations);
}

class MinerThreadDeterminismTest : public ::testing::Test {
 protected:
  MiningResult MineWith(const MinerOptions& base, int threads) {
    const TrajectoryDataset d = PlantedData();
    const MiningSpace space(Grid::UnitSquare(4), 0.08);
    NmEngine engine(d, space);
    MinerOptions opt = base;
    opt.num_threads = threads;
    return MineTrajPatterns(engine, opt);
  }

  void ExpectThreadInvariant(const MinerOptions& base) {
    const MiningResult serial = MineWith(base, 1);
    const MiningResult parallel = MineWith(base, 8);
    EXPECT_EQ(parallel.stats.threads_used, 8);
    ExpectIdenticalMiningResults(serial, parallel);
  }
};

TEST_F(MinerThreadDeterminismTest, PlainMining) {
  MinerOptions opt;
  opt.k = 10;
  opt.max_pattern_length = 4;
  ExpectThreadInvariant(opt);
}

TEST_F(MinerThreadDeterminismTest, MinLengthVariant) {
  MinerOptions opt;
  opt.k = 8;
  opt.min_length = 3;
  opt.max_pattern_length = 4;
  ExpectThreadInvariant(opt);
}

TEST_F(MinerThreadDeterminismTest, WildcardVariant) {
  MinerOptions opt;
  opt.k = 8;
  opt.max_wildcards = 1;
  opt.max_pattern_length = 4;
  ExpectThreadInvariant(opt);
}

TEST_F(MinerThreadDeterminismTest, BeamVariant) {
  MinerOptions opt;
  opt.k = 8;
  opt.max_pattern_length = 4;
  opt.max_candidates_per_iteration = 32;
  ExpectThreadInvariant(opt);
}

TEST_F(MinerThreadDeterminismTest, HardwareConcurrencyAlias) {
  // num_threads = 0 (use the hardware) must mine the same answer too.
  MinerOptions opt;
  opt.k = 6;
  opt.max_pattern_length = 3;
  const MiningResult serial = MineWith(opt, 1);
  const MiningResult automatic = MineWith(opt, 0);
  EXPECT_GE(automatic.stats.threads_used, 1);
  ExpectIdenticalMiningResults(serial, automatic);
}

TEST(BaselineThreadDeterminismTest, PbMinerThreadInvariant) {
  const UniformGeneratorOptions gopt{.num_objects = 6,
                                     .num_snapshots = 10,
                                     .sigma = 0.02,
                                     .seed = 11};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space(Grid::UnitSquare(3), 0.15);
  PbMinerOptions opt;
  opt.k = 6;
  opt.max_length = 3;
  NmEngine e1(d, space);
  opt.num_threads = 1;
  const PbMiningResult serial = MinePbPatterns(e1, opt);
  NmEngine e2(d, space);
  opt.num_threads = 8;
  const PbMiningResult parallel = MinePbPatterns(e2, opt);
  ASSERT_EQ(serial.patterns.size(), parallel.patterns.size());
  for (size_t i = 0; i < serial.patterns.size(); ++i) {
    EXPECT_EQ(serial.patterns[i].pattern, parallel.patterns[i].pattern);
    ExpectBitIdentical(serial.patterns[i].nm, parallel.patterns[i].nm,
                       "PB NM", i);
  }
  EXPECT_EQ(serial.stats.candidates_evaluated, parallel.stats.candidates_evaluated);
}

TEST(BaselineThreadDeterminismTest, MatchAprioriThreadInvariant) {
  const UniformGeneratorOptions gopt{.num_objects = 6,
                                     .num_snapshots = 10,
                                     .sigma = 0.02,
                                     .seed = 13};
  const TrajectoryDataset d = GenerateUniformObjects(gopt);
  const MiningSpace space(Grid::UnitSquare(3), 0.15);
  MatchMinerOptions opt;
  opt.k = 6;
  opt.max_length = 3;
  NmEngine e1(d, space);
  opt.num_threads = 1;
  const MatchMiningResult serial = MineMatchPatterns(e1, opt);
  NmEngine e2(d, space);
  opt.num_threads = 8;
  const MatchMiningResult parallel = MineMatchPatterns(e2, opt);
  ASSERT_EQ(serial.patterns.size(), parallel.patterns.size());
  for (size_t i = 0; i < serial.patterns.size(); ++i) {
    EXPECT_EQ(serial.patterns[i].pattern, parallel.patterns[i].pattern);
    ExpectBitIdentical(serial.patterns[i].nm, parallel.patterns[i].nm,
                       "match", i);
  }
  EXPECT_EQ(serial.stats.candidates_evaluated,
            parallel.stats.candidates_evaluated);
}

TEST(MinerStatsTest, TimingSplitsReported) {
  const TrajectoryDataset d = PlantedData();
  const MiningSpace space(Grid::UnitSquare(4), 0.08);
  NmEngine engine(d, space);
  MinerOptions opt;
  opt.k = 5;
  opt.max_pattern_length = 3;
  opt.num_threads = 2;
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_EQ(result.stats.threads_used, 2);
  EXPECT_GE(result.stats.warmup_seconds, 0.0);
  EXPECT_GE(result.stats.scoring_seconds, 0.0);
  EXPECT_LE(result.stats.warmup_seconds + result.stats.scoring_seconds,
            result.stats.seconds + 1e-6);
  EXPECT_EQ(result.stats.cells_cached, engine.num_cached_cells());
  EXPECT_GT(result.stats.cells_cached, 0u);
}

}  // namespace
}  // namespace trajpattern
