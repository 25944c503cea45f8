// The run-control layer end to end: RunContext stop semantics, thread
// pool exception capture, cancellation/deadline/memory-budget stops
// across all three miners (typed StopReason, exact best-so-far), and
// the crash-safe MiningSupervisor (sink retry with backoff, injected
// faults, auto-resume).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "baseline/match_apriori.h"
#include "baseline/pb_miner.h"
#include "common/run_context.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "datagen/planted_generator.h"
#include "geometry/grid.h"
#include "io/checkpoint.h"
#include "parallel/thread_pool.h"
#include "server/fault_injector.h"
#include "server/mining_supervisor.h"

namespace trajpattern {
namespace {

// ------------------------------------------------------------ RunContext

TEST(RunContextTest, DefaultNeverStops) {
  RunContext run;
  EXPECT_EQ(run.CheckStop(), StopReason::kNone);
  EXPECT_FALSE(run.StopRequested());
}

TEST(RunContextTest, ExpiredDeadlineFires) {
  RunContext run;
  run.SetDeadlineAfterMillis(-1.0);
  EXPECT_EQ(run.CheckStop(), StopReason::kDeadlineExceeded);
  EXPECT_TRUE(run.StopRequested());
}

TEST(RunContextTest, CancellationWinsOverDeadline) {
  RunContext run;
  run.SetDeadlineAfterMillis(-1.0);
  run.token.Cancel();
  EXPECT_EQ(run.CheckStop(), StopReason::kCancelled);
}

TEST(RunContextTest, TokenCopiesShareOneFlag) {
  RunContext run;
  const CancellationToken copy = run.token;  // the caller's handle
  EXPECT_FALSE(run.StopRequested());
  copy.Cancel();
  EXPECT_EQ(run.CheckStop(), StopReason::kCancelled);
}

TEST(RunContextTest, StopReasonNamesAreStable) {
  EXPECT_STREQ(StopReasonName(StopReason::kNone), "none");
  EXPECT_STREQ(StopReasonName(StopReason::kCancelled), "cancelled");
  EXPECT_STREQ(StopReasonName(StopReason::kDeadlineExceeded),
               "deadline_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kMemoryBudgetExceeded),
               "memory_budget_exceeded");
  EXPECT_STREQ(StopReasonName(StopReason::kAllocFailed), "alloc_failed");
  EXPECT_STREQ(StopReasonName(StopReason::kWorkCap), "work_cap");
  EXPECT_STREQ(StopReasonName(StopReason::kSinkVeto), "sink_veto");
}

// ------------------------------------------- thread pool exception capture

TEST(ThreadPoolExceptionTest, RunRethrowsALaneExceptionAndStaysUsable) {
  ThreadPool pool(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.Run([&ran](int lane) {
                 ++ran;
                 if (lane == 2) throw std::runtime_error("lane 2 failed");
               }),
               std::runtime_error);
  // The other lanes still ran: one failure does not wedge the call, and
  // the pool stays usable afterwards.
  EXPECT_EQ(ran.load(), 4);
  pool.Run([&ran](int) { ++ran; });
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolExceptionTest, ExceptionSurfacesOnlyAfterEveryLaneReturned) {
  constexpr int kLanes = 4;
  ThreadPool pool(kLanes);
  // A worker lane and the caller's lane each take a turn at throwing.
  for (const int thrower : {kLanes - 1, 0}) {
    std::atomic<bool> thrown{false};
    std::atomic<int> returned{0};
    EXPECT_THROW(
        pool.Run([&](int lane) {
          if (lane == thrower) {
            thrown.store(true);
            throw std::runtime_error("lane failed");
          }
          // The other lanes are still busy after the throw.
          while (!thrown.load()) std::this_thread::yield();
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
          returned.fetch_add(1);
        }),
        std::runtime_error);
    EXPECT_EQ(returned.load(), kLanes - 1) << "thrower lane " << thrower;
  }
}

TEST(ThreadPoolExceptionTest, FaultScheduleDrivenWorkerExceptions) {
  // Draw the deterministic fault stream serially (FaultSchedule is not a
  // concurrent object), then let each round's lanes consult the
  // pre-drawn mask.
  FaultScheduleOptions fo;
  fo.fail_first = 2;
  fo.fail_rate = 0.25;
  fo.seed = 9;
  FaultSchedule schedule(fo);
  constexpr int kLanes = 4;
  constexpr int kRounds = 16;
  std::vector<char> fail_mask(kLanes * kRounds);
  for (auto& f : fail_mask) f = schedule.ShouldFail() ? 1 : 0;
  ASSERT_GE(schedule.failures(), 2);  // the unconditional burst

  ThreadPool pool(kLanes);
  int failed_rounds = 0;
  for (int round = 0; round < kRounds; ++round) {
    const char* mask = fail_mask.data() + round * kLanes;
    const bool fails = std::count(mask, mask + kLanes, 1) > 0;
    failed_rounds += fails;
    const auto lane_fn = [mask](int lane) {
      if (mask[lane]) throw std::runtime_error("injected worker fault");
    };
    if (fails) {
      EXPECT_THROW(pool.Run(lane_fn), std::runtime_error) << round;
    } else {
      EXPECT_NO_THROW(pool.Run(lane_fn)) << round;
    }
    // A consumed exception is not rethrown by the next round.
    EXPECT_NO_THROW(pool.Run([](int) {})) << round;
  }
  EXPECT_GE(failed_rounds, 1);
  EXPECT_LT(failed_rounds, kRounds);
}

TEST(ParallelForTest, RethrowsOnCallingThread) {
  ThreadPool pool(4);
  constexpr size_t kN = 2000;
  std::atomic<size_t> executed{0};
  EXPECT_THROW(ParallelFor(&pool, kN,
                           [&executed](size_t i, int) {
                             if (i == 0) throw std::runtime_error("lane died");
                             std::this_thread::sleep_for(
                                 std::chrono::microseconds(200));
                             ++executed;
                           }),
               std::runtime_error);
  // Item 0 is the first claim.  Once it failed no lane claims another
  // item, so the other items (0.13 s of work on the other three lanes)
  // are not all run for a result the caller discards.
  EXPECT_LT(executed.load(), kN - 1);
  // The pool survives for the next round.
  ParallelFor(&pool, 100, [&executed](size_t, int) { ++executed; });
}

TEST(ParallelForTest, PreCancelledRunsNothing) {
  RunContext run;
  run.token.Cancel();
  std::atomic<size_t> executed{0};
  ThreadPool pool(4);
  ParallelFor(&pool, 1000, [&executed](size_t, int) { ++executed; }, &run);
  EXPECT_EQ(executed.load(), 0u);
  // Serial inline path polls identically.
  ParallelFor(nullptr, 1000, [&executed](size_t, int) { ++executed; }, &run);
  EXPECT_EQ(executed.load(), 0u);
}

TEST(ParallelForTest, SerialPathCancelsMidLoop) {
  RunContext run;
  size_t executed = 0;
  ParallelFor(nullptr, 100,
              [&](size_t i, int) {
                ++executed;
                if (i == 4) run.token.Cancel();
              },
              &run);
  // The poll runs before each claim: items 0..4 execute, 5..99 never do.
  EXPECT_EQ(executed, 5u);
}

// -------------------------------------------------- miner run-control stops

TrajectoryDataset MakeMiningData() {
  PlantedPatternOptions opt;
  opt.pattern = {Point2(0.15, 0.15), Point2(0.45, 0.45), Point2(0.75, 0.75)};
  opt.num_with_pattern = 12;
  opt.num_background = 6;
  opt.num_snapshots = 12;
  opt.seed = 7;
  return GeneratePlantedPatterns(opt);
}

MiningSpace MakeSpace() { return MiningSpace(Grid::UnitSquare(8), 0.125); }

MinerOptions MakeOptions(int num_threads = 1) {
  MinerOptions opt;
  opt.k = 10;
  opt.max_pattern_length = 4;
  opt.num_threads = num_threads;
  return opt;
}

// A deeper workload for boundary-sweep tests: a 5-cell planted chain
// under min_length=2 takes 4 grow iterations to converge, so there are
// real mid-run boundaries to cancel at.
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

MinerOptions MakeDeepOptions(int num_threads = 1) {
  MinerOptions opt;
  opt.k = 10;
  opt.min_length = 2;
  opt.max_pattern_length = 5;
  opt.num_threads = num_threads;
  return opt;
}

void ExpectBitIdentical(const std::vector<ScoredPattern>& a,
                        const std::vector<ScoredPattern>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].pattern, b[i].pattern) << "rank " << i;
    EXPECT_EQ(std::memcmp(&a[i].nm, &b[i].nm, sizeof(double)), 0)
        << "rank " << i;
  }
}

TEST(MinerRunControlTest, PreCancelledRunStopsWithTypedReason) {
  const TrajectoryDataset data = MakeMiningData();
  MinerOptions opt = MakeOptions();
  opt.run.token.Cancel();
  NmEngine engine(data, MakeSpace());
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kCancelled);
}

TEST(MinerRunControlTest, ExpiredDeadlineStopsWithTypedReason) {
  const TrajectoryDataset data = MakeMiningData();
  MinerOptions opt = MakeOptions();
  opt.run.SetDeadlineAfterMillis(-1.0);
  NmEngine engine(data, MakeSpace());
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kDeadlineExceeded);
}

TEST(MinerRunControlTest, CancelledBestSoFarIsExactTopKOfCompletedWork) {
  // A run cancelled at iteration boundary B must return exactly what a
  // run capped at B iterations returns — best-so-far means "the exact
  // answer over everything scored so far", never a half-applied batch.
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space = MakeSpace();
  const MinerOptions base = MakeDeepOptions();
  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, base);
  ASSERT_GT(full.stats.iterations, 1);

  for (int stop_after = 1; stop_after < full.stats.iterations; ++stop_after) {
    MinerOptions cancelled = base;
    // Copying options shares the token (that is how callers keep their
    // cancel handle), so each interrupted run needs a fresh context or
    // the trip would poison the reference runs below.
    cancelled.run = RunContext();
    const CancellationToken token = cancelled.run.token;
    cancelled.checkpoint_sink = [token, stop_after](const MinerCheckpoint& cp) {
      if (cp.iteration == stop_after) token.Cancel();
      return true;
    };
    NmEngine engine(data, space);
    const MiningResult partial = MineTrajPatterns(engine, cancelled);
    ASSERT_TRUE(partial.stats.aborted);
    EXPECT_EQ(partial.stats.stop_reason, StopReason::kCancelled);

    MinerOptions capped = base;
    capped.max_iterations = stop_after;
    NmEngine capped_engine(data, space);
    const MiningResult reference = MineTrajPatterns(capped_engine, capped);
    ExpectBitIdentical(partial.patterns, reference.patterns);
  }
}

TEST(MinerRunControlTest, AbortedRunEmitsResumableFinalCheckpoint) {
  // Even when the cancel fires between sink deliveries, the sink ends up
  // holding a boundary checkpoint that resumes to the uninterrupted
  // answer.
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space = MakeSpace();
  const MinerOptions base = MakeDeepOptions();
  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, base);

  MinerOptions cancelled = base;
  cancelled.run = RunContext();  // options copies share the token
  const CancellationToken token = cancelled.run.token;
  MinerCheckpoint captured;
  int deliveries = 0;
  cancelled.checkpoint_sink = [&captured, &deliveries,
                               token](const MinerCheckpoint& cp) {
    captured = cp;
    ++deliveries;
    if (cp.iteration == 1) token.Cancel();
    return true;
  };
  NmEngine engine(data, space);
  const MiningResult partial = MineTrajPatterns(engine, cancelled);
  ASSERT_TRUE(partial.stats.aborted);
  ASSERT_GT(deliveries, 0);

  // Round-trip the captured checkpoint through the file format and
  // resume: bit-identical to the uninterrupted run.
  std::stringstream ss;
  ASSERT_TRUE(WriteMinerCheckpoint(captured, ss).ok());
  MinerCheckpoint loaded;
  ASSERT_TRUE(ReadMinerCheckpoint(ss, &loaded).ok());
  NmEngine resume_engine(data, space);
  const MiningResult resumed = MineTrajPatterns(resume_engine, base, &loaded);
  ASSERT_FALSE(resumed.stats.aborted);
  ExpectBitIdentical(resumed.patterns, full.patterns);
}

TEST(MinerRunControlTest, PreCancelledResumeHandsBackTheCheckpointUnchanged) {
  // A resume whose token is already cancelled stops at its start
  // boundary before any work.  The abort tail then hands the sink the
  // state it resumed from: exactly one checkpoint, byte-identical once
  // serialized, at every non-final boundary of a deep run.
  const auto serialized = [](const MinerCheckpoint& cp) {
    std::ostringstream os;
    EXPECT_TRUE(WriteMinerCheckpoint(cp, os).ok());
    return os.str();
  };
  const TrajectoryDataset data = MakeDeepMiningData();
  const MiningSpace space = MakeSpace();
  for (const int threads : {1, 8}) {
    SCOPED_TRACE(threads);
    MinerOptions record = MakeDeepOptions(threads);
    std::vector<MinerCheckpoint> boundaries;
    record.checkpoint_sink = [&boundaries](const MinerCheckpoint& cp) {
      boundaries.push_back(cp);
      return true;
    };
    NmEngine engine(data, space);
    const MiningResult full = MineTrajPatterns(engine, record);
    ASSERT_FALSE(full.stats.aborted);
    ASSERT_GT(boundaries.size(), 1u);

    // The last boundary is the converged one, which a resume finishes
    // without entering the loop.
    for (size_t b = 0; b + 1 < boundaries.size(); ++b) {
      SCOPED_TRACE(b);
      MinerOptions resumed = MakeDeepOptions(threads);
      resumed.run.token.Cancel();
      std::vector<std::string> delivered;
      resumed.checkpoint_sink = [&](const MinerCheckpoint& cp) {
        delivered.push_back(serialized(cp));
        return true;
      };
      NmEngine resume_engine(data, space);
      const MiningResult stopped =
          MineTrajPatterns(resume_engine, resumed, &boundaries[b]);
      EXPECT_TRUE(stopped.stats.aborted);
      EXPECT_EQ(stopped.stats.stop_reason, StopReason::kCancelled);
      ASSERT_EQ(delivered.size(), 1u);
      EXPECT_EQ(delivered[0], serialized(boundaries[b]));
    }
  }
}

TEST(MinerRunControlTest, MemoryBudgetHoldsAndStaysBitIdentical) {
  // A budget of a handful of factor vectors forces chunked scoring and
  // eviction, but the answer must not move: chunk boundaries and
  // evictions are pure bookkeeping.
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  NmEngine unlimited_engine(data, space);
  const MiningResult unlimited =
      MineTrajPatterns(unlimited_engine, MakeOptions());
  ASSERT_FALSE(unlimited.stats.aborted);

  for (int threads : {1, 8}) {
    NmEngine engine(data, space);
    MinerOptions opt = MakeOptions(threads);
    opt.run.memory_budget_bytes = 8 * engine.column_bytes();
    const MiningResult result = MineTrajPatterns(engine, opt);
    ASSERT_FALSE(result.stats.aborted) << "threads=" << threads;
    ExpectBitIdentical(result.patterns, unlimited.patterns);
    EXPECT_GT(engine.cells_evicted(), 0u) << "threads=" << threads;
    EXPECT_LE(engine.arena_peak_bytes(), opt.run.memory_budget_bytes)
        << "threads=" << threads;
    EXPECT_GT(result.stats.cells_evicted, 0);
  }
}

TEST(MinerRunControlTest, ImpossibleBudgetStopsWithTypedReason) {
  // Less than one column: no shedding or chunk-shrinking can help, so
  // the run gives up with the typed budget stop instead of thrashing.
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  MinerOptions opt = MakeOptions();
  opt.run.memory_budget_bytes = 1;
  const MiningResult result = MineTrajPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kMemoryBudgetExceeded);
}

TEST(MinerRunControlTest, InjectedAllocFailureStopsWithTypedReason) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  FaultScheduleOptions fo;
  fo.fail_rate = 1.0;
  FaultSchedule faults(fo);
  engine.set_alloc_fault_hook(
      [&faults](size_t) { return faults.ShouldFail(); });
  const MiningResult result = MineTrajPatterns(engine, MakeOptions());
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kAllocFailed);
  EXPECT_GT(faults.calls(), 0);

  // Clearing the hook heals the engine: the same instance then mines the
  // full answer (nothing was left staged or torn by the failed warm-up).
  engine.set_alloc_fault_hook(nullptr);
  const MiningResult healed = MineTrajPatterns(engine, MakeOptions());
  EXPECT_FALSE(healed.stats.aborted);
  EXPECT_FALSE(healed.patterns.empty());
}

TEST(EngineRunControlTest, FailedSerialWarmUpThrowsAndPublishesNothing) {
  // The per-pattern entry points, serial batches of one, have no Status
  // channel: a failed allocation surfaces as std::bad_alloc, with no
  // factor vector of it cached.
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  const std::vector<CellId> cells = engine.TouchedCells();
  ASSERT_GE(cells.size(), 2u);
  const Pattern p(
      std::vector<CellId>{cells[0], kWildcardCell, cells[1], cells[0]});
  int growths = 0;
  engine.set_alloc_fault_hook([&growths](size_t) {
    ++growths;
    return true;
  });
  EXPECT_THROW(engine.NmTotal(p), std::bad_alloc);
  EXPECT_GT(growths, 0);
  EXPECT_EQ(engine.num_cached_cells(), 0u);

  // Once the hook is cleared, the same engine scores the same bits as a
  // fresh one.
  engine.set_alloc_fault_hook(nullptr);
  NmEngine fresh(data, MakeSpace());
  const double want = fresh.NmTotal(p);
  const double got = engine.NmTotal(p);
  EXPECT_EQ(std::memcmp(&got, &want, sizeof got), 0) << got << " vs " << want;
}

// ------------------------------------------- baseline miners, same contract

TEST(BaselineStopTest, PbPrefixCapReportsThroughSharedStopFields) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  PbMinerOptions opt;
  opt.k = 10;
  opt.max_length = 4;
  opt.max_expanded_prefixes = 1;
  const PbMiningResult result = MinePbPatterns(engine, opt);
  EXPECT_TRUE(result.stats.hit_prefix_cap);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kWorkCap);
}

TEST(BaselineStopTest, PbCancellationStopsTyped) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  PbMinerOptions opt;
  opt.k = 10;
  opt.max_length = 4;
  opt.run.token.Cancel();
  const PbMiningResult result = MinePbPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kCancelled);
}

TEST(BaselineStopTest, MatchAprioriDeadlineStopsTyped) {
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  MatchMinerOptions opt;
  opt.run.SetDeadlineAfterMillis(-1.0);
  const MatchMiningResult result = MineMatchPatterns(engine, opt);
  EXPECT_TRUE(result.stats.aborted);
  EXPECT_EQ(result.stats.stop_reason, StopReason::kDeadlineExceeded);
}

// ----------------------------------------------------- mining supervisor

std::string TempCheckpointPath(const std::string& name) {
  const std::string path = ::testing::TempDir() + "/" + name;
  std::remove(path.c_str());
  return path;
}

TEST(MiningSupervisorTest, UninterruptedRunMatchesPlainMining) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  NmEngine plain_engine(data, space);
  const MiningResult plain = MineTrajPatterns(plain_engine, MakeOptions());

  const std::string path = TempCheckpointPath("tp_supervisor_plain.ckpt");
  NmEngine engine(data, space);
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_EQ(report.restarts, 0);
  EXPECT_EQ(report.sink_attempt_failures, 0);
  ExpectBitIdentical(report.result.patterns, plain.patterns);
  // The final checkpoint is durable and well-formed.
  MinerCheckpoint cp;
  EXPECT_TRUE(ReadMinerCheckpointFile(path, &cp).ok());
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, RetriesTransientSinkFailuresWithBackoff) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  NmEngine plain_engine(data, space);
  const MiningResult plain = MineTrajPatterns(plain_engine, MakeOptions());

  const std::string path = TempCheckpointPath("tp_supervisor_retry.ckpt");
  NmEngine engine(data, space);
  FaultScheduleOptions fo;
  fo.fail_first = 2;  // a two-write outage burst, then clean
  FaultSchedule faults(fo);
  std::vector<double> sleeps;
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  sup.checkpoint_retries = 3;
  sup.sink_faults = &faults;
  sup.sleep_fn = [&sleeps](double ms) { sleeps.push_back(ms); };
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_EQ(report.restarts, 0);
  EXPECT_EQ(report.sink_attempt_failures, 2);
  EXPECT_EQ(report.sink_deliveries_retried, 1);
  // Exponential schedule: 1ms, then 2ms, within the first delivery.
  ASSERT_GE(sleeps.size(), 2u);
  EXPECT_DOUBLE_EQ(sleeps[0], 1.0);
  EXPECT_DOUBLE_EQ(sleeps[1], 2.0);
  EXPECT_DOUBLE_EQ(report.backoff_ms_total, 3.0);
  // The outage never changed the answer.
  ExpectBitIdentical(report.result.patterns, plain.patterns);
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, DeadSinkStopsAtLastDurableBoundary) {
  const TrajectoryDataset data = MakeMiningData();
  const std::string path = TempCheckpointPath("tp_supervisor_dead.ckpt");
  NmEngine engine(data, MakeSpace());
  FaultScheduleOptions fo;
  fo.fail_rate = 1.0;  // the sink never recovers
  FaultSchedule faults(fo);
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  sup.checkpoint_retries = 2;
  sup.sink_faults = &faults;
  sup.sleep_fn = [](double) {};
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kDataLoss);
  EXPECT_TRUE(report.result.stats.aborted);
  EXPECT_EQ(report.result.stats.stop_reason, StopReason::kSinkVeto);
  // 1 + retries attempts for the single delivery that was tried.
  EXPECT_EQ(report.sink_attempts, 3);
  EXPECT_EQ(report.sink_attempt_failures, 3);
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, ResumesFromExistingCheckpointFile) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  const MinerOptions base = MakeOptions();
  NmEngine full_engine(data, space);
  const MiningResult full = MineTrajPatterns(full_engine, base);

  // A previous process "crashed" after persisting the iteration-1
  // boundary.
  const std::string path = TempCheckpointPath("tp_supervisor_resume.ckpt");
  {
    MinerOptions interrupted = base;
    interrupted.checkpoint_sink = [&path](const MinerCheckpoint& cp) {
      EXPECT_TRUE(WriteMinerCheckpointFile(cp, path).ok());
      return cp.iteration < 1;
    };
    NmEngine engine(data, space);
    const MiningResult partial = MineTrajPatterns(engine, interrupted);
    ASSERT_TRUE(partial.stats.aborted);
  }

  NmEngine engine(data, space);
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = base;
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  ASSERT_TRUE(report.status.ok()) << report.status.ToString();
  EXPECT_TRUE(report.resumed_from_checkpoint);
  ExpectBitIdentical(report.result.patterns, full.patterns);
  std::remove(path.c_str());
}

// A checkpoint written with another k must not be resumed: the
// smaller run memoized split bounds below its own ω that a larger top-k
// would admit.  The supervisor refuses before mining, typed, and leaves
// the file as it was.
TEST(MiningSupervisorTest, CheckpointWithAnotherKIsRefusedUntouched) {
  const TrajectoryDataset data = MakeMiningData();
  const MiningSpace space = MakeSpace();
  const std::string path = TempCheckpointPath("tp_supervisor_other_k.ckpt");
  {
    MinerOptions small = MakeOptions();
    small.k = 4;
    small.checkpoint_sink = [&path](const MinerCheckpoint& cp) {
      EXPECT_TRUE(WriteMinerCheckpointFile(cp, path).ok());
      return cp.iteration < 1;
    };
    NmEngine engine(data, space);
    ASSERT_TRUE(MineTrajPatterns(engine, small).stats.aborted);
  }
  auto read_file = [&path]() {
    std::ifstream is(path);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
  };
  const std::string before = read_file();
  ASSERT_FALSE(before.empty());

  NmEngine engine(data, space);
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  sup.miner.k = 40;
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status.ToString().find("k=4"), std::string::npos)
      << report.status.ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_TRUE(report.result.patterns.empty());
  EXPECT_EQ(report.sink_attempts, 0);
  EXPECT_EQ(read_file(), before);
  std::remove(path.c_str());
}

// A v3 checkpoint holds a sharded run, which cannot be resumed: the
// supervisor refuses it before mining with the reader's typed status,
// which names v3, and leaves the file byte-identical.
TEST(MiningSupervisorTest, V3CheckpointIsRefusedUntouched) {
  const std::string path = TempCheckpointPath("tp_supervisor_v3.ckpt");
  const std::string v3 =
      "trajpattern_checkpoint,v3\n"
      "iteration,1\n"
      "k,10\n"
      "omega,-0x1.9p+3\n"
      "candidates_evaluated,12\n"
      "candidates_pruned,3\n"
      "scores,1\n"
      "-0x1.ap+3,7\n"
      "prev_high,0\n"
      "prev_queue,0\n"
      "shards,2\n"
      "0,-0x1.9p+3,6,1,0\n"
      "1,-0x1.ap+3,6,2,0\n"
      "end\n";
  {
    std::ofstream os(path, std::ios::binary);
    os << v3;
    ASSERT_TRUE(os.good());
  }

  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status.ToString().find("v3"), std::string::npos)
      << report.status.ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_TRUE(report.result.patterns.empty());
  EXPECT_EQ(report.sink_attempts, 0);
  std::ifstream is(path, std::ios::binary);
  std::stringstream after;
  after << is.rdbuf();
  EXPECT_EQ(after.str(), v3);
  std::remove(path.c_str());
}

// A v4 checkpoint holds NM values of the old interval measure (Phi(hi) -
// Phi(lo)); resuming it would mix two measures in one run.  The
// supervisor refuses it before mining with the reader's typed status,
// which names v4 and the measure change, and leaves the file
// byte-identical, so the operator can rerun without it.
TEST(MiningSupervisorTest, OldMeasureCheckpointIsRefusedUntouched) {
  const std::string path = TempCheckpointPath("tp_supervisor_v4.ckpt");
  const std::string v4 =
      "trajpattern_checkpoint,v4\n"
      "iteration,1\n"
      "k,10\n"
      "omega,-0x1.9p+3\n"
      "candidates_evaluated,12\n"
      "candidates_pruned,3\n"
      "beam_capped,0\n"
      "scores,1\n"
      "-0x1.ap+3,7\n"
      "prev_high,0\n"
      "prev_queue,0\n"
      "end\n";
  {
    std::ofstream os(path, std::ios::binary);
    os << v4;
    ASSERT_TRUE(os.good());
  }

  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(report.status.ToString().find("v4"), std::string::npos)
      << report.status.ToString();
  EXPECT_NE(report.status.ToString().find("old interval measure"),
            std::string::npos)
      << report.status.ToString();
  EXPECT_FALSE(report.resumed_from_checkpoint);
  EXPECT_TRUE(report.result.patterns.empty());
  EXPECT_EQ(report.sink_attempts, 0);
  std::ifstream is(path, std::ios::binary);
  std::stringstream after;
  after << is.rdbuf();
  EXPECT_EQ(after.str(), v4);
  std::remove(path.c_str());
}

// A checkpoint holding a cell the engine's grid lacks (one written with a
// larger grid) must not be resumed: warm-up would index past the factor
// table.  Whichever block holds the cell (a frontier row is also a
// score row), the supervisor refuses the file before mining, typed,
// naming the cell and the grid size, and leaves it byte-identical.
TEST(MiningSupervisorTest, CheckpointWithCellOutsideTheGridIsRefusedUntouched) {
  const std::string path = TempCheckpointPath("tp_supervisor_other_grid.ckpt");
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());  // 8x8: cells 0-63
  const char* const blocks[] = {"scores", "prev_high", "prev_queue"};
  const char* const outside[] = {"7;100", "100;*", "*;100"};
  for (int block = 0; block < 3; ++block) {
    const std::string text =
        std::string("trajpattern_checkpoint,v5\n"
                    "iteration,1\n"
                    "k,10\n"
                    "omega,-0x1.9p+3\n"
                    "candidates_evaluated,12\n"
                    "candidates_pruned,3\n"
                    "beam_capped,0\n"
                    "scores,3\n"
                    "-0x1.ap+3,7\n"
                    "-0x1.bp+3,7;8\n"
                    "-0x1.cp+3,") +
        outside[block] + "\nprev_high,1\n" +
        (block == 1 ? outside[block] : "7") + "\nprev_queue,1\n" +
        (block == 2 ? outside[block] : "7;8") + "\nend\n";
    {
      std::ofstream os(path, std::ios::binary);
      os << text;
      ASSERT_TRUE(os.good());
    }
    SupervisorOptions sup;
    sup.checkpoint_path = path;
    sup.miner = MakeOptions();
    MiningSupervisor supervisor(&engine, sup);
    const SupervisorReport report = supervisor.Run();
    EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition)
        << blocks[block];
    EXPECT_NE(report.status.ToString().find("cell 100"), std::string::npos)
        << report.status.ToString();
    EXPECT_NE(report.status.ToString().find("64 cells"), std::string::npos)
        << report.status.ToString();
    EXPECT_FALSE(report.resumed_from_checkpoint);
    EXPECT_TRUE(report.result.patterns.empty());
    EXPECT_EQ(report.sink_attempts, 0);
    std::ifstream is(path, std::ios::binary);
    std::stringstream after;
    after << is.rdbuf();
    EXPECT_EQ(after.str(), text) << blocks[block];
  }
  std::remove(path.c_str());
}

// A frontier row that is not also a score row names no memo entry: the
// supervisor surfaces the reader's typed refusal before mining and leaves
// the file byte-identical.
TEST(MiningSupervisorTest, CheckpointWithUnscoredFrontierRowIsRefusedUntouched) {
  const std::string path =
      TempCheckpointPath("tp_supervisor_unscored_frontier.ckpt");
  const TrajectoryDataset data = MakeMiningData();
  NmEngine engine(data, MakeSpace());
  for (const std::string block : {"prev_high", "prev_queue"}) {
    const std::string text =
        "trajpattern_checkpoint,v5\n"
        "iteration,1\n"
        "k,10\n"
        "omega,-0x1.9p+3\n"
        "candidates_evaluated,12\n"
        "candidates_pruned,3\n"
        "beam_capped,0\n"
        "scores,1\n"
        "-0x1.ap+3,7\n"
        "prev_high,1\n" +
        std::string(block == "prev_high" ? "7;8" : "7") +
        "\nprev_queue,1\n" + (block == "prev_queue" ? "7;8" : "7") +
        "\nend\n";
    {
      std::ofstream os(path, std::ios::binary);
      os << text;
      ASSERT_TRUE(os.good());
    }
    SupervisorOptions sup;
    sup.checkpoint_path = path;
    sup.miner = MakeOptions();
    MiningSupervisor supervisor(&engine, sup);
    const SupervisorReport report = supervisor.Run();
    EXPECT_EQ(report.status.code(), StatusCode::kDataLoss) << block;
    EXPECT_NE(report.status.ToString().find(block + " row is not a score row"),
              std::string::npos)
        << report.status.ToString();
    EXPECT_FALSE(report.resumed_from_checkpoint);
    EXPECT_TRUE(report.result.patterns.empty());
    EXPECT_EQ(report.sink_attempts, 0);
    std::ifstream is(path, std::ios::binary);
    std::stringstream after;
    after << is.rdbuf();
    EXPECT_EQ(after.str(), text) << block;
  }
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, CorruptCheckpointFileSurfacesTypedError) {
  const TrajectoryDataset data = MakeMiningData();
  const std::string path = TempCheckpointPath("tp_supervisor_corrupt.ckpt");
  {
    FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("trajpattern_checkpoint,v5\niteration,garbage\n", f);
    std::fclose(f);
  }
  NmEngine engine(data, MakeSpace());
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  // Corruption is surfaced, never silently clobbered by a fresh run.
  EXPECT_EQ(report.status.code(), StatusCode::kDataLoss);
  EXPECT_FALSE(report.resumed_from_checkpoint);
  std::remove(path.c_str());
}

TEST(MiningSupervisorTest, CrashLoopBeyondMaxRestartsFails) {
  const TrajectoryDataset data = MakeMiningData();
  const std::string path = TempCheckpointPath("tp_supervisor_crashloop.ckpt");
  NmEngine engine(data, MakeSpace());
  SupervisorOptions sup;
  sup.checkpoint_path = path;
  sup.miner = MakeOptions();
  sup.max_restarts = 1;
  sup.write_fn = [](const MinerCheckpoint&, const std::string&) -> Status {
    throw std::runtime_error("disk controller on fire");
  };
  sup.sleep_fn = [](double) {};
  MiningSupervisor supervisor(&engine, sup);
  const SupervisorReport report = supervisor.Run();
  EXPECT_EQ(report.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(report.restarts, 1);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace trajpattern
