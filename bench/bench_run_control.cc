// Anytime mining under run control: measures (a) how far a deadlined
// run overshoots its deadline (bound: one scoring batch, in practice one
// work item, since workers poll the context before every claim), (b)
// cancellation latency from Cancel() to the miner returning, (c) that a
// memory-budgeted run holds the factor cache under its budget while
// returning the bit-identical top-k, and (d) the MiningSupervisor's
// retry/backoff bookkeeping under an injected transient sink outage,
// with the supervised answer again bit-identical.  Writes
// BENCH_run_control.json (override with --json=PATH).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/run_context.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "io/checkpoint.h"
#include "io/flags.h"
#include "io/obs_flags.h"
#include "server/fault_injector.h"
#include "server/mining_supervisor.h"
#include "stats/timer.h"

using namespace trajpattern;
namespace tb = trajpattern::bench;

namespace {

bool BitIdentical(const std::vector<ScoredPattern>& a,
                  const std::vector<ScoredPattern>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].pattern == b[i].pattern) ||
        std::memcmp(&a[i].nm, &b[i].nm, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  tb::Fig4Config cfg = tb::ParseFig4Config(flags);
  const std::string json_path =
      flags.GetString("json", tb::DefaultJsonPath("BENCH_run_control.json"));
  const std::string ckpt_path =
      flags.GetString("ckpt", "/tmp/bench_run_control.ckpt");
  const ObsOptions obs_opts = ParseObsOptions(flags);
  StartObservability(obs_opts);

  const TrajectoryDataset data = tb::MakeZebraData(cfg);
  const MiningSpace space = tb::MakeSpace(cfg);
  const MinerOptions base = tb::MakeMinerOptions(cfg);

  std::printf("Run control  (S=%d, L=%d, G=%d, k=%d, max_len=%d)\n",
              cfg.num_trajectories, cfg.avg_length,
              cfg.grid_side * cfg.grid_side, cfg.k, cfg.max_pattern_length);

  // ---- baseline: the uninterrupted run, with per-iteration timings
  // (the batch granularity every overshoot below is judged against).
  std::vector<double> boundary_s;  // elapsed at each iteration boundary
  MiningResult baseline;
  double baseline_s = 0.0;
  size_t baseline_peak_bytes = 0;
  {
    NmEngine engine(data, space);
    MinerOptions opt = base;
    WallTimer timer;
    opt.checkpoint_sink = [&boundary_s, &timer](const MinerCheckpoint&) {
      boundary_s.push_back(timer.Seconds());
      return true;
    };
    baseline = MineTrajPatterns(engine, opt);
    baseline_s = timer.Seconds();
    baseline_peak_bytes = engine.arena_peak_bytes();
  }
  double max_iteration_s = 0.0;
  for (size_t i = 0; i < boundary_s.size(); ++i) {
    const double d = boundary_s[i] - (i == 0 ? 0.0 : boundary_s[i - 1]);
    if (d > max_iteration_s) max_iteration_s = d;
  }
  std::printf("  baseline: %.3fs, %d iterations, longest %.3fs, peak arena %zu bytes\n",
              baseline_s, baseline.stats.iterations, max_iteration_s,
              baseline_peak_bytes);

  // ---- deadline: half the baseline's wall clock.  The run must come
  // back with the typed reason, and the overshoot past the deadline must
  // stay under one scoring batch (the coarsest poll granularity; worker
  // claim-loop polls make it far smaller in practice).
  const double deadline_ms =
      flags.GetDouble("deadline_ms", 0.5 * baseline_s * 1e3);
  double deadline_elapsed_ms = 0.0;
  MiningResult deadlined;
  {
    NmEngine engine(data, space);
    MinerOptions opt = base;
    opt.run.SetDeadlineAfterMillis(deadline_ms);
    WallTimer timer;
    deadlined = MineTrajPatterns(engine, opt);
    deadline_elapsed_ms = timer.Millis();
  }
  const double overshoot_ms = deadline_elapsed_ms - deadline_ms;
  const bool overshoot_bounded =
      overshoot_ms <= max_iteration_s * 1e3 + 1.0;  // +1ms scheduling slack
  std::printf("  deadline %.1fms: returned in %.1fms (overshoot %.2fms, %s), "
              "reason=%s, %zu best-so-far patterns\n",
              deadline_ms, deadline_elapsed_ms, overshoot_ms,
              overshoot_bounded ? "within one batch" : "OVER BUDGET",
              StopReasonName(deadlined.stats.stop_reason),
              deadlined.patterns.size());

  // ---- cancellation latency: trip the token from another thread at
  // ~half the baseline runtime, measure Cancel() -> return.
  double cancel_latency_ms = 0.0;
  MiningResult cancelled;
  {
    NmEngine engine(data, space);
    MinerOptions opt = base;
    opt.run = RunContext();
    const CancellationToken token = opt.run.token;
    WallTimer cancel_timer;
    double cancel_at_ms = 0.0;
    std::thread canceller([&cancel_timer, &cancel_at_ms, token,
                           baseline_s] {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(0.5 * baseline_s));
      cancel_at_ms = cancel_timer.Millis();
      token.Cancel();
    });
    cancelled = MineTrajPatterns(engine, opt);
    const double returned_ms = cancel_timer.Millis();
    canceller.join();
    cancel_latency_ms = returned_ms - cancel_at_ms;
  }
  std::printf("  cancel: latency %.2fms, reason=%s, %zu best-so-far patterns\n",
              cancel_latency_ms, StopReasonName(cancelled.stats.stop_reason),
              cancelled.patterns.size());

  // ---- memory budget: half the baseline's peak arena.  The run must
  // hold the arena under budget (shedding + chunking) and still produce
  // the bit-identical top-k.
  const uint64_t budget_bytes = static_cast<uint64_t>(
      flags.GetInt("budget_bytes", static_cast<int>(baseline_peak_bytes / 2)));
  MiningResult budgeted;
  double budget_s = 0.0;
  size_t budget_peak_bytes = 0;
  size_t budget_evicted = 0;
  {
    NmEngine engine(data, space);
    MinerOptions opt = base;
    opt.run = RunContext();
    opt.run.memory_budget_bytes = budget_bytes;
    WallTimer timer;
    budgeted = MineTrajPatterns(engine, opt);
    budget_s = timer.Seconds();
    budget_peak_bytes = engine.arena_peak_bytes();
    budget_evicted = engine.cells_evicted();
  }
  const bool budget_held = budget_peak_bytes <= budget_bytes;
  const bool budget_identical =
      BitIdentical(budgeted.patterns, baseline.patterns);
  std::printf("  budget %llu bytes: peak %zu (%s), %zu evictions, %.3fs "
              "(%.2fx baseline), bit-identical=%s\n",
              static_cast<unsigned long long>(budget_bytes),
              budget_peak_bytes, budget_held ? "held" : "EXCEEDED",
              budget_evicted, budget_s,
              baseline_s > 0 ? budget_s / baseline_s : 0.0,
              budget_identical ? "yes" : "NO");

  // ---- supervisor under an injected transient sink outage: the first
  // two checkpoint writes fail, retries with exponential backoff recover
  // them, and the supervised answer matches the plain run bit-exactly.
  std::remove(ckpt_path.c_str());
  SupervisorReport sup_report;
  {
    NmEngine engine(data, space);
    FaultScheduleOptions fo;
    fo.fail_first = 2;
    fo.seed = cfg.seed;
    FaultSchedule faults(fo);
    SupervisorOptions sup;
    sup.checkpoint_path = ckpt_path;
    sup.miner = base;
    sup.miner.run = RunContext();
    sup.sink_faults = &faults;
    sup.sleep_fn = [](double) {};  // count the backoff, don't pay it
    MiningSupervisor supervisor(&engine, sup);
    sup_report = supervisor.Run();
  }
  std::remove(ckpt_path.c_str());
  const bool supervisor_identical =
      sup_report.status.ok() &&
      BitIdentical(sup_report.result.patterns, baseline.patterns);
  std::printf("  supervisor: %lld attempts, %lld failures, %lld deliveries "
              "retried, %.1fms backoff, bit-identical=%s\n",
              static_cast<long long>(sup_report.sink_attempts),
              static_cast<long long>(sup_report.sink_attempt_failures),
              static_cast<long long>(sup_report.sink_deliveries_retried),
              sup_report.backoff_ms_total,
              supervisor_identical ? "yes" : "NO");

  tb::JsonWriter w;
  w.BeginObject();
  w.Key("bench").Str("run_control");
  w.Key("config").BeginObject();
  w.Key("num_trajectories").Int(cfg.num_trajectories);
  w.Key("avg_length").Int(cfg.avg_length);
  w.Key("grid_cells").Int(cfg.grid_side * cfg.grid_side);
  w.Key("k").Int(cfg.k);
  w.Key("max_pattern_length").Int(cfg.max_pattern_length);
  w.Key("threads").Int(cfg.threads);
  w.EndObject();
  w.Key("baseline").BeginObject();
  w.Key("seconds").Double(baseline_s);
  w.Key("iterations").Int(baseline.stats.iterations);
  w.Key("max_iteration_seconds").Double(max_iteration_s);
  w.Key("peak_arena_bytes").UInt(baseline_peak_bytes);
  w.Key("patterns").Int(static_cast<long long>(baseline.patterns.size()));
  w.EndObject();
  w.Key("deadline").BeginObject();
  w.Key("deadline_ms").Double(deadline_ms, 3);
  w.Key("elapsed_ms").Double(deadline_elapsed_ms, 3);
  w.Key("overshoot_ms").Double(overshoot_ms, 3);
  w.Key("overshoot_within_one_batch").Bool(overshoot_bounded);
  w.Key("stop_reason").Str(StopReasonName(deadlined.stats.stop_reason));
  w.Key("best_so_far_patterns")
      .Int(static_cast<long long>(deadlined.patterns.size()));
  w.EndObject();
  w.Key("cancel").BeginObject();
  w.Key("latency_ms").Double(cancel_latency_ms, 3);
  w.Key("stop_reason").Str(StopReasonName(cancelled.stats.stop_reason));
  w.Key("best_so_far_patterns")
      .Int(static_cast<long long>(cancelled.patterns.size()));
  w.EndObject();
  w.Key("memory_budget").BeginObject();
  w.Key("budget_bytes").UInt(budget_bytes);
  w.Key("peak_arena_bytes").UInt(budget_peak_bytes);
  w.Key("budget_held").Bool(budget_held);
  w.Key("cells_evicted").UInt(budget_evicted);
  w.Key("seconds").Double(budget_s);
  w.Key("bit_identical_to_baseline").Bool(budget_identical);
  w.Key("stop_reason").Str(StopReasonName(budgeted.stats.stop_reason));
  w.EndObject();
  w.Key("supervisor").BeginObject();
  w.Key("status").Str(sup_report.status.ok() ? "ok"
                                             : sup_report.status.ToString());
  w.Key("sink_attempts").Int(sup_report.sink_attempts);
  w.Key("sink_attempt_failures").Int(sup_report.sink_attempt_failures);
  w.Key("sink_deliveries_retried").Int(sup_report.sink_deliveries_retried);
  w.Key("backoff_ms_total").Double(sup_report.backoff_ms_total, 3);
  w.Key("restarts").Int(sup_report.restarts);
  w.Key("bit_identical_to_baseline").Bool(supervisor_identical);
  w.EndObject();
  tb::StampMetrics(&w);
  tb::StampObsArtifacts(&w, obs_opts);
  w.EndObject();
  if (!w.WriteFile(json_path)) {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", json_path.c_str());
  if (!FlushObservability(obs_opts)) return 1;
  // Correctness gates: the bench doubles as an acceptance check.
  return (overshoot_bounded && budget_held && budget_identical &&
          supervisor_identical)
             ? 0
             : 2;
}
