// trajpattern_cli — end-to-end command-line front door to the library.
//
//   generate   synthesize a workload to CSV
//   mine       mine top-k NM patterns from a trajectory CSV
//   score      score a pattern CSV against a trajectory CSV
//
// Examples:
//   trajpattern_cli --cmd=generate --kind=zebranet --out=/tmp/z.csv
//   trajpattern_cli --cmd=mine --in=/tmp/z.csv --k=20 --min_len=3
//                   --out=/tmp/patterns.csv   (one line)
//   trajpattern_cli --cmd=mine --in=/tmp/z.csv --faults=drop:0.05,corrupt:0.01
//                   --max_jump=5 --checkpoint=/tmp/mine.ckpt   (one line)
//   trajpattern_cli --cmd=mine --in=/tmp/z.csv --deadline_ms=5000
//                   --memory_budget_mb=64 --checkpoint=/tmp/mine.ckpt
//                   --checkpoint_retries=5   (one line)
//   trajpattern_cli --cmd=score --in=/tmp/z.csv --patterns=/tmp/patterns.csv

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <string>

#include "common/run_context.h"
#include "common/status.h"
#include "core/miner.h"
#include "core/nm_engine.h"
#include "core/parameters.h"
#include "core/pattern_group.h"
#include "datagen/bus_generator.h"
#include "datagen/uniform_generator.h"
#include "datagen/zebranet_generator.h"
#include "io/checkpoint.h"
#include "io/csv.h"
#include "io/flags.h"
#include "io/obs_flags.h"
#include "obs/flight_recorder.h"
#include "server/fault_injector.h"
#include "server/mining_supervisor.h"
#include "server/status_server.h"
#include "trajectory/validate.h"

using namespace trajpattern;

namespace {

// Refuses the flags no mining space can be built from: --grid and
// --max_grid below 1 (a grid needs a cell per side, and Flags reads a
// non-number as 0), and a --delta that is not finite and above 0.
bool SpaceFlagsValid(const Flags& flags, const char* cmd) {
  for (const char* name : {"grid", "max_grid"}) {
    const int value = flags.GetInt(name, 1);
    if (value < 1) {
      std::fprintf(stderr, "%s: --%s must be at least 1 (got %d)\n", cmd,
                   name, value);
      return false;
    }
  }
  const double delta = flags.GetDouble("delta", 1.0);
  if (!std::isfinite(delta) || delta <= 0.0) {
    std::fprintf(stderr, "%s: --delta must be finite and above 0 (got %g)\n",
                 cmd, delta);
    return false;
  }
  return true;
}

// Refuses a negative value of any of `names`, flags that count
// something; 0 keeps its meaning.
//
// The mine flags count positions, candidates, MiB, milliseconds,
// workers or retries, and 0 means no bound, no wildcards, no budget, no
// deadline, every core, or no retry.  A negative length or beam bound
// would wrap to a huge size_t, a negative wildcard count would pass as
// an empty range, and a negative run-control value would silently read
// as its 0 (or, for the retries, as one attempt).
//
// The generate flags count trajectories, snapshots, groups, routes,
// buses or days.  A negative trajectory or route count would abort the
// generator on a vector length, a negative snapshot or day count would
// write trajectories with no snapshots, and a negative group count would
// silently read as one group.
bool CountFlagsValid(const Flags& flags, const char* cmd,
                     std::initializer_list<const char*> names) {
  for (const char* name : names) {
    const int value = flags.GetInt(name, 0);
    if (value < 0) {
      std::fprintf(stderr, "%s: --%s must be at least 0 (got %d)\n", cmd,
                   name, value);
      return false;
    }
  }
  return true;
}

int Generate(const Flags& flags) {
  const std::string kind = flags.GetString("kind", "zebranet");
  const std::string out = flags.GetString("out", "");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out=<file.csv> is required\n");
    return 1;
  }
  if (!CountFlagsValid(flags, "generate",
                       {"n", "snapshots", "groups", "routes", "buses",
                        "days"})) {
    return 1;
  }
  TrajectoryDataset data;
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  if (kind == "zebranet") {
    ZebraNetGeneratorOptions opt;
    opt.num_zebras = flags.GetInt("n", 100);
    opt.num_snapshots = flags.GetInt("snapshots", 50);
    opt.num_groups = flags.GetInt("groups", 10);
    opt.seed = seed;
    data = GenerateZebraNet(opt);
  } else if (kind == "uniform") {
    UniformGeneratorOptions opt;
    opt.num_objects = flags.GetInt("n", 100);
    opt.num_snapshots = flags.GetInt("snapshots", 50);
    opt.seed = seed;
    data = GenerateUniformObjects(opt);
  } else if (kind == "bus") {
    BusGeneratorOptions opt;
    opt.num_routes = flags.GetInt("routes", 5);
    opt.buses_per_route = flags.GetInt("buses", 10);
    opt.num_days = flags.GetInt("days", 10);
    opt.num_snapshots = flags.GetInt("snapshots", 100);
    opt.seed = seed;
    data = GenerateBusTraces(opt);
  } else {
    std::fprintf(stderr, "generate: unknown --kind=%s (zebranet|uniform|bus)\n",
                 kind.c_str());
    return 1;
  }
  if (!WriteTrajectoriesCsvFile(data, out)) {
    std::fprintf(stderr, "generate: cannot write %s\n", out.c_str());
    return 1;
  }
  std::printf("wrote %zu trajectories (%zu snapshots) to %s\n", data.size(),
              data.TotalPoints(), out.c_str());
  return 0;
}

// Replays `data` as a report stream through the fault injector, the
// server, and the validator — the full fault-tolerant ingestion pipeline —
// and returns what survives for mining.
int RunFaultPipeline(const Flags& flags, const std::string& spec,
                     TrajectoryDataset* data) {
  auto parsed = ParseFaultSpec(spec);
  if (!parsed.ok()) {
    std::fprintf(stderr, "mine: bad --faults: %s\n",
                 parsed.status().ToString().c_str());
    return 1;
  }
  FaultInjectorOptions fault_options = *parsed;
  fault_options.seed = static_cast<uint64_t>(flags.GetInt("fault_seed", 1));

  ReportStream stream = DatasetToReportStream(*data);
  FaultStats fault_stats;
  stream.events =
      FaultInjector(fault_options).Inject(stream.events, &fault_stats);

  MobileObjectServer::Options server_options;
  server_options.sync.num_snapshots = 0;
  double base_sigma = 0.0;
  for (const auto& t : *data) {
    server_options.sync.num_snapshots = std::max(
        server_options.sync.num_snapshots, static_cast<int>(t.size()));
    if (t.size() > 0 && base_sigma == 0.0) base_sigma = t[0].sigma;
  }
  server_options.sync.base_sigma =
      flags.GetDouble("base_sigma", base_sigma > 0.0 ? base_sigma : 0.01);
  // Honest uncertainty for dead-reckoned snapshots: after a dropped
  // report, sigma grows with the elapsed time (§3.1's U as a function of
  // elapse time).  The validator's repairs use the same rate.
  const double sigma_growth = flags.GetDouble("sigma_growth", 0.0);
  server_options.sync.sigma_growth = sigma_growth;
  IngestStats ingest;
  const TrajectoryDataset faulted =
      IngestAndSynchronize(stream, server_options, &ingest);
  std::printf(
      "faults: %zu/%zu reports dropped/corrupted/delayed, ingest rejected "
      "%lld of %lld\n",
      fault_stats.dropped + fault_stats.corrupted + fault_stats.delayed,
      fault_stats.input, static_cast<long long>(ingest.rejected()),
      static_cast<long long>(ingest.total()));

  ValidationPolicy policy;
  policy.repair = flags.GetBool("repair", true);
  policy.max_jump = flags.GetDouble("max_jump", 0.0);
  if (sigma_growth > 0.0) policy.sigma_growth = sigma_growth;
  ValidationReport report;
  *data = TrajectoryValidator(policy).Validate(faulted, &report);
  std::printf(
      "validate: %zu faults in %zu snapshots; %zu repaired, %zu trajectories "
      "quarantined, %zu dropped, %zu kept\n",
      report.faults(), report.snapshots, report.repaired, report.quarantined,
      report.dropped, data->size());
  if (data->empty()) {
    std::fprintf(stderr, "mine: no trajectories survived validation\n");
    return 1;
  }
  return 0;
}

int Mine(const Flags& flags, const ObsOptions& obs_opts) {
  const std::string in = flags.GetString("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "mine: --in=<file.csv> is required\n");
    return 1;
  }
  const int k = flags.GetInt("k", 50);
  if (k < 1) {
    std::fprintf(stderr,
                 "mine: --k must be at least 1 (got %d)\n"
                 "usage: trajpattern_cli --cmd=mine --in=F [--k=N ...]\n",
                 k);
    return 1;
  }
  if (!SpaceFlagsValid(flags, "mine") ||
      !CountFlagsValid(flags, "mine",
                       {"min_len", "max_len", "beam", "wildcards",
                        "memory_budget_mb", "deadline_ms", "threads",
                        "checkpoint_retries"})) {
    return 1;
  }
  TrajectoryDataset data;
  CsvDiagnostic diag;
  if (!ReadTrajectoriesCsvFile(in, &data, &diag)) {
    std::fprintf(stderr, "mine: cannot read %s (line %zu: %s)\n", in.c_str(),
                 diag.line, diag.message.c_str());
    return 1;
  }
  if (data.empty()) {
    std::fprintf(stderr, "mine: %s holds no trajectories\n", in.c_str());
    return 1;
  }

  const std::string fault_spec = flags.GetString("faults", "");
  if (!fault_spec.empty()) {
    const int rc = RunFaultPipeline(flags, fault_spec, &data);
    if (rc != 0) return rc;
  }

  // Space: either fully specified or suggested from the data (§5).
  const ParameterSuggestion suggestion =
      SuggestParameters(data, flags.GetInt("max_grid", 128));
  const int side = flags.GetInt("grid", suggestion.cells_per_side);
  const Grid grid(suggestion.box, side, side);
  const double delta = flags.GetDouble("delta", suggestion.delta);
  const MiningSpace space(grid, delta);
  std::printf("space: %dx%d grid, delta=%.5f, gamma=%.5f\n", side, side,
              delta, suggestion.gamma);

  NmEngine engine(data, space);
  MinerOptions opt;
  opt.k = k;
  opt.min_length = static_cast<size_t>(flags.GetInt("min_len", 0));
  opt.max_pattern_length = static_cast<size_t>(flags.GetInt("max_len", 8));
  opt.max_wildcards = flags.GetInt("wildcards", 0);
  opt.max_candidates_per_iteration =
      static_cast<size_t>(flags.GetInt("beam", 10000));

  opt.num_threads = flags.GetInt("threads", 0);

  // Run control: --deadline_ms bounds wall-clock, --memory_budget_mb
  // caps the factor cache.  Either stop returns best-so-far results
  // with a typed stop reason instead of failing the run.
  const int deadline_ms = flags.GetInt("deadline_ms", 0);
  if (deadline_ms > 0) opt.run.SetDeadlineAfterMillis(deadline_ms);
  const int budget_mb = flags.GetInt("memory_budget_mb", 0);
  if (budget_mb > 0) {
    opt.run.memory_budget_bytes =
        static_cast<size_t>(budget_mb) * 1024 * 1024;
  }

  // --checkpoint=FILE: resume from FILE when it exists, and rewrite it
  // after every grow iteration so a killed run loses at most one.  The
  // run then goes through the MiningSupervisor, which retries failing
  // checkpoint writes (--checkpoint_retries, exponential backoff) and
  // auto-resumes a crashed attempt from the last good checkpoint.
  const std::string ckpt_path = flags.GetString("checkpoint", "");
  MiningResult result;
  if (!ckpt_path.empty()) {
    MinerCheckpoint resume;
    const Status s = ReadMinerCheckpointFile(ckpt_path, &resume);
    if (s.ok()) {
      std::printf("found checkpoint %s (iteration %d, k=%d, %zu scored "
                  "patterns)\n",
                  ckpt_path.c_str(), resume.iteration, resume.k,
                  resume.scores.size());
    } else if (s.code() != StatusCode::kNotFound) {
      std::fprintf(stderr, "mine: cannot load checkpoint %s: %s\n",
                   ckpt_path.c_str(), s.ToString().c_str());
      return 1;
    }
    SupervisorOptions sup;
    sup.checkpoint_path = ckpt_path;
    sup.checkpoint_retries = flags.GetInt("checkpoint_retries", 3);
    sup.flight_record_dir = obs_opts.flight_dir;
    sup.miner = opt;
    MiningSupervisor supervisor(&engine, sup);
    SupervisorReport report = supervisor.Run();
    if (!report.status.ok()) {
      std::fprintf(stderr, "mine: supervised run failed: %s\n",
                   report.status.ToString().c_str());
      if (report.result.patterns.empty()) return 1;
    }
    if (report.restarts > 0 || report.sink_deliveries_retried > 0) {
      std::printf(
          "supervisor: %d restarts, %lld checkpoint deliveries retried\n",
          report.restarts,
          static_cast<long long>(report.sink_deliveries_retried));
    }
    for (const std::string& path : report.flight_records) {
      std::printf("flight record: %s\n", path.c_str());
    }
    result = std::move(report.result);
  } else {
    result = MineTrajPatterns(engine, opt);
    // Unsupervised runs dump their own abort post-mortems (supervised
    // ones go through the MiningSupervisor's recorder above).
    if (result.stats.stop_reason != StopReason::kNone &&
        !obs_opts.flight_dir.empty()) {
      const std::string path = obs::WriteFlightRecord(
          obs_opts.flight_dir, "abort",
          StopReasonName(result.stats.stop_reason));
      if (!path.empty()) std::printf("flight record: %s\n", path.c_str());
    }
  }
  std::printf(
      "mined %zu patterns in %.2fs (%lld scored, %d iterations%s)\n",
      result.patterns.size(), result.stats.seconds,
      static_cast<long long>(result.stats.candidates_evaluated),
      result.stats.iterations,
      result.stats.hit_candidate_cap ? ", beam capped" : "");
  if (result.stats.aborted) {
    std::printf("stopped early: %s (best-so-far top-k%s)\n",
                StopReasonName(result.stats.stop_reason),
                ckpt_path.empty() ? "" : ", resumable checkpoint on disk");
  }

  const auto groups = GroupPatterns(
      result.patterns, grid, flags.GetDouble("gamma", suggestion.gamma));
  std::printf("%zu pattern groups; best per group:\n", groups.size());
  for (size_t g = 0; g < groups.size() && g < 10; ++g) {
    std::printf("  [%zu patterns] NM=%9.3f  %s\n", groups[g].size(),
                groups[g].members.front().nm,
                groups[g].members.front().pattern.ToString().c_str());
  }

  const std::string out = flags.GetString("out", "");
  if (!out.empty()) {
    std::ofstream os(out);
    if (!os) {
      std::fprintf(stderr, "mine: cannot write %s\n", out.c_str());
      return 1;
    }
    WritePatternsCsv(result.patterns, os);
    std::printf("wrote %zu patterns to %s\n", result.patterns.size(),
                out.c_str());
  }
  return 0;
}

int Score(const Flags& flags) {
  const std::string in = flags.GetString("in", "");
  const std::string patterns_path = flags.GetString("patterns", "");
  if (in.empty() || patterns_path.empty()) {
    std::fprintf(stderr,
                 "score: --in=<traj.csv> and --patterns=<patterns.csv> are "
                 "required\n");
    return 1;
  }
  if (!SpaceFlagsValid(flags, "score")) return 1;
  TrajectoryDataset data;
  CsvDiagnostic diag;
  if (!ReadTrajectoriesCsvFile(in, &data, &diag)) {
    std::fprintf(stderr, "score: cannot read %s (line %zu: %s)\n", in.c_str(),
                 diag.line, diag.message.c_str());
    return 1;
  }
  if (data.empty()) {
    std::fprintf(stderr, "score: %s holds no trajectories\n", in.c_str());
    return 1;
  }
  std::vector<ScoredPattern> patterns;
  {
    std::ifstream is(patterns_path);
    if (!is || !ReadPatternsCsv(is, &patterns)) {
      std::fprintf(stderr, "score: cannot read %s\n", patterns_path.c_str());
      return 1;
    }
  }
  const ParameterSuggestion suggestion =
      SuggestParameters(data, flags.GetInt("max_grid", 128));
  const int side = flags.GetInt("grid", suggestion.cells_per_side);
  const Grid grid(suggestion.box, side, side);
  // The engine indexes its column table by cell: a pattern mined on
  // another grid cannot be scored on this one.
  for (const auto& sp : patterns) {
    if (const std::optional<CellId> c =
            PatternCellOutsideGrid(sp.pattern.cells(), grid)) {
      std::fprintf(stderr,
                   "score: %s holds cell %d, outside the %dx%d grid of %d "
                   "cells\n",
                   patterns_path.c_str(), *c, side, side, grid.num_cells());
      return 1;
    }
  }
  const MiningSpace space(grid, flags.GetDouble("delta", suggestion.delta));
  NmEngine engine(data, space);
  std::printf("%-40s %12s %12s\n", "pattern", "NM", "match");
  for (const auto& sp : patterns) {
    std::printf("%-40s %12.3f %12.4g\n", sp.pattern.ToString().c_str(),
                engine.NmTotal(sp.pattern), engine.MatchTotal(sp.pattern));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const std::string cmd = flags.GetString("cmd", "help");
  // Observability plumbing applies to every subcommand: --trace=F captures
  // a Chrome trace of the run, --metrics=F a registry snapshot.
  const ObsOptions obs_opts = ParseObsOptions(flags);
  StartObservability(obs_opts);
  // --status_port=N serves /metrics /healthz /runz /tracez for the
  // process lifetime (0 = ephemeral port, printed so an operator or
  // wrapper script can find it).
  if (obs_opts.status_port >= 0) {
    const Status s = StartGlobalStatusServer(obs_opts.status_port);
    if (!s.ok()) {
      std::fprintf(stderr, "obs: status server: %s\n", s.ToString().c_str());
      return 1;
    }
    std::printf("status server on http://127.0.0.1:%d\n",
                GlobalStatusServer()->port());
  }
  int rc = -1;
  if (cmd == "generate") rc = Generate(flags);
  if (cmd == "mine") rc = Mine(flags, obs_opts);
  if (cmd == "score") rc = Score(flags);
  if (rc >= 0) {
    if (!FlushObservability(obs_opts) && rc == 0) rc = 1;
    StopGlobalStatusServer();
    return rc;
  }
  std::printf(
      "usage: trajpattern_cli --cmd=generate|mine|score [options]\n"
      "  generate: --kind=zebranet|uniform|bus --out=F [--n --snapshots "
      "--seed ...]\n"
      "  mine:     --in=F [--k --min_len --max_len --wildcards --grid "
      "--delta --gamma --beam --out=F]\n"
      "            [--threads=N --deadline_ms=N --memory_budget_mb=N (caps "
      "the factor cache)]\n"
      "            [--faults=drop:0.05,corrupt:0.01,... --fault_seed "
      "--repair=0|1 --max_jump --sigma_growth --checkpoint=F]\n"
      "  score:    --in=F --patterns=F [--grid --delta]\n"
      "  all:      [--trace=F.json --metrics=F.json --metrics-prom=F.prom "
      "--trace-buffer=N]\n"
      "            [--journal=F.jsonl --status_port=N --flight_dir=D]\n");
  return cmd == "help" ? 0 : 1;
}
