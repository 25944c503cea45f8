#ifndef TRAJPATTERN_SERVER_MINING_SUPERVISOR_H_
#define TRAJPATTERN_SERVER_MINING_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/miner.h"
#include "server/fault_injector.h"

namespace trajpattern {

/// Knobs of the crash-safe mining supervisor.
struct SupervisorOptions {
  /// Checkpoint file the supervised run persists to (required).  Writes
  /// go through the atomic tmp+rename path, so a crash mid-write leaves
  /// the previous checkpoint intact.
  std::string checkpoint_path;

  /// Retry attempts per checkpoint delivery AFTER the first try (so a
  /// delivery makes at most `1 + checkpoint_retries` write attempts).
  /// Retries back off exponentially: 1 ms, doubled on each retry.
  int checkpoint_retries = 3;

  /// Auto-resume attempts after the mining run itself throws (worker
  /// exception, allocation failure, ...).  Each restart resumes from the
  /// last good checkpoint; a crash loop past this budget fails the run.
  int max_restarts = 3;

  /// Crash flight recorder: when non-empty, every crash/restart and
  /// every non-clean StopReason dumps a `flight_<ts>.json` post-mortem
  /// (journal tail + trace tail + metrics snapshot) into this directory.
  /// Empty = off.
  std::string flight_record_dir;

  /// The mining run to supervise.  `miner.checkpoint_sink` must be
  /// empty — the supervisor owns the sink (it installs the
  /// retry-with-backoff writer).
  MinerOptions miner;

  /// Injection/test seams, all optional:
  /// Checkpoint writer (default: `WriteMinerCheckpointFile`).
  std::function<Status(const MinerCheckpoint&, const std::string&)> write_fn;
  /// Backoff sleeper (default: `std::this_thread::sleep_for`); tests
  /// swap in a recorder so retry tests run in microseconds.
  std::function<void(double ms)> sleep_fn;
  /// Deterministic transient-failure stream for sink writes (not owned;
  /// may be nullptr).  A scheduled fault makes the write attempt fail
  /// with a transient I/O error before `write_fn` runs.
  FaultSchedule* sink_faults = nullptr;
};

/// What one supervised run did, alongside its mining result.
struct SupervisorReport {
  MiningResult result;
  /// Ok unless the run ultimately failed: a crash loop past
  /// `max_restarts` (kFailedPrecondition), a checkpoint sink still
  /// failing after every retry (kDataLoss), or an unusable checkpoint on
  /// disk — unreadable (its read error), written with another k, or
  /// holding a cell outside the engine's grid (kFailedPrecondition).
  /// The result then holds the best-so-far answer of the last attempt;
  /// an unusable checkpoint is refused before any mining and left
  /// untouched.
  Status status;
  /// True iff the run started by resuming `checkpoint_path`.
  bool resumed_from_checkpoint = false;
  /// Mining attempts that threw and were restarted from the last good
  /// checkpoint.
  int restarts = 0;
  /// Checkpoint write attempts: total, the subset that failed, and
  /// deliveries that needed at least one retry.
  int64_t sink_attempts = 0;
  int64_t sink_attempt_failures = 0;
  int64_t sink_deliveries_retried = 0;
  /// Cumulative backoff the sink retries asked for (what `sleep_fn`
  /// received).
  double backoff_ms_total = 0.0;
  /// Flight-record artifacts written for this run (crash/restart and
  /// non-clean-stop dumps), in the order they were produced.
  std::vector<std::string> flight_records;
};

/// Crash-safe checkpoint supervision around `MineTrajPatterns`:
///
///  - every iteration-boundary checkpoint is persisted to
///    `checkpoint_path` with retry + exponential backoff, so a transient
///    sink failure (injectable via `FaultSchedule`) never kills the run;
///  - if the mining run throws (worker-task exception surfaced by the
///    pool, arena allocation failure, ...), the supervisor resumes it
///    from the last good checkpoint — the file if readable, else its
///    in-memory copy — up to `max_restarts` times;
///  - a pre-existing `checkpoint_path` is resumed on startup, which is
///    the crash-recovery path across process lifetimes.
///
/// Because the miner's checkpoint/resume contract is bit-identical, a
/// supervised run that crashed and resumed any number of times returns
/// the same top-k as an uninterrupted run, at any thread count.
class MiningSupervisor {
 public:
  /// `engine` must outlive the supervisor.
  MiningSupervisor(const NmEngine* engine, SupervisorOptions options);

  /// Runs the supervised mining to completion (or to its run-control
  /// stop), restarting on crashes per the options.
  SupervisorReport Run();

 private:
  /// Delivers one checkpoint with retry/backoff.  Updates the report
  /// counters and `last_good_`; returns false when every attempt failed
  /// (the sink is declared dead and the run stops with kSinkVeto).
  bool DeliverCheckpoint(const MinerCheckpoint& cp, SupervisorReport* report);

  const NmEngine* engine_;
  SupervisorOptions options_;
  /// In-memory copy of the last successfully persisted checkpoint; the
  /// resume source when the file cannot be read back after a crash.
  std::optional<MinerCheckpoint> last_good_;
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_SERVER_MINING_SUPERVISOR_H_
