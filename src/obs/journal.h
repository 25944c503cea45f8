#ifndef TRAJPATTERN_OBS_JOURNAL_H_
#define TRAJPATTERN_OBS_JOURNAL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <limits>
#include <mutex>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/status.h"

namespace trajpattern::obs {

/// What happened at a mining-run boundary.  One vocabulary for the
/// miner and the supervisor, so a journal replay reconstructs any run's
/// ω-convergence time series.
enum class JournalEventType {
  /// A mining run began (fields: run_id, k, detail notes a resume).
  kRunStarted,
  /// A grow-iteration boundary committed: iteration, ω, cumulative
  /// evaluated/pruned, frontier depth.
  kRoundCommitted,
  /// The threshold ω strictly increased.
  kOmegaTightened,
  /// A checkpoint was delivered to the sink at this boundary.
  kCheckpointWritten,
  /// The engine shed factor vectors to honor a memory budget.
  kCellsEvicted,
  /// The run ended; `stop_reason` is "none" for a clean finish.
  kRunStopped,
  /// The supervisor restarted a crashed attempt (detail = what()).
  kSupervisorRestart,
  /// A crash flight record was written (detail = its path).
  kFlightDump,
};

const char* JournalEventTypeName(JournalEventType t);

/// One journal record.  Negative / NaN sentinel values mean "absent" and
/// are omitted from the serialized line, so every event type shares this
/// one struct without bloating the JSONL.
struct JournalEvent {
  JournalEventType type = JournalEventType::kRoundCommitted;
  int64_t run_id = 0;
  int iteration = -1;
  double omega = std::numeric_limits<double>::quiet_NaN();
  int64_t candidates_evaluated = -1;
  int64_t candidates_pruned = -1;
  int64_t frontier_depth = -1;
  int64_t cells_evicted = -1;
  int k = -1;
  /// `StopReasonName` string for kRunStopped (nullptr = absent).
  const char* stop_reason = nullptr;
  /// Free-form context (exception text, artifact path); JSON-escaped.
  std::string detail;
};

/// Point-in-time view of one (possibly finished) run, as the journal's
/// run table knows it — what `/runz` serializes.
struct RunSnapshot {
  int64_t run_id = 0;
  bool active = false;
  int k = 0;
  bool resumed = false;
  int iteration = 0;
  double omega = -std::numeric_limits<double>::infinity();
  int64_t candidates_evaluated = 0;
  int64_t candidates_pruned = 0;
  int64_t frontier_depth = 0;
  int64_t cells_evicted = 0;
  uint64_t last_seq = 0;
  /// Milliseconds since the run started (steady clock).
  double age_ms = 0.0;
  /// Milliseconds since the last checkpoint delivery (-1 = never).
  double checkpoint_age_ms = -1.0;
  const char* stop_reason = "none";
};

/// Serializes one run-table entry as a JSON object (shared by the
/// status server's `/runz` and the crash flight recorder).
void AppendRunSnapshotJson(const RunSnapshot& s, std::string* out);

/// Appends `s` as a quoted JSON string: `"` and `\` escaped, newline and
/// tab as `\n` and `\t`, other control bytes as `\u00XX`.  The one JSON
/// string escaper: the journal lines, the crash flight recorder, the
/// metrics exporters and the benches' `JsonWriter` all use it.
void AppendEscaped(const std::string& s, std::string* out);

/// Result of replaying a journal file from disk.
struct JournalReplay {
  /// The structurally valid JSONL event lines, in file order.
  std::vector<std::string> lines;
  /// Trailing lines dropped because a crash chopped the final append
  /// (no terminating newline, or a structurally broken JSON object).
  size_t torn_tail_lines = 0;
};

/// Reads a run-journal JSONL file back for replay.
///
/// The journal is appended with one fflush per event, so a crash can
/// leave at most the final line torn (partially written).  A torn *tail*
/// is therefore expected evidence, not corruption: it is skipped and
/// counted in `torn_tail_lines`.  A broken line anywhere *before* the
/// tail cannot come from a crashed append and is reported as kDataLoss.
/// Missing file is kNotFound.
Status ReplayJournalFile(const std::string& path, JournalReplay* out);

/// Append-only JSONL event stream of mining-run lifecycles, with an
/// in-memory tail ring (the crash flight recorder's event source) and a
/// live run table (the status server's `/runz` source).
///
/// Every emitted event gets a process-wide monotonic sequence number and
/// a steady-clock timestamp, so a replay reconstructs the exact ω
/// time series even across interleaved runs.  Events are emitted only at
/// batch/iteration boundaries — a handful per run — so the journal stays
/// on regardless of the TRAJPATTERN_OBS setting; when nothing enabled it
/// (`active()` false, the default) every call is one relaxed atomic load.
///
/// Thread-safe: emitters from any thread; the file write holds the
/// journal mutex, and each line is flushed immediately so a crash leaves
/// the journal complete up to its last boundary.
class RunJournal {
 public:
  static RunJournal& Global();

  RunJournal() = default;
  RunJournal(const RunJournal&) = delete;
  RunJournal& operator=(const RunJournal&) = delete;

  /// Starts streaming events to `path` (truncating it) and activates the
  /// journal.  False on I/O failure (the journal stays inactive).
  bool Open(const std::string& path);
  /// Flushes and closes the file.  Live tracking (run table + tail ring)
  /// stays on if `EnableLiveTracking` was called separately.
  void Close();

  /// Activates the run table and tail ring without a file — what the
  /// status server and flight recorder need when no JSONL was requested.
  void EnableLiveTracking();

  /// True iff events are being recorded (file open or live tracking on).
  bool active() const { return active_.load(std::memory_order_relaxed); }

  /// Events the tail ring retains for flight records.
  static constexpr size_t kRingCapacity = 256;

  /// Registers a run and emits its kRunStarted event.  Returns the run
  /// id to stamp into subsequent events — 0 when the journal is inactive
  /// (emissions are then no-ops, so callers never branch).
  int64_t BeginRun(int k, bool resumed);

  /// Appends one event: sequence number and timestamp are assigned here,
  /// the line lands in the file (if open) and the tail ring, and the run
  /// table entry for `e.run_id` is updated.  No-op when inactive.
  void Emit(const JournalEvent& e);

  /// The newest `max_lines` serialized events, oldest first.
  std::vector<std::string> TailLines(size_t max_lines) const;

  /// Every retained run, oldest first (active runs are always retained;
  /// finished runs are kept until pushed out by newer ones).
  std::vector<RunSnapshot> Runs() const;

  /// Events emitted since process start (== the last sequence number).
  uint64_t events_emitted() const;

  /// The open JSONL path ("" when not streaming to a file).
  std::string path() const;

 private:
  struct RunState {
    RunSnapshot snap;
    std::chrono::steady_clock::time_point started;
    std::chrono::steady_clock::time_point last_checkpoint;
    bool has_checkpoint = false;
  };

  /// Serializes `e` (with `seq`/`ts_ms` stamped) as one JSON line.
  std::string FormatLine(const JournalEvent& e, uint64_t seq,
                         double ts_ms) const;
  RunState* FindRun(int64_t run_id);

  mutable std::mutex mu_;
  std::atomic<bool> active_{false};
  bool live_tracking_ = false;
  std::FILE* out_ = nullptr;
  std::string path_;
  uint64_t seq_ = 0;
  int64_t next_run_id_ = 1;
  std::deque<std::string> ring_;
  /// Oldest-first; active runs never evicted, finished runs capped.
  std::deque<RunState> runs_;
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
};

}  // namespace trajpattern::obs

#endif  // TRAJPATTERN_OBS_JOURNAL_H_
