#include "server/mining_supervisor.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <exception>
#include <string>
#include <thread>
#include <utility>

#include "io/checkpoint.h"
#include "obs/flight_recorder.h"
#include "obs/journal.h"
#include "obs/obs.h"

namespace trajpattern {

MiningSupervisor::MiningSupervisor(const NmEngine* engine,
                                   SupervisorOptions options)
    : engine_(engine), options_(std::move(options)) {
  assert(!options_.checkpoint_path.empty());
  assert(!options_.miner.checkpoint_sink &&
         "the supervisor owns the checkpoint sink");
  if (!options_.write_fn) {
    options_.write_fn = [](const MinerCheckpoint& cp, const std::string& path) {
      return WriteMinerCheckpointFile(cp, path);
    };
  }
  if (!options_.sleep_fn) {
    options_.sleep_fn = [](double ms) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(ms));
    };
  }
}

bool MiningSupervisor::DeliverCheckpoint(const MinerCheckpoint& cp,
                                         SupervisorReport* report) {
  const int attempts = 1 + std::max(0, options_.checkpoint_retries);
  double backoff = options_.backoff_initial_ms;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff between attempts: transient sink outages
      // (full disk flushing, NFS hiccup, injected fault burst) usually
      // clear within a few doublings.
      report->backoff_ms_total += backoff;
      TP_HISTOGRAM_OBSERVE("supervisor.backoff_ms", backoff,
                           {1, 2, 5, 10, 50, 100, 1000});
      options_.sleep_fn(backoff);
      backoff *= options_.backoff_multiplier;
      if (attempt == 1) {
        ++report->sink_deliveries_retried;
        TP_COUNTER_INC("supervisor.deliveries_retried");
      }
    }
    ++report->sink_attempts;
    TP_COUNTER_INC("supervisor.sink_attempts");
    Status s = options_.sink_faults != nullptr &&
                       options_.sink_faults->ShouldFail()
                   ? Status::DataLoss("injected transient sink failure")
                   : options_.write_fn(cp, options_.checkpoint_path);
    if (s.ok()) {
      last_good_ = cp;
      return true;
    }
    ++report->sink_attempt_failures;
    TP_COUNTER_INC("supervisor.sink_failures");
  }
  return false;
}

SupervisorReport MiningSupervisor::Run() {
  SupervisorReport report;
  TP_TRACE_SPAN("supervisor/run");

  // Post-mortem dumper: no-op when no flight_record_dir is configured
  // (WriteFlightRecord refuses an empty dir).
  auto dump_flight = [this, &report](const char* trigger,
                                     const std::string& detail) {
    const std::string path = obs::WriteFlightRecord(
        options_.flight_record_dir, trigger, detail);
    if (!path.empty()) report.flight_records.push_back(path);
  };

  // Crash recovery across process lifetimes: a checkpoint already on
  // disk is a previous (crashed or stopped) run of this path — resume
  // it.  kNotFound means a fresh start; anything else (truncated,
  // corrupt, wrong version, another k, another grid) is surfaced, never
  // half-loaded or silently clobbered.
  std::optional<MinerCheckpoint> resume;
  {
    MinerCheckpoint cp;
    const Status s = ReadMinerCheckpointFile(options_.checkpoint_path, &cp);
    if (s.ok() && cp.k != options_.miner.k) {
      // The memo of a smaller-k run holds split bounds that lie above
      // the true NM but below that run's ω; a larger top-k would admit
      // them as answers.  Refuse before mining: `Mine(resume)` only
      // asserts this.
      report.status = Status::FailedPrecondition(
          "checkpoint " + options_.checkpoint_path + " has k=" +
          std::to_string(cp.k) + ", run has k=" +
          std::to_string(options_.miner.k));
      return report;
    }
    // A cell past the engine's grid would index past its column slot
    // table.  The reader cannot tell: it does not know the grid.
    const Grid& grid = engine_->space().grid;
    const std::optional<CellId> outside =
        s.ok() ? CheckpointCellOutsideGrid(cp, grid) : std::nullopt;
    if (outside) {
      report.status = Status::FailedPrecondition(
          "checkpoint " + options_.checkpoint_path + " holds cell " +
          std::to_string(*outside) + ", outside the engine's grid of " +
          std::to_string(grid.num_cells()) + " cells");
      return report;
    }
    if (s.ok()) {
      resume = std::move(cp);
      report.resumed_from_checkpoint = true;
      last_good_ = resume;
    } else if (s.code() != StatusCode::kNotFound) {
      report.status = s;
      return report;
    }
  }
  TP_GAUGE_SET("supervisor.resumed_from_checkpoint",
               report.resumed_from_checkpoint ? 1.0 : 0.0);

  MinerOptions opts = options_.miner;
  bool sink_dead = false;
  opts.checkpoint_sink = [this, &report, &sink_dead](const MinerCheckpoint& cp) {
    if (DeliverCheckpoint(cp, &report)) return true;
    // Every attempt failed: stop the run at this (still consistent)
    // boundary rather than mining on without durability.
    sink_dead = true;
    return false;
  };

  for (int attempt = 0;; ++attempt) {
    try {
      report.result = MineTrajPatterns(
          *engine_, opts, resume.has_value() ? &*resume : nullptr);
    } catch (const std::exception& e) {
      // The run itself died — a worker-task exception rethrown by the
      // pool, an allocation failure, an injected crash.  Resume from the
      // last good checkpoint: the file when it reads back, else the
      // in-memory copy of what was last delivered (the file may sit on
      // the same failing medium as the sink).
      TP_COUNTER_INC("supervisor.restarts");
      {
        obs::JournalEvent ev;
        ev.type = obs::JournalEventType::kSupervisorRestart;
        ev.detail = e.what();
        obs::RunJournal::Global().Emit(ev);
      }
      if (attempt >= options_.max_restarts) {
        dump_flight("crash",
                    std::string("beyond max_restarts: ") + e.what());
        report.status = Status::FailedPrecondition(
            std::string("mining crashed beyond max_restarts: ") + e.what());
        return report;
      }
      dump_flight("crash", e.what());
      ++report.restarts;
      MinerCheckpoint cp;
      if (ReadMinerCheckpointFile(options_.checkpoint_path, &cp).ok()) {
        resume = std::move(cp);
      } else if (last_good_.has_value()) {
        resume = last_good_;
      } else {
        resume.reset();  // crashed before any checkpoint: start fresh
      }
      continue;
    }
    break;
  }

  if (sink_dead) {
    report.status = Status::DataLoss(
        "checkpoint sink failed after " +
        std::to_string(1 + std::max(0, options_.checkpoint_retries)) +
        " attempts per delivery; stopped at the last durable boundary");
  }
  // Every non-clean stop — sink veto, cancel, deadline, memory budget,
  // allocation failure, work cap — leaves a post-mortem artifact.
  if (report.result.stats.stop_reason != StopReason::kNone) {
    dump_flight("abort", StopReasonName(report.result.stats.stop_reason));
  }
  return report;
}

}  // namespace trajpattern
