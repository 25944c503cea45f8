#ifndef TRAJPATTERN_COMMON_RUN_CONTEXT_H_
#define TRAJPATTERN_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

namespace trajpattern {

/// Why a mining run stopped before reaching its natural fixpoint.  Every
/// miner (TrajPattern, PB, match/Apriori) reports early stops through
/// this one vocabulary (in `MiningCounters::stop_reason`), so benches,
/// the oracle, and the supervisor treat all of them uniformly.
enum class StopReason {
  /// Ran to completion (convergence or exhausted search space).
  kNone = 0,
  /// The checkpoint sink returned false (a deliberate caller stop).
  kSinkVeto,
  /// The run's cooperative cancellation token was tripped.
  kCancelled,
  /// The wall-clock deadline passed.
  kDeadlineExceeded,
  /// The memory budget could not be met even after shedding cached
  /// factor vectors and shrinking the scoring batches.
  kMemoryBudgetExceeded,
  /// Allocating factor vectors failed at the allocator (std::bad_alloc,
  /// or an injected allocation fault).
  kAllocFailed,
  /// A configured work cap fired (e.g. the PB baseline's
  /// `max_expanded_prefixes`).
  kWorkCap,
};

inline const char* StopReasonName(StopReason r) {
  switch (r) {
    case StopReason::kNone: return "none";
    case StopReason::kSinkVeto: return "sink_veto";
    case StopReason::kCancelled: return "cancelled";
    case StopReason::kDeadlineExceeded: return "deadline_exceeded";
    case StopReason::kMemoryBudgetExceeded: return "memory_budget_exceeded";
    case StopReason::kAllocFailed: return "alloc_failed";
    case StopReason::kWorkCap: return "work_cap";
  }
  return "unknown";
}

/// Cooperative cancellation handle.  Copies share one flag: the caller
/// keeps a copy, hands another to the run (inside `RunContext`), and may
/// call `Cancel()` from any thread at any time.  Scoring workers poll
/// `cancelled()` (one relaxed atomic load) before claiming each work
/// item, so a cancel takes effect mid-batch, not just at the next batch
/// boundary.
class CancellationToken {
 public:
  CancellationToken() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation.  Idempotent, thread-safe, never blocks.
  void Cancel() const { flag_->store(true, std::memory_order_relaxed); }

  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// Run-control contract carried through the whole mining stack: a
/// cooperative cancellation token, an optional wall-clock deadline, and
/// an optional memory budget for the engine's factor cache.  A
/// default-constructed context never stops anything, so threading it
/// through unconditionally costs one atomic load per poll.
///
/// Semantics when a stop fires (see DESIGN.md §4h):
///  - The in-flight batch's results are discarded; the miner returns the
///    exact best-so-far top-k as of the last completed batch, with the
///    typed reason in `stats.stop_reason` and `stats.aborted` set.
///  - The last checkpoint the sink received (always an iteration
///    boundary) stays the valid resume point; resuming from it
///    reproduces the uninterrupted run's answer bit-identically.
///  - The memory budget bounds the engine's factor-cache bytes: the batch
///    API splits a batch into chunks whose factor vectors fit, each
///    chunk's warm-up frees the lowest-id vectors the chunk does not
///    need, and only a pattern whose own vectors do not fit gives up with
///    `kMemoryBudgetExceeded`.
struct RunContext {
  using Clock = std::chrono::steady_clock;

  /// Shared cancellation flag; keep a copy to cancel from outside.
  CancellationToken token;

  /// Wall-clock deadline (checked only when `has_deadline`).
  bool has_deadline = false;
  Clock::time_point deadline{};

  /// Upper bound on the engine's factor-cache bytes (0 = unlimited).
  uint64_t memory_budget_bytes = 0;

  /// Arms the deadline `ms` milliseconds from now.
  void SetDeadlineAfterMillis(double ms) {
    has_deadline = true;
    deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double, std::milli>(ms));
  }

  /// The stop this context currently demands: cancellation wins over
  /// deadline; memory-budget stops are reported by the engine (which
  /// owns the factor-cache accounting), never from here.
  StopReason CheckStop() const {
    if (token.cancelled()) return StopReason::kCancelled;
    if (has_deadline && Clock::now() >= deadline) {
      return StopReason::kDeadlineExceeded;
    }
    return StopReason::kNone;
  }

  /// Cheap poll for worker claim loops.
  bool StopRequested() const { return CheckStop() != StopReason::kNone; }
};

}  // namespace trajpattern

#endif  // TRAJPATTERN_COMMON_RUN_CONTEXT_H_
