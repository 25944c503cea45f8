#ifndef TRAJPATTERN_PARALLEL_THREAD_POOL_H_
#define TRAJPATTERN_PARALLEL_THREAD_POOL_H_

#include <barrier>
#include <cstddef>
#include <exception>
#include <functional>
#include <thread>
#include <vector>

#include "common/run_context.h"

namespace trajpattern {

/// Resolves a `num_threads` knob into an actual lane count: 0 means
/// "use the hardware" (`std::thread::hardware_concurrency`, at least 1),
/// any positive value is taken literally.
int ResolveThreadCount(int num_threads);

/// A fork-join group of `size()` lanes.  The thread that calls `Run` is
/// lane 0; lanes 1 .. size() - 1 are worker threads started once by the
/// constructor and parked between calls, so `NmEngine` keeps one group
/// alive across batch-scoring calls and mining iterations pay no thread
/// start-up.  A 1-lane group starts no thread and runs inline.
///
/// `Run` is the group's only operation.  Calls must not overlap, and a
/// lane must not call `Run` on its own group.
class ThreadPool {
 public:
  /// Starts `ResolveThreadCount(num_threads) - 1` worker threads.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Number of lanes, the calling thread included.
  int size() const { return lanes_; }

  /// Calls `fn(lane)` once for every lane in [0, size()), lane 0 on the
  /// calling thread, and returns only after every lane has returned.  A
  /// lane that throws does not stop the others: once all have returned,
  /// the exception of the lowest failing lane is rethrown here and the
  /// others are dropped, so the next call starts clean.
  void Run(const std::function<void(int lane)>& fn);

 private:
  void WorkerLoop(int lane);
  /// Releases the parked workers to return and joins them.
  void Stop();
  /// Runs `fn_` as `lane`, parking an exception in that lane's slot.
  void RunLane(int lane);

  const int lanes_;
  /// Every lane arrives at `start_` before a call and at `done_` after
  /// it; a barrier's phase completion orders the writes of `fn_` and
  /// `stop_` before the workers' reads, and the lanes' writes of
  /// `failures_` before the caller's.
  std::barrier<> start_;
  std::barrier<> done_;
  const std::function<void(int)>* fn_ = nullptr;
  bool stop_ = false;
  /// One slot per lane, written only by that lane during a call.
  std::vector<std::exception_ptr> failures_;
  std::vector<std::thread> workers_;
};

/// Runs `fn(item, worker)` for every `item` in [0, n), the lanes of
/// `pool` claiming items off a shared counter inside one `Run`.
/// `worker` is the claiming lane, a dense id in [0, pool->size()): index
/// per-lane scratch buffers with it.  With a null pool, a 1-lane pool or
/// n <= 1 the loop runs inline on the calling thread (worker 0), which is
/// the exact-serial fallback path.  Blocks until all items are done.
///
/// Cancellation: with a non-null `run`, every lane polls the context
/// before claiming each item (one relaxed atomic load, plus a clock
/// read when a deadline is armed).  Once a stop fires, unclaimed items
/// are never run; claimed items always complete — an item is all or
/// nothing, so the caller can tell exactly which outputs are valid (it
/// usually discards the whole batch).  The serial inline path polls the
/// same way.
///
/// Exceptions: if `fn` throws on any lane, the other lanes stop claiming,
/// every lane is still joined, and the exception is rethrown here on the
/// calling thread.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t item, int worker)>& fn,
                 const RunContext* run = nullptr);

}  // namespace trajpattern

#endif  // TRAJPATTERN_PARALLEL_THREAD_POOL_H_
