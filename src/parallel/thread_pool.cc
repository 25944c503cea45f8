#include "parallel/thread_pool.h"

#include <atomic>
#include <cstdio>

#if defined(__linux__)
#include <pthread.h>
#endif

#include "obs/obs.h"

namespace trajpattern {
namespace {

/// Names the calling worker thread `trajp-worker-N` with a process-wide
/// dense N, so trace exports, TSan reports, and debuggers show which
/// thread is a pool worker instead of an anonymous TID.  The kernel name
/// is Linux-only (15-char limit incl. the index); the trace-export name
/// is set wherever the obs layer is compiled in.
void NameWorkerThread() {
  // Unsigned, so the index stays in 0..99 and the name in 15 chars.
  static std::atomic<unsigned> next_worker{0};
  char name[16];
  std::snprintf(name, sizeof(name), "trajp-worker-%u",
                next_worker.fetch_add(1, std::memory_order_relaxed) % 100);
#if defined(__linux__)
  pthread_setname_np(pthread_self(), name);
#endif
  TP_TRACE_SET_THREAD_NAME(name);
  (void)name;
}

}  // namespace

int ResolveThreadCount(int num_threads) {
  if (num_threads > 0) return num_threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool(int num_threads)
    : lanes_(ResolveThreadCount(num_threads)),
      start_(lanes_),
      done_(lanes_),
      failures_(static_cast<size_t>(lanes_)) {
  workers_.reserve(static_cast<size_t>(lanes_ - 1));
  try {
    for (int lane = 1; lane < lanes_; ++lane) {
      workers_.emplace_back([this, lane] { WorkerLoop(lane); });
    }
  } catch (...) {
    // Lanes that never started never arrive: drop them, so the started
    // workers can be released and joined before the error propagates.
    for (size_t lane = workers_.size() + 1; lane < failures_.size(); ++lane) {
      start_.arrive_and_drop();
    }
    Stop();
    throw;
  }
}

ThreadPool::~ThreadPool() { Stop(); }

void ThreadPool::Stop() {
  stop_ = true;
  start_.arrive_and_wait();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Run(const std::function<void(int lane)>& fn) {
  fn_ = &fn;
  start_.arrive_and_wait();
  RunLane(0);
  done_.arrive_and_wait();
  std::exception_ptr first;
  for (std::exception_ptr& failure : failures_) {
    if (first == nullptr) first = failure;
    failure = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void ThreadPool::WorkerLoop(int lane) {
  NameWorkerThread();
  for (;;) {
    start_.arrive_and_wait();
    if (stop_) return;
    RunLane(lane);
    done_.arrive_and_wait();
  }
}

void ThreadPool::RunLane(int lane) {
  TP_TRACE_SPAN("pool/task");
  TP_COUNTER_INC("pool.tasks_executed");
  // A throwing lane must not unwind a worker thread (std::terminate) or
  // skip the caller's wait for the others.
  try {
    (*fn_)(lane);
  } catch (...) {
    TP_COUNTER_INC("pool.task_exceptions");
    failures_[static_cast<size_t>(lane)] = std::current_exception();
  }
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t item, int worker)>& fn,
                 const RunContext* run) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (size_t i = 0; i < n; ++i) {
      if (run != nullptr && run->StopRequested()) return;
      fn(i, 0);
    }
    return;
  }
  TP_TRACE_SPAN("pool/parallel_for");
  TP_COUNTER_INC("pool.parallel_for_calls");
  std::atomic<size_t> next{0};
  // Lane failure: `failed` stops every lane's claim loop so the batch
  // drains quickly instead of running the remaining items for a result
  // the caller will discard; `Run` rethrows the exception.
  std::atomic<bool> failed{false};
  pool->Run([&](int lane) {
    try {
      for (size_t i;
           (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
        // Cooperative cancellation: poll before claiming, so a cancel or
        // deadline takes effect mid-batch; the claimed item itself always
        // runs to completion (all-or-nothing per item).
        if (failed.load(std::memory_order_relaxed)) break;
        if (run != nullptr && run->StopRequested()) break;
        fn(i, lane);
      }
    } catch (...) {
      failed.store(true, std::memory_order_relaxed);
      throw;
    }
  });
}

}  // namespace trajpattern
