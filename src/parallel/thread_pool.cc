#include "parallel/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <utility>

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

ThreadPool::ThreadPool(int num_threads) {
  const int n = ResolveThreadCount(num_threads);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::exception_ptr rethrow;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
    // Take the round's first failure out under the lock and rethrow it
    // outside; clearing re-arms the pool for the next round.
    rethrow = std::exchange(first_exception_, nullptr);
  }
  if (rethrow) std::rethrow_exception(rethrow);
}

void ThreadPool::WorkerLoop() {
  NameWorkerThread();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      task = std::move(queue_.front());
      queue_.pop();
    }
    {
      TP_TRACE_SPAN("pool/task");
      TP_COUNTER_INC("pool.tasks_executed");
      // A throwing task must not unwind the worker thread
      // (std::terminate); capture the round's first exception for Wait()
      // to rethrow on the submitting thread.
      try {
        task();
      } catch (...) {
        TP_COUNTER_INC("pool.task_exceptions");
        std::lock_guard<std::mutex> lock(mu_);
        if (!first_exception_) first_exception_ = std::current_exception();
      }
    }
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) idle_cv_.notify_all();
    }
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
  const int lanes =
      static_cast<int>(std::min(n, static_cast<size_t>(pool->size())));
  std::atomic<size_t> next{0};
  // Lane failure: the first exception is kept, and `failed` stops every
  // lane's claim loop so the batch drains quickly instead of running the
  // remaining items for a result the caller will discard.
  std::atomic<bool> failed{false};
  std::exception_ptr first_exception;
  // Per-call completion latch: ParallelFor must not return while a lane
  // still holds references to the caller's stack.
  std::mutex mu;
  std::condition_variable done_cv;
  int done = 0;
  for (int w = 0; w < lanes; ++w) {
    pool->Submit([&, w] {
      try {
        for (size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
          // Cooperative cancellation: poll before claiming, so a cancel
          // or deadline takes effect mid-batch; the claimed item itself
          // always runs to completion (all-or-nothing per item).
          if (failed.load(std::memory_order_relaxed)) break;
          if (run != nullptr && run->StopRequested()) break;
          fn(i, w);
        }
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_exception) first_exception = std::current_exception();
        failed.store(true, std::memory_order_relaxed);
      }
      std::lock_guard<std::mutex> lock(mu);
      if (++done == lanes) done_cv.notify_one();
    });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    done_cv.wait(lock, [&] { return done == lanes; });
  }
  if (first_exception) std::rethrow_exception(first_exception);
}

}  // namespace trajpattern
