#ifndef WAVEBATCH_UTIL_THREAD_POOL_H_
#define WAVEBATCH_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/trace.h"

namespace wavebatch {

/// A fixed-size worker pool with a FIFO task queue. Used for plan builds
/// (a batch's query rewrites, one query per chunk, the master-list merge,
/// importances and large biggest-B sorts), the view build's axis passes
/// (the first writes, and so first-touches, the store's fresh array from
/// the workers) and bulk K passes. Deliberately minimal: no futures, no
/// work stealing — callers that need completion tracking use ParallelFor,
/// which is the only blocking primitive.
///
/// All scheduling here is *deterministic in results*: ParallelFor
/// partitions an index range into fixed chunks and each chunk writes only
/// its own outputs, so parallel execution produces bit-identical results
/// to the serial loop regardless of interleaving.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means std::thread::hardware_concurrency
  /// (at least 1). A pool with 1 worker still runs tasks on that worker;
  /// ParallelFor additionally runs chunks on the calling thread.
  explicit ThreadPool(size_t num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Default chunk size for the grain-less ParallelFor overload: large
  /// enough that one chunk amortizes an enqueue + worker wake (~µs) for
  /// the cheap-per-index loops in this codebase (gathers, importance
  /// evaluations), small enough to split across a handful of workers.
  static constexpr size_t kDefaultGrain = 1024;

  /// Enqueues `task` for execution on some worker. Fire-and-forget; use
  /// ParallelFor when completion must be observed. A task that throws does
  /// not kill its worker: the exception is counted
  /// (wavebatch_thread_pool_task_exceptions_total) and dropped, and the
  /// queue-depth/tasks accounting stays balanced either way.
  ///
  /// Tracing: while telemetry is enabled, the submitter's TraceContext
  /// (trace/request ids + innermost live span) is captured with the task
  /// and installed on the worker around its execution, so spans the task
  /// records parent under the *submitting* thread's span instead of
  /// whatever happened to be live on the worker. Disabled: one relaxed
  /// load, no thread state touched.
  void Submit(std::function<void()> task);

  /// Runs fn(begin, end) over a partition of [0, n) into chunks of at most
  /// `grain` indices and blocks until every chunk has finished.
  ///
  /// Ranges that fit a single chunk (n <= grain) run inline on the calling
  /// thread as fn(0, n) — no task is enqueued and no worker is woken, so a
  /// tiny range costs exactly one call. Pick `grain` as "enough work to be
  /// worth one wake": it is both the chunk size and the inline threshold.
  ///
  /// For larger ranges the calling thread participates (it never merely
  /// waits while work remains), so ParallelFor cannot deadlock even when
  /// every worker is busy or the pool is tiny. Chunk boundaries depend only
  /// on (n, grain), never on thread count — results must not depend on
  /// which thread ran a chunk.
  ///
  /// If `fn` throws, every chunk still completes (later chunks run; outputs
  /// are then unspecified) and the FIRST exception is rethrown here on the
  /// calling thread — never on a worker, and never leaving the caller
  /// blocked or `fn` dangling.
  void ParallelFor(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& fn);

  /// ParallelFor with kDefaultGrain.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
    ParallelFor(n, kDefaultGrain, fn);
  }

  /// Process-wide shared pool (sized to the hardware), created on first
  /// use. Library code that wants "parallel if possible" without plumbing
  /// a pool through every signature uses this.
  static ThreadPool& Shared();

 private:
  /// A queued task plus the trace identity of whoever submitted it (the
  /// cross-thread parent link; zero-valued when telemetry was disabled at
  /// submit time).
  struct Task {
    std::function<void()> fn;
    telemetry::TraceContext ctx;
  };

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Runs fn over [0, n): ParallelFor's fixed chunks across `pool` when it is
/// non-null, one inline fn(0, n) otherwise. Either way every index is
/// visited exactly once and each output slot is written by exactly one
/// chunk.
inline void ForRange(ThreadPool* pool, size_t n, size_t grain,
                     const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (pool != nullptr) {
    pool->ParallelFor(n, grain, fn);
  } else {
    fn(0, n);
  }
}

}  // namespace wavebatch

#endif  // WAVEBATCH_UTIL_THREAD_POOL_H_
