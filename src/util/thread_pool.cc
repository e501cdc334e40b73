#include "util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "telemetry/metrics.h"
#include "util/check.h"

namespace wavebatch {

namespace {

/// Aggregated over every pool in the process (normally only
/// ThreadPool::Shared()).
telemetry::Gauge& QueueDepth() {
  static telemetry::Gauge* gauge =
      telemetry::MetricsRegistry::Default().GetGauge(
          "wavebatch_thread_pool_queue_depth", {},
          "Tasks submitted but not yet picked up by a worker.");
  return *gauge;
}

telemetry::Counter& TasksExecuted() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Default().GetCounter(
          "wavebatch_thread_pool_tasks_total", {},
          "Tasks dequeued and executed by pool workers.");
  return *counter;
}

telemetry::Counter& TaskExceptions() {
  static telemetry::Counter* counter =
      telemetry::MetricsRegistry::Default().GetCounter(
          "wavebatch_thread_pool_task_exceptions_total", {},
          "Tasks that terminated by throwing (caught by the worker).");
  return *counter;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  WB_CHECK(task != nullptr);
  Enqueue(std::move(task), /*owner=*/nullptr);
}

void ThreadPool::Enqueue(std::function<void()> fn, const void* owner) {
  Task queued;
  queued.fn = std::move(fn);
  queued.owner = owner;
  if (telemetry::Enabled()) {
    queued.ctx = telemetry::CurrentTraceContext();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    WB_CHECK(!stopping_) << "Submit() on a stopping ThreadPool";
    queue_.push_back(std::move(queued));
  }
  QueueDepth().Add(1.0);
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // The gauge/counter accounting pairs with Enqueue()'s increment, once
    // per dequeued task whether the task returns or throws (ParallelFor
    // takes back the increments of the helpers it withdraws). The gauge is
    // for export only: each side checks Enabled() on its own, so a task
    // that crosses a Disable/Enable toggle leaves it off by one.
    QueueDepth().Add(-1.0);
    TasksExecuted().Add();
    // A throwing task must not take the worker thread down with it (an
    // uncaught exception on a thread is std::terminate): the pool is shared
    // process-wide infrastructure, and one bad task would silently shrink
    // it for every later caller. The exception is counted and dropped;
    // tasks that need their error observed return it through their own
    // channel (ParallelFor rethrows on the calling thread).
    try {
      if (task.ctx.active()) {
        // Run under the submitter's trace identity so spans recorded by
        // the task parent under the submitting thread's span — NOT under
        // whatever was live on this worker before.
        telemetry::ScopedTraceContext guard(task.ctx);
        task.fn();
      } else {
        task.fn();
      }
    } catch (...) {
      TaskExceptions().Add();
    }
  }
}

void ThreadPool::ParallelFor(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  // Inline fast path: a range that fits one chunk never touches the queue
  // (an enqueue + wake costs ~µs — more than the whole range is worth).
  if (n <= grain) {
    fn(0, n);
    return;
  }
  const size_t num_chunks = (n + grain - 1) / grain;

  // Work-sharing: helpers and the caller all pull chunk indices from one
  // atomic counter; the caller then waits for the last chunk to finish.
  struct State {
    std::atomic<size_t> next{0};
    std::atomic<size_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first chunk exception; guarded by mu
  };
  auto state = std::make_shared<State>();
  auto run_chunks = [state, n, grain, num_chunks, &fn] {
    for (;;) {
      const size_t chunk = state->next.fetch_add(1);
      if (chunk >= num_chunks) return;
      const size_t begin = chunk * grain;
      // A throwing fn must still count its chunk as done: the caller blocks
      // on done == num_chunks, and a lost increment would deadlock it (and
      // leave `fn`, captured by reference in the helpers, dangling). The
      // first exception is kept and rethrown on the calling thread once
      // every chunk has finished; later chunks still run.
      try {
        fn(begin, std::min(n, begin + grain));
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (state->error == nullptr) state->error = std::current_exception();
      }
      if (state->done.fetch_add(1) + 1 == num_chunks) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  const size_t helpers = std::min(workers_.size(), num_chunks - 1);
  for (size_t i = 0; i < helpers; ++i) {
    // The lambda copies the shared state but captures `fn` by reference:
    // safe because the caller blocks below until all chunks are done.
    Enqueue([run_chunks] { run_chunks(); }, state.get());
  }
  run_chunks();
  // Every chunk is claimed, so a helper no worker has started would only
  // wake one to find nothing left: take it back off the queue. A helper a
  // worker has already dequeued still runs and finds no chunk.
  size_t withdrawn = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    withdrawn = std::erase_if(queue_, [owner = state.get()](const Task& t) {
      return t.owner == owner;
    });
  }
  QueueDepth().Add(-static_cast<double>(withdrawn));
  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock,
                 [&] { return state->done.load() == num_chunks; });
  if (state->error != nullptr) std::rethrow_exception(state->error);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool();
  return *pool;
}

}  // namespace wavebatch
