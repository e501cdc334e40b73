#ifndef WAVEBATCH_TELEMETRY_TRACE_H_
#define WAVEBATCH_TELEMETRY_TRACE_H_

#include <atomic>
#include <cstdint>

namespace wavebatch::telemetry {

/// Request-scoped trace identity, minted once per served request (at
/// QueryService::Submit) and propagated explicitly across every asynchrony
/// seam a request crosses: scheduler quanta and thread-pool task hand-offs.
/// A span recorded while a context is installed carries the context's
/// request id, so one request renders as a connected lane across threads
/// even though its work interleaves with every other tenant's.
///
/// Request ids are process-unique monotonic counters, never 0 (0 everywhere
/// means "no request" — the zero-initialized default).
struct TraceContext {
  uint64_t request_id = 0;
  /// Span on the *originating* thread to parent the receiver's spans under
  /// — the cross-thread link. 0 = receiver's spans are roots.
  uint64_t parent_span_id = 0;

  /// True when installing this context would change any attribution: either
  /// a request identity or a cross-thread parent link.
  bool active() const { return request_id != 0 || parent_span_id != 0; }
};

namespace internal {

/// Per-thread trace slots read by RecordSpan on every enabled span. Plain
/// thread-locals (no atomics): only the owning thread reads or writes them.
struct ThreadTraceState {
  uint64_t request_id = 0;
  /// Innermost live ScopedSpan on this thread (or the installed context's
  /// parent link when no span is open) — the parent for new spans.
  uint64_t current_span_id = 0;
};
inline thread_local ThreadTraceState t_trace;

inline std::atomic<uint64_t> g_next_span_id{1};
inline std::atomic<uint64_t> g_next_request_id{1};

}  // namespace internal

/// Allocates a process-unique span id (relaxed counter; ids only need to be
/// distinct, not ordered).
inline uint64_t NewSpanId() {
  return internal::g_next_span_id.fetch_add(1, std::memory_order_relaxed);
}

/// Allocates a process-unique request id.
inline uint64_t NewRequestId() {
  return internal::g_next_request_id.fetch_add(1, std::memory_order_relaxed);
}

/// Snapshot of this thread's trace identity for handing work to another
/// thread: the receiver installs it (ScopedTraceContext) and its spans
/// carry this thread's request id with the currently-open span as their
/// cross-thread parent. This is what ThreadPool::Submit captures.
inline TraceContext CurrentTraceContext() {
  return TraceContext{internal::t_trace.request_id,
                      internal::t_trace.current_span_id};
}

/// Innermost live span id on this thread (0 = none). Exposed for tests.
inline uint64_t CurrentSpanId() { return internal::t_trace.current_span_id; }

/// RAII installer: spans recorded on this thread within the scope carry
/// `ctx`'s request id and parent under ctx.parent_span_id (until a nested
/// ScopedSpan deepens the chain). Restores the previous thread state on
/// destruction, so installs nest — a worker that installs a task's context
/// and then hands off again composes naturally.
class ScopedTraceContext {
 public:
  explicit ScopedTraceContext(const TraceContext& ctx)
      : saved_(internal::t_trace) {
    internal::t_trace.request_id = ctx.request_id;
    internal::t_trace.current_span_id = ctx.parent_span_id;
  }
  ~ScopedTraceContext() { internal::t_trace = saved_; }

  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  internal::ThreadTraceState saved_;
};

}  // namespace wavebatch::telemetry

#endif  // WAVEBATCH_TELEMETRY_TRACE_H_
