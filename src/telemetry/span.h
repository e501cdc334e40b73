#ifndef WAVEBATCH_TELEMETRY_SPAN_H_
#define WAVEBATCH_TELEMETRY_SPAN_H_

#include <chrono>

#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace wavebatch::telemetry {

/// RAII evaluation span: times the enclosing scope on the wall clock and
/// records it into the process registry's span buffer on destruction.
/// Every span carries an explicit parent: the thread's innermost live span
/// at construction — which, right after a ScopedTraceContext install, is
/// the *originating* thread's span (the cross-thread link ThreadPool
/// captures at Submit). Spans also inherit the installed context's
/// trace/request ids, so each one is attributable to the request it served.
///
/// The canonical instrumentation points use fixed names:
///   plan_build         — EvalPlan::Build (rewrite + importances + orders)
///   plan_cache_lookup  — PlanCache::GetOrBuild (contains plan_build on miss)
///   session_step       — EvalSession step of two or more entries
///   store_fetch_batch  — counted read of two or more keys (emitted by
///                        CoefficientStore's wrapper with the latency
///                        histogram; one-key reads are not timed)
///   shard_subbatch     — ShardedStore per-shard scatter-gather leg
///   request_quantum    — QueryService scheduler quantum (prefetch + step)
///
/// When the registry is disabled the constructor reads one relaxed flag and
/// the span never touches a clock, an id counter, or thread state.
class ScopedSpan {
 public:
  /// `name` must have static storage duration (pass a string literal).
  explicit ScopedSpan(const char* name) {
    if (Enabled()) {
      name_ = name;
      span_id_ = NewSpanId();
      parent_span_id_ = internal::t_trace.current_span_id;
      internal::t_trace.current_span_id = span_id_;
      begin_ = std::chrono::steady_clock::now();
    }
  }

  /// Attaches one numeric attribute (`key` must have static storage
  /// duration). At most SpanEvent::kMaxAttrs stick; extras are dropped.
  /// No-op on a disabled span.
  void AddAttr(const char* key, double value) {
    if (name_ != nullptr && num_attrs_ < SpanEvent::kMaxAttrs) {
      attrs_[num_attrs_++] = SpanAttr{key, value};
    }
  }

  ~ScopedSpan() {
    if (name_ != nullptr) {
      internal::t_trace.current_span_id = parent_span_id_;
      MetricsRegistry::Default().RecordSpanWithIds(
          name_, begin_, std::chrono::steady_clock::now(), span_id_,
          parent_span_id_, attrs_, num_attrs_);
    }
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  const char* name_ = nullptr;
  uint64_t span_id_ = 0;
  uint64_t parent_span_id_ = 0;
  SpanAttr attrs_[SpanEvent::kMaxAttrs] = {};
  uint32_t num_attrs_ = 0;
  std::chrono::steady_clock::time_point begin_{};
};

}  // namespace wavebatch::telemetry

#endif  // WAVEBATCH_TELEMETRY_SPAN_H_
