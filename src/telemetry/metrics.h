#ifndef WAVEBATCH_TELEMETRY_METRICS_H_
#define WAVEBATCH_TELEMETRY_METRICS_H_

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace wavebatch::telemetry {

/// Label set attached to a metric: (name, value) pairs, canonicalized
/// (sorted by name) at registration so {a,b} and {b,a} are one time series.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace internal {
/// Process-wide recording switch. Relaxed: telemetry is advisory state, a
/// racing Disable() may lose a handful of events, never corrupt them.
inline std::atomic<bool> g_enabled{true};
}  // namespace internal

/// True when the process records telemetry. This is THE hot-path guard:
/// every instrumentation site checks it before touching a clock, a handle,
/// or the span buffer, so a disabled registry costs one relaxed load per
/// event.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

/// Monotone event count. One relaxed atomic add per event; reads are
/// relaxed too (export is a statistical snapshot, not a barrier).
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (Enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, live sessions, buffer
/// occupancy). Set is a relaxed store; Add is a CAS loop
/// (std::atomic<double>::fetch_add is not guaranteed lock-free everywhere).
class Gauge {
 public:
  void Set(double v) {
    if (Enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void Add(double delta) {
    if (!Enabled()) return;
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void ResetForTest() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-scale (power-of-two) histogram of non-negative integer samples —
/// built for latencies in nanoseconds, where interesting values span nine
/// orders of magnitude and fixed linear buckets are useless. Bucket i
/// counts samples v with 2^(i-1) < v <= 2^i (bucket 0: v <= 1); everything
/// above 2^42 (~73 min in ns) lands in the overflow (+Inf) bucket. One
/// bucket add + sum add + count add per observation, all relaxed.
class Histogram {
 public:
  /// Finite buckets 0..kFiniteBuckets-1 with upper bound 2^i, plus +Inf.
  static constexpr size_t kFiniteBuckets = 43;
  static constexpr size_t kNumBuckets = kFiniteBuckets + 1;

  static size_t BucketIndex(uint64_t v) {
    if (v <= 1) return 0;
    const size_t idx = static_cast<size_t>(std::bit_width(v - 1));
    return idx < kFiniteBuckets ? idx : kFiniteBuckets;
  }
  /// Inclusive upper bound of finite bucket i (2^i).
  static uint64_t BucketUpperBound(size_t i) { return uint64_t{1} << i; }

  void Observe(uint64_t v) {
    if (!Enabled()) return;
    buckets_[BucketIndex(v)].fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t BucketCount(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  void ResetForTest() {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> buckets_[kNumBuckets] = {};
  std::atomic<uint64_t> sum_{0};
  std::atomic<uint64_t> count_{0};
};

enum class MetricType { kCounter, kGauge, kHistogram };

/// Read-only copy of one metric, taken under the registry lock (values are
/// relaxed reads — concurrent writers may be mid-update, which is fine for
/// monitoring). The exporters consume these.
struct MetricSnapshot {
  MetricType type;
  std::string name;
  std::string help;
  Labels labels;
  uint64_t counter_value = 0;
  double gauge_value = 0.0;
  std::vector<uint64_t> hist_buckets;  // non-cumulative, kNumBuckets entries
  uint64_t hist_sum = 0;
  uint64_t hist_count = 0;
};

/// One structured span attribute: a static-storage key and a numeric value
/// (key counts, epochs, bound values — everything the span sites
/// attach is a number, which keeps SpanEvent POD and the record path free
/// of allocation).
struct SpanAttr {
  const char* key;  // static-storage string supplied by the caller
  double value;
};

/// One completed evaluation span. Spans on the same thread nest by
/// containment of [ts_us, ts_us + dur_us); across threads, parent_span_id
/// carries the explicit link (captured at the ThreadPool hand-off), which
/// the Chrome exporter renders as flow arrows. request_id is the request
/// attribution stamped from the thread's installed TraceContext (0 =
/// recorded outside any request).
struct SpanEvent {
  const char* name;  // static-storage string supplied by the caller
  uint32_t tid;      // small per-thread ordinal, stable for a thread's life
  double ts_us;      // microseconds since the process telemetry epoch
  double dur_us;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 = root
  uint64_t request_id = 0;
  static constexpr uint32_t kMaxAttrs = 4;
  SpanAttr attrs[kMaxAttrs] = {};
  uint32_t num_attrs = 0;
};

/// Process-wide metric and span store. Registration (GetCounter/GetGauge/
/// GetHistogram) is the cold path: a mutex-guarded map lookup returning a
/// stable handle pointer the caller may keep for the life of the process;
/// every series lives that long, so the set of series the export holds
/// depends on what ran, never on what is alive at the moment. The hot path
/// is entirely on the handles (relaxed atomics) and the span buffer (one
/// short critical section per completed span).
///
/// Overhead contract (per event):
///   - registry disabled (`MetricsRegistry::Disable()`): one relaxed load;
///   - counter/gauge enabled: one relaxed atomic add/store;
///   - histogram enabled: three relaxed adds;
///   - span enabled: two steady_clock reads + one mutex push (bounded
///     buffer; overflow increments dropped_spans() instead of growing).
class MetricsRegistry {
 public:
  /// The process registry. All library instrumentation records here.
  static MetricsRegistry& Default();

  /// Returns the counter registered under (name, labels), creating it on
  /// first use. The returned handle lives for the process: no series is
  /// ever unregistered. Asks for the same name with a different type abort:
  /// a metric name has exactly one type.
  Counter* GetCounter(std::string name, Labels labels = {},
                      std::string help = "");
  Gauge* GetGauge(std::string name, Labels labels = {}, std::string help = "");
  Histogram* GetHistogram(std::string name, Labels labels = {},
                          std::string help = "");

  /// Process-wide recording switch (see Enabled()). Disable() is the
  /// runtime null path: handles stay valid, events become no-ops.
  static void Disable() {
    internal::g_enabled.store(false, std::memory_order_relaxed);
  }
  static void Enable() {
    internal::g_enabled.store(true, std::memory_order_relaxed);
  }

  /// Zeroes every registered value and clears the span buffer without
  /// invalidating any handle. Test isolation only.
  void ResetValues();

  /// Records a completed span. `name` must have static storage duration
  /// (instrumentation sites pass string literals); the same goes for every
  /// attr key. A fresh span id is allocated and the span is parented under
  /// the thread's innermost live span (and stamped with the installed
  /// TraceContext's request id). Thread-safe; when the buffer is
  /// full the span is dropped and counted instead (accessor AND the
  /// wavebatch_telemetry_dropped_spans_total counter).
  void RecordSpan(const char* name, std::chrono::steady_clock::time_point begin,
                  std::chrono::steady_clock::time_point end,
                  std::initializer_list<SpanAttr> attrs = {});

  /// RecordSpan for callers that allocated their span id up front
  /// (ScopedSpan does, so nested spans can parent under it while it is
  /// still open). The request id still comes from the thread's installed
  /// context. Attrs beyond SpanEvent::kMaxAttrs are dropped silently.
  void RecordSpanWithIds(const char* name,
                         std::chrono::steady_clock::time_point begin,
                         std::chrono::steady_clock::time_point end,
                         uint64_t span_id, uint64_t parent_span_id,
                         const SpanAttr* attrs, uint32_t num_attrs);

  /// Snapshot of the span buffer (oldest first).
  std::vector<SpanEvent> Spans() const;
  uint64_t dropped_spans() const {
    return dropped_spans_.load(std::memory_order_relaxed);
  }
  /// Buffer capacity in spans (default 1<<18). Shrinking does not discard
  /// already-recorded spans.
  void SetSpanCapacity(size_t capacity);

  /// Stable-ordered copy of every registered metric (sorted by name, then
  /// labels — families come out contiguous, which the Prometheus exporter
  /// relies on).
  std::vector<MetricSnapshot> Snapshot() const;

  size_t NumMetrics() const;

 private:
  struct Metric;

  Metric* GetOrCreate(MetricType type, std::string name, Labels labels,
                      std::string help);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Metric>> metrics_;

  mutable std::mutex span_mu_;
  std::vector<SpanEvent> spans_;
  size_t span_capacity_ = size_t{1} << 18;
  std::atomic<uint64_t> dropped_spans_{0};
  /// Prometheus mirror of dropped_spans_, bound lazily on the first span
  /// (GetCounter takes mu_, which must never be acquired under span_mu_).
  std::atomic<Counter*> dropped_spans_counter_{nullptr};
};

}  // namespace wavebatch::telemetry

#endif  // WAVEBATCH_TELEMETRY_METRICS_H_
