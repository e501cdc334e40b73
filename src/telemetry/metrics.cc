#include "telemetry/metrics.h"

#include <algorithm>

#include "telemetry/trace.h"
#include "util/check.h"

namespace wavebatch::telemetry {

namespace {

/// Telemetry epoch: steady-clock origin for span timestamps, fixed at the
/// first span-related call so all threads share one time base.
std::chrono::steady_clock::time_point Epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

uint32_t ThisThreadOrdinal() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tid = next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

/// Canonical map key: name + sorted labels, joined with separators no
/// metric or label text contains by convention (control bytes).
std::string EncodeKey(const std::string& name, const Labels& labels) {
  std::string key = name;
  key += '\x01';
  for (const auto& [k, v] : labels) {
    key += k;
    key += '\x02';
    key += v;
    key += '\x03';
  }
  return key;
}

Labels Canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  return labels;
}

}  // namespace

struct MetricsRegistry::Metric {
  MetricType type;
  std::string name;
  std::string help;
  Labels labels;
  Counter counter;
  Gauge gauge;
  Histogram histogram;
};

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

MetricsRegistry::Metric* MetricsRegistry::GetOrCreate(MetricType type,
                                                      std::string name,
                                                      Labels labels,
                                                      std::string help) {
  WB_CHECK(!name.empty());
  labels = Canonical(std::move(labels));
  const std::string key = EncodeKey(name, labels);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = metrics_.find(key);
  if (it != metrics_.end()) {
    WB_CHECK(it->second->type == type)
        << "metric " << name << " re-registered with a different type";
    return it->second.get();
  }
  // One name = one type and one help text, across all label sets.
  for (const auto& [_, metric] : metrics_) {
    if (metric->name == name) {
      WB_CHECK(metric->type == type)
          << "metric " << name << " re-registered with a different type";
    }
  }
  auto metric = std::make_unique<Metric>();
  metric->type = type;
  metric->name = std::move(name);
  metric->help = std::move(help);
  metric->labels = std::move(labels);
  Metric* raw = metric.get();
  metrics_.emplace(key, std::move(metric));
  return raw;
}

Counter* MetricsRegistry::GetCounter(std::string name, Labels labels,
                                     std::string help) {
  return &GetOrCreate(MetricType::kCounter, std::move(name), std::move(labels),
                      std::move(help))
              ->counter;
}

Gauge* MetricsRegistry::GetGauge(std::string name, Labels labels,
                                 std::string help) {
  return &GetOrCreate(MetricType::kGauge, std::move(name), std::move(labels),
                      std::move(help))
              ->gauge;
}

Histogram* MetricsRegistry::GetHistogram(std::string name, Labels labels,
                                         std::string help) {
  return &GetOrCreate(MetricType::kHistogram, std::move(name),
                      std::move(labels), std::move(help))
              ->histogram;
}

void MetricsRegistry::ResetValues() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [_, metric] : metrics_) {
      metric->counter.ResetForTest();
      metric->gauge.ResetForTest();
      metric->histogram.ResetForTest();
    }
  }
  std::lock_guard<std::mutex> lock(span_mu_);
  spans_.clear();
  dropped_spans_.store(0, std::memory_order_relaxed);
}

void MetricsRegistry::RecordSpan(const char* name,
                                 std::chrono::steady_clock::time_point begin,
                                 std::chrono::steady_clock::time_point end,
                                 std::initializer_list<SpanAttr> attrs) {
  if (!Enabled()) return;
  RecordSpanWithIds(name, begin, end, NewSpanId(),
                    internal::t_trace.current_span_id, attrs.begin(),
                    static_cast<uint32_t>(attrs.size()));
}

void MetricsRegistry::RecordSpanWithIds(
    const char* name, std::chrono::steady_clock::time_point begin,
    std::chrono::steady_clock::time_point end, uint64_t span_id,
    uint64_t parent_span_id, const SpanAttr* attrs, uint32_t num_attrs) {
  if (!Enabled()) return;
  SpanEvent event;
  event.name = name;
  event.tid = ThisThreadOrdinal();
  event.ts_us = std::chrono::duration<double, std::micro>(begin - Epoch())
                    .count();
  event.dur_us = std::chrono::duration<double, std::micro>(end - begin)
                     .count();
  event.span_id = span_id;
  event.parent_span_id = parent_span_id;
  event.request_id = internal::t_trace.request_id;
  event.num_attrs = std::min(num_attrs, SpanEvent::kMaxAttrs);
  for (uint32_t i = 0; i < event.num_attrs; ++i) event.attrs[i] = attrs[i];
  // Bind the overflow counter BEFORE span_mu_: GetCounter takes mu_, and
  // the registry's lock order is mu_ -> span_mu_, never the reverse.
  Counter* dropped_counter =
      dropped_spans_counter_.load(std::memory_order_acquire);
  if (dropped_counter == nullptr) {
    dropped_counter = GetCounter(
        "wavebatch_telemetry_dropped_spans_total", {},
        "Spans dropped because the bounded span buffer was full.");
    dropped_spans_counter_.store(dropped_counter, std::memory_order_release);
  }
  std::lock_guard<std::mutex> lock(span_mu_);
  if (spans_.size() >= span_capacity_) {
    dropped_spans_.fetch_add(1, std::memory_order_relaxed);
    dropped_counter->Add();
    return;
  }
  // First push reserves a bounded chunk so the hot path never eats a large
  // realloc copy; later doubling is amortized and stops at capacity.
  if (spans_.capacity() == 0) {
    spans_.reserve(std::min<size_t>(span_capacity_, 8192));
  }
  spans_.push_back(event);
}

std::vector<SpanEvent> MetricsRegistry::Spans() const {
  std::lock_guard<std::mutex> lock(span_mu_);
  return spans_;
}

void MetricsRegistry::SetSpanCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(span_mu_);
  span_capacity_ = capacity;
}

std::vector<MetricSnapshot> MetricsRegistry::Snapshot() const {
  std::vector<MetricSnapshot> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(metrics_.size());
  // metrics_ is keyed by name + canonical labels, so iteration order is
  // already sorted by family.
  for (const auto& [_, metric] : metrics_) {
    MetricSnapshot snap;
    snap.type = metric->type;
    snap.name = metric->name;
    snap.help = metric->help;
    snap.labels = metric->labels;
    switch (metric->type) {
      case MetricType::kCounter:
        snap.counter_value = metric->counter.Value();
        break;
      case MetricType::kGauge:
        snap.gauge_value = metric->gauge.Value();
        break;
      case MetricType::kHistogram: {
        snap.hist_buckets.resize(Histogram::kNumBuckets);
        // Every Observe() lands in exactly one bucket, so the bucket sum
        // IS the count; deriving hist_count from the same bucket reads
        // keeps the snapshot internally consistent (le="+Inf" == _count,
        // cumulative buckets monotone) even while writers race — reading
        // the separate count_ cell could lag a bucket already observed.
        snap.hist_count = 0;
        for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
          snap.hist_buckets[i] = metric->histogram.BucketCount(i);
          snap.hist_count += snap.hist_buckets[i];
        }
        snap.hist_sum = metric->histogram.Sum();
        break;
      }
    }
    out.push_back(std::move(snap));
  }
  return out;
}

size_t MetricsRegistry::NumMetrics() const {
  std::lock_guard<std::mutex> lock(mu_);
  return metrics_.size();
}

}  // namespace wavebatch::telemetry
