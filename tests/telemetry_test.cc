// The telemetry subsystem: registry semantics (stable handles, label
// canonicalization, one type per name), hot-path exactness under concurrent
// writers, the Disable() null path, log-scale histogram bucketing, span
// recording with a bounded buffer, both exporters, and the Prometheus
// exposition validator (including negative cases and validation while other
// threads keep mutating). The engine/storage integration tests at the end
// check the canonical metric names actually flow when sessions run, and
// that sessions register no series of their own.

#include "telemetry/metrics.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "engine/plan_cache.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/export.h"
#include "telemetry/span.h"
#include "telemetry/timeline.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace wavebatch {
namespace {

using telemetry::Counter;
using telemetry::Gauge;
using telemetry::Histogram;
using telemetry::Labels;
using telemetry::MetricsRegistry;

/// Every test starts from a zeroed registry; handles registered by other
/// tests (or library code) stay valid, only values reset.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    MetricsRegistry::Enable();
    MetricsRegistry::Default().ResetValues();
  }
};

// ---------------------------------------------------------------------------
// Registry semantics.

TEST_F(TelemetryTest, SameNameAndLabelsReturnsSameHandle) {
  auto& registry = MetricsRegistry::Default();
  Counter* a = registry.GetCounter("tm_test_counter", {{"k", "v"}});
  Counter* b = registry.GetCounter("tm_test_counter", {{"k", "v"}});
  EXPECT_EQ(a, b);
  Counter* other = registry.GetCounter("tm_test_counter", {{"k", "w"}});
  EXPECT_NE(a, other);
}

TEST_F(TelemetryTest, LabelOrderIsCanonicalized) {
  auto& registry = MetricsRegistry::Default();
  Counter* ab = registry.GetCounter("tm_test_canon", {{"a", "1"}, {"b", "2"}});
  Counter* ba = registry.GetCounter("tm_test_canon", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(ab, ba);
}

TEST_F(TelemetryTest, SnapshotIsSortedByFamily) {
  auto& registry = MetricsRegistry::Default();
  registry.GetCounter("tm_test_zz_family");
  registry.GetCounter("tm_test_aa_family");
  std::string prev;
  for (const auto& snap : registry.Snapshot()) {
    EXPECT_LE(prev, snap.name);
    prev = snap.name;
  }
}

// ---------------------------------------------------------------------------
// Hot-path exactness: relaxed atomics lose nothing.

TEST_F(TelemetryTest, ConcurrentCounterAddsAreExact) {
  Counter* counter =
      MetricsRegistry::Default().GetCounter("tm_test_concurrent_counter");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kPerThread; ++i) counter->Add();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(counter->Value(),
            static_cast<uint64_t>(kThreads) * kPerThread);
}

TEST_F(TelemetryTest, ConcurrentHistogramObservationsAreExact) {
  Histogram* hist =
      MetricsRegistry::Default().GetHistogram("tm_test_concurrent_hist");
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([hist, t] {
      for (int i = 0; i < kPerThread; ++i) {
        hist->Observe(static_cast<uint64_t>(t) * 1000 + 1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(hist->Count(), static_cast<uint64_t>(kThreads) * kPerThread);
  uint64_t bucket_total = 0;
  for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    bucket_total += hist->BucketCount(i);
  }
  EXPECT_EQ(bucket_total, hist->Count());
}

TEST_F(TelemetryTest, GaugeAddIsExactUnderContention) {
  Gauge* gauge = MetricsRegistry::Default().GetGauge("tm_test_gauge_add");
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge->Add(1.0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_DOUBLE_EQ(gauge->Value(), kThreads * kPerThread);
}

// ---------------------------------------------------------------------------
// The Disable() null path.

TEST_F(TelemetryTest, DisabledRegistryRecordsNothing) {
  auto& registry = MetricsRegistry::Default();
  Counter* counter = registry.GetCounter("tm_test_disabled_counter");
  Histogram* hist = registry.GetHistogram("tm_test_disabled_hist");
  Gauge* gauge = registry.GetGauge("tm_test_disabled_gauge");
  const size_t spans_before = registry.Spans().size();

  MetricsRegistry::Disable();
  counter->Add(5);
  hist->Observe(100);
  gauge->Set(3.0);
  {
    telemetry::ScopedSpan span("tm_test_disabled_span");
  }
  MetricsRegistry::Enable();

  EXPECT_EQ(counter->Value(), 0u);
  EXPECT_EQ(hist->Count(), 0u);
  EXPECT_DOUBLE_EQ(gauge->Value(), 0.0);
  EXPECT_EQ(registry.Spans().size(), spans_before);
}

// ---------------------------------------------------------------------------
// Log-scale histogram bucketing.

TEST_F(TelemetryTest, HistogramBucketBoundaries) {
  // Bucket i holds v with 2^(i-1) < v <= 2^i; bucket 0 holds v <= 1.
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 0u);
  EXPECT_EQ(Histogram::BucketIndex(2), 1u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 2u);
  EXPECT_EQ(Histogram::BucketIndex(5), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11u);
  // Everything above the last finite bound (2^42) overflows to +Inf.
  EXPECT_EQ(Histogram::BucketIndex(uint64_t{1} << 42),
            Histogram::kFiniteBuckets - 1);
  EXPECT_EQ(Histogram::BucketIndex((uint64_t{1} << 42) + 1),
            Histogram::kFiniteBuckets);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), Histogram::kFiniteBuckets);
  // Upper bounds are the powers of two.
  EXPECT_EQ(Histogram::BucketUpperBound(0), 1u);
  EXPECT_EQ(Histogram::BucketUpperBound(10), 1024u);
}

TEST_F(TelemetryTest, HistogramSumAndCountTrackObservations) {
  Histogram* hist = MetricsRegistry::Default().GetHistogram("tm_test_sums");
  hist->Observe(3);
  hist->Observe(5);
  hist->Observe(100);
  EXPECT_EQ(hist->Count(), 3u);
  EXPECT_EQ(hist->Sum(), 108u);
  EXPECT_EQ(hist->BucketCount(2), 1u);  // 3
  EXPECT_EQ(hist->BucketCount(3), 1u);  // 5
  EXPECT_EQ(hist->BucketCount(7), 1u);  // 100 (64 < 100 <= 128)
}

// ---------------------------------------------------------------------------
// Spans.

TEST_F(TelemetryTest, ScopedSpanRecordsWallClockDuration) {
  auto& registry = MetricsRegistry::Default();
  const size_t before = registry.Spans().size();
  {
    telemetry::ScopedSpan span("tm_test_span");
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  ASSERT_EQ(spans.size(), before + 1);
  EXPECT_EQ(std::string_view(spans.back().name), "tm_test_span");
  EXPECT_GE(spans.back().dur_us, 2000.0);
}

TEST_F(TelemetryTest, NestedSpansAreContainedIntervals) {
  auto& registry = MetricsRegistry::Default();
  const size_t before = registry.Spans().size();
  {
    telemetry::ScopedSpan outer("tm_test_outer");
    {
      telemetry::ScopedSpan inner("tm_test_inner");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  ASSERT_EQ(spans.size(), before + 2);
  // RAII order: inner destructs first.
  const telemetry::SpanEvent& inner = spans[before];
  const telemetry::SpanEvent& outer = spans[before + 1];
  EXPECT_EQ(std::string_view(inner.name), "tm_test_inner");
  EXPECT_EQ(std::string_view(outer.name), "tm_test_outer");
  EXPECT_EQ(inner.tid, outer.tid);
  EXPECT_GE(inner.ts_us, outer.ts_us);
  EXPECT_LE(inner.ts_us + inner.dur_us, outer.ts_us + outer.dur_us + 1e-3);
}

TEST_F(TelemetryTest, SpanBufferIsBoundedAndCountsDrops) {
  auto& registry = MetricsRegistry::Default();
  registry.SetSpanCapacity(4);
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 10; ++i) {
    registry.RecordSpan("tm_test_overflow", now, now);
  }
  EXPECT_EQ(registry.Spans().size(), 4u);
  EXPECT_EQ(registry.dropped_spans(), 6u);
  registry.SetSpanCapacity(size_t{1} << 18);
  registry.ResetValues();
}

TEST_F(TelemetryTest, DroppedSpansExportAsPrometheusCounter) {
  auto& registry = MetricsRegistry::Default();
  registry.SetSpanCapacity(2);
  const auto now = std::chrono::steady_clock::now();
  for (int i = 0; i < 5; ++i) {
    registry.RecordSpan("tm_test_drop_export", now, now);
  }
  EXPECT_EQ(registry.dropped_spans(), 3u);
  // The drop count is a first-class Prometheus series, not just an
  // accessor — a scraper can alert on span loss without process access.
  const std::string text = telemetry::ExportPrometheus(registry);
  std::string error;
  EXPECT_TRUE(telemetry::ValidatePrometheus(text, &error)) << error;
  EXPECT_NE(text.find("wavebatch_telemetry_dropped_spans_total 3"),
            std::string::npos);
  registry.SetSpanCapacity(size_t{1} << 18);
  registry.ResetValues();
}

TEST_F(TelemetryTest, SpanAttrsAreRecordedAndCapped) {
  auto& registry = MetricsRegistry::Default();
  const size_t before = registry.Spans().size();
  {
    telemetry::ScopedSpan span("tm_test_attr_span");
    span.AddAttr("keys", 7);
    span.AddAttr("shard", 2);
    span.AddAttr("epoch", 3);
    span.AddAttr("bound", 0.5);
    span.AddAttr("overflowing", 99);  // beyond kMaxAttrs: dropped
  }
  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  ASSERT_EQ(spans.size(), before + 1);
  const telemetry::SpanEvent& span = spans.back();
  ASSERT_EQ(span.num_attrs, telemetry::SpanEvent::kMaxAttrs);
  EXPECT_EQ(std::string_view(span.attrs[0].key), "keys");
  EXPECT_DOUBLE_EQ(span.attrs[0].value, 7.0);
  EXPECT_EQ(std::string_view(span.attrs[3].key), "bound");
  EXPECT_DOUBLE_EQ(span.attrs[3].value, 0.5);

  // Attrs surface in the Chrome export's args alongside the ids.
  const std::string json = telemetry::ExportChromeTrace(registry);
  EXPECT_NE(json.find("\"keys\":7"), std::string::npos);
  EXPECT_NE(json.find("\"shard\":2"), std::string::npos);
  EXPECT_EQ(json.find("overflowing"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Convergence timelines.

TEST_F(TelemetryTest, ConvergenceTimelineDecimatesDeterministically) {
  telemetry::ConvergenceTimeline timeline(4);
  for (uint64_t i = 0; i < 20; ++i) {
    telemetry::TimelinePoint point;
    point.steps = i;
    timeline.Sample(point);
  }
  // Stride-doubling over 20 offered samples at capacity 4: the survivors
  // are the multiples of the final stride — a function of the offered count
  // alone, never of timing.
  EXPECT_EQ(timeline.offered(), 20u);
  EXPECT_EQ(timeline.stride(), 8u);
  ASSERT_EQ(timeline.points().size(), 3u);
  EXPECT_EQ(timeline.points()[0].steps, 0u);
  EXPECT_EQ(timeline.points()[1].steps, 8u);
  EXPECT_EQ(timeline.points()[2].steps, 16u);

  // The completion point lands regardless of where the stride is.
  telemetry::TimelinePoint final_point;
  final_point.steps = 99;
  timeline.ForceSample(final_point);
  EXPECT_EQ(timeline.points().back().steps, 99u);

  // TakePoints drains the buffer for the completed-request record.
  const std::vector<telemetry::TimelinePoint> taken = timeline.TakePoints();
  EXPECT_EQ(taken.size(), 4u);
  EXPECT_TRUE(timeline.empty());
}

// ---------------------------------------------------------------------------
// Prometheus exporter + validator.

TEST_F(TelemetryTest, ExportPrometheusValidates) {
  auto& registry = MetricsRegistry::Default();
  registry.GetCounter("tm_test_export_counter", {{"k", "v"}}, "A counter.")
      ->Add(7);
  registry.GetGauge("tm_test_export_gauge", {}, "A gauge.")->Set(-1.5);
  Histogram* hist =
      registry.GetHistogram("tm_test_export_hist", {{"h", "x"}}, "A hist.");
  hist->Observe(1);
  hist->Observe(500);
  hist->Observe(uint64_t{1} << 60);  // overflow bucket

  const std::string text = telemetry::ExportPrometheus(registry);
  std::string error;
  EXPECT_TRUE(telemetry::ValidatePrometheus(text, &error)) << error;
  EXPECT_NE(text.find("tm_test_export_counter{k=\"v\"} 7"), std::string::npos);
  EXPECT_NE(text.find("tm_test_export_gauge -1.5"), std::string::npos);
  EXPECT_NE(text.find("tm_test_export_hist_bucket{h=\"x\",le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("tm_test_export_hist_count{h=\"x\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE tm_test_export_hist histogram"),
            std::string::npos);
}

TEST_F(TelemetryTest, ExportEscapesLabelValues) {
  auto& registry = MetricsRegistry::Default();
  registry.GetCounter("tm_test_escape", {{"path", "a\\b\"c\nd"}})->Add(1);
  const std::string text = telemetry::ExportPrometheus(registry);
  std::string error;
  EXPECT_TRUE(telemetry::ValidatePrometheus(text, &error)) << error;
  EXPECT_NE(text.find("path=\"a\\\\b\\\"c\\nd\""), std::string::npos);
}

TEST_F(TelemetryTest, HistogramBucketsAreCumulative) {
  auto& registry = MetricsRegistry::Default();
  Histogram* hist = registry.GetHistogram("tm_test_cumulative");
  hist->Observe(1);  // bucket 0
  hist->Observe(2);  // bucket 1
  hist->Observe(2);  // bucket 1
  const std::string text = telemetry::ExportPrometheus(registry);
  EXPECT_NE(text.find("tm_test_cumulative_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("tm_test_cumulative_bucket{le=\"2\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("tm_test_cumulative_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("tm_test_cumulative_sum 5"), std::string::npos);
}

TEST_F(TelemetryTest, ValidatorRejectsMalformedExposition) {
  std::string error;
  // Bad metric name.
  EXPECT_FALSE(telemetry::ValidatePrometheus("9metric 1\n", &error));
  // Unterminated label value.
  EXPECT_FALSE(telemetry::ValidatePrometheus("m{a=\"x} 1\n", &error));
  // Bad escape.
  EXPECT_FALSE(telemetry::ValidatePrometheus("m{a=\"\\x\"} 1\n", &error));
  // Missing value.
  EXPECT_FALSE(telemetry::ValidatePrometheus("m{a=\"x\"}\n", &error));
  // Unparsable value.
  EXPECT_FALSE(telemetry::ValidatePrometheus("m 1.2.3\n", &error));
  // Duplicate series.
  EXPECT_FALSE(telemetry::ValidatePrometheus("m 1\nm 2\n", &error));
  // Duplicate TYPE.
  EXPECT_FALSE(telemetry::ValidatePrometheus(
      "# TYPE m counter\n# TYPE m counter\nm 1\n", &error));
  // TYPE after a sample of the family.
  EXPECT_FALSE(
      telemetry::ValidatePrometheus("m 1\n# TYPE m counter\n", &error));
  // Unknown type token.
  EXPECT_FALSE(telemetry::ValidatePrometheus("# TYPE m widget\nm 1\n", &error));
  // Negative counter.
  EXPECT_FALSE(
      telemetry::ValidatePrometheus("# TYPE m counter\nm -1\n", &error));
  // Histogram without le="+Inf".
  EXPECT_FALSE(telemetry::ValidatePrometheus(
      "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
      &error));
  // Histogram with non-monotone cumulative buckets.
  EXPECT_FALSE(telemetry::ValidatePrometheus(
      "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\n"
      "h_sum 1\nh_count 3\n",
      &error));
  // +Inf bucket disagreeing with _count.
  EXPECT_FALSE(telemetry::ValidatePrometheus(
      "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 4\n",
      &error));
  // Histogram family sample without a recognized suffix.
  EXPECT_FALSE(telemetry::ValidatePrometheus(
      "# TYPE h histogram\nh 3\n", &error));
}

TEST_F(TelemetryTest, ValidatorAcceptsWellFormedEdgeCases) {
  std::string error;
  EXPECT_TRUE(telemetry::ValidatePrometheus("", &error)) << error;
  EXPECT_TRUE(telemetry::ValidatePrometheus("# just a comment\n", &error))
      << error;
  EXPECT_TRUE(telemetry::ValidatePrometheus("m 1 1234567890\n", &error))
      << error;  // timestamp
  EXPECT_TRUE(telemetry::ValidatePrometheus("m{} 1\n", &error)) << error;
  EXPECT_TRUE(telemetry::ValidatePrometheus("m NaN\n", &error)) << error;
  EXPECT_TRUE(telemetry::ValidatePrometheus(
      "# TYPE h histogram\nh_bucket{le=\"0.5\"} 1\n"
      "h_bucket{le=\"+Inf\"} 2\nh_sum 1.5\nh_count 2\n",
      &error))
      << error;
}

TEST_F(TelemetryTest, ExportValidatesWhileOtherThreadsMutate) {
  auto& registry = MetricsRegistry::Default();
  Counter* counter = registry.GetCounter("tm_test_racing_counter");
  Histogram* hist = registry.GetHistogram("tm_test_racing_hist");
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      uint64_t v = static_cast<uint64_t>(t) + 1;
      while (!stop.load(std::memory_order_relaxed)) {
        counter->Add(1);
        hist->Observe(v++ % 5000);
      }
    });
  }
  for (int round = 0; round < 20; ++round) {
    const std::string text = telemetry::ExportPrometheus(registry);
    std::string error;
    EXPECT_TRUE(telemetry::ValidatePrometheus(text, &error)) << error;
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

// ---------------------------------------------------------------------------
// Chrome trace exporter.

TEST_F(TelemetryTest, ExportChromeTraceEmitsCompleteEvents) {
  auto& registry = MetricsRegistry::Default();
  {
    telemetry::ScopedSpan span("tm_test_trace_span");
  }
  const std::string json = telemetry::ExportChromeTrace(registry);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"tm_test_trace_span\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"wavebatch\""), std::string::npos);
  // Braces and brackets balance (cheap structural sanity; the format has no
  // nested strings containing braces — span names are C identifiers).
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

// ---------------------------------------------------------------------------
// Integration: the canonical series flow when the engine runs.

struct EngineFixture {
  Schema schema = Schema::Uniform(2, 8);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;
  std::unique_ptr<CoefficientStore> store;

  EngineFixture() : rel(MakeUniformRelation(schema, 200, 11)), batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{1, 6}, {0, 7}}).value()));
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{2, 5}, {3, 4}}).value()));
    plan = EvalPlan::Build(batch, strategy, sse).value();
    store = strategy.BuildStore(rel.FrequencyDistribution());
  }
};

TEST_F(TelemetryTest, SessionsRegisterNoSeries) {
  // Every series lives for the process, and a session binds none of its
  // own: the export holds the same series however many sessions are alive.
  EngineFixture f;
  auto& registry = MetricsRegistry::Default();
  {
    // The warm-up binds the store's fetch series and the span buffer's
    // dropped-span counter.
    EvalSession warm_up(f.plan, UnownedStore(*f.store));
    ASSERT_TRUE(warm_up.StepBatch(4).ok());
  }
  const size_t before = registry.NumMetrics();
  std::vector<EvalSession> live;
  for (int i = 0; i < 3; ++i) {
    live.emplace_back(f.plan, UnownedStore(*f.store));
    ASSERT_TRUE(live.back().StepBatch(4).ok());
    EXPECT_GT(live.back().WorstCaseBound(f.store->SumAbs()), 0.0);
  }
  EXPECT_EQ(registry.NumMetrics(), before);
}

TEST_F(TelemetryTest, StoreAndPlanCacheAndSpanSeriesFlow) {
  EngineFixture f;
  auto& registry = MetricsRegistry::Default();
  const size_t spans_before = registry.Spans().size();

  PlanCache cache(4);
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  ASSERT_TRUE(cache.GetOrBuild(f.batch, strategy, f.sse).ok());  // miss
  ASSERT_TRUE(cache.GetOrBuild(f.batch, strategy, f.sse).ok());  // hit
  EXPECT_EQ(cache.evictions(), 0u);

  EvalSession session(f.plan, UnownedStore(*f.store));
  ASSERT_TRUE(session.RunToExact().ok());

  uint64_t hits = 0, misses = 0, keys = 0;
  for (const auto& snap : registry.Snapshot()) {
    if (snap.name == "wavebatch_plan_cache_hits_total") {
      hits = snap.counter_value;
    } else if (snap.name == "wavebatch_plan_cache_misses_total") {
      misses = snap.counter_value;
    } else if (snap.name == "wavebatch_store_keys_fetched_total") {
      keys += snap.counter_value;
    }
  }
  EXPECT_GE(hits, 1u);
  EXPECT_GE(misses, 1u);
  EXPECT_GE(keys, session.io().retrievals);

  // Spans: the cache lookup, the build under it, and the batched steps.
  int lookups = 0, builds = 0, steps = 0;
  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  for (size_t i = spans_before; i < spans.size(); ++i) {
    const std::string_view name(spans[i].name);
    lookups += name == "plan_cache_lookup";
    builds += name == "plan_build";
    steps += name == "session_step";
  }
  EXPECT_EQ(lookups, 2);
  EXPECT_GE(builds, 1);
  EXPECT_GE(steps, 1);
}

TEST_F(TelemetryTest, OneKeyReadsAreCountedButNotTimed) {
  // A one-key read — Fetch(), and the one-entry Step() — adds to the store
  // counters but takes no clock read: no store_fetch_batch or session_step
  // span and no latency observation. A 2-key batch is timed once.
  EngineFixture f;
  auto& registry = MetricsRegistry::Default();
  const Labels labels = {{"store", f.store->name()}};
  Counter* keys =
      registry.GetCounter("wavebatch_store_keys_fetched_total", labels);
  Histogram* latency =
      registry.GetHistogram("wavebatch_store_fetch_batch_latency_ns", labels);
  const size_t spans_before = registry.Spans().size();
  const auto spans_named = [&](std::string_view name) {
    const std::vector<telemetry::SpanEvent> spans = registry.Spans();
    int n = 0;
    for (size_t i = spans_before; i < spans.size(); ++i) {
      n += std::string_view(spans[i].name) == name;
    }
    return n;
  };

  const uint64_t key = f.plan->list().keys()[0];
  ASSERT_TRUE(f.store->Fetch(key).ok());
  EvalSession session(f.plan, UnownedStore(*f.store));
  ASSERT_TRUE(session.Step().ok());
  EXPECT_EQ(keys->Value(), 2u);
  EXPECT_EQ(latency->Count(), 0u);
  EXPECT_EQ(spans_named("store_fetch_batch"), 0);
  EXPECT_EQ(spans_named("session_step"), 0);

  const std::vector<uint64_t> two = {key, key};
  std::vector<double> out(two.size());
  ASSERT_TRUE(f.store->FetchBatch(two, out).ok());
  EXPECT_EQ(keys->Value(), 4u);
  EXPECT_EQ(latency->Count(), 1u);
  EXPECT_EQ(spans_named("store_fetch_batch"), 1);
  EXPECT_EQ(spans_named("session_step"), 0);
}

TEST_F(TelemetryTest, ThreadPoolMetricsCountTasks) {
  auto& registry = MetricsRegistry::Default();
  Counter* tasks = registry.GetCounter("wavebatch_thread_pool_tasks_total");
  Gauge* depth = registry.GetGauge("wavebatch_thread_pool_queue_depth");
  const uint64_t before = tasks->Value();
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 16; ++i) {
      pool.Submit([&ran] { ran.fetch_add(1); });
    }
    // Destructor joins after the queue drains.
  }
  EXPECT_EQ(ran.load(), 16);
  EXPECT_EQ(tasks->Value(), before + 16);
  EXPECT_DOUBLE_EQ(depth->Value(), 0.0);
}

}  // namespace
}  // namespace wavebatch
