#include "engine/progression_trace.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <string_view>
#include <thread>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/fault_injection_store.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "telemetry/span.h"
#include "telemetry/trace.h"
#include "util/thread_pool.h"

namespace wavebatch {
namespace {

struct TraceFixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::unique_ptr<CoefficientStore> store;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;
  std::vector<double> exact;

  TraceFixture() : rel(MakeUniformRelation(schema, 400, 3)), batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    for (uint32_t i = 0; i < 8; ++i) {
      batch.Add(RangeSumQuery::Count(
          Range::All(schema).Restrict(0, i * 2, i * 2 + 1)));
    }
    list = std::make_shared<const MasterList>(
        MasterList::Build(batch, strategy).value());
    store = strategy.BuildStore(rel.FrequencyDistribution());
    plan = EvalPlan::FromMasterList(list, sse);
    exact = batch.BruteForce(rel);
  }

  /// Traces a fresh biggest-B session over the fixture store.
  ProgressionTrace Trace(std::vector<ProgressionTrace::Measure> measures,
                         uint64_t dense_until = 64, double growth = 1.15,
                         double k_sum_abs = 0.0,
                         uint64_t domain_cells = 0) const {
    EvalSession session(plan, UnownedStore(*store));
    return ProgressionTrace::Run(session, exact, std::move(measures),
                                 dense_until, growth, k_sum_abs, domain_cells)
        .value();
  }
};

TEST(TraceTest, StartsAtZeroAndEndsExact) {
  TraceFixture f;
  ProgressionTrace trace = f.Trace({{"sse", f.sse.get(), 1.0}});
  ASSERT_GE(trace.points().size(), 2u);
  EXPECT_EQ(trace.points().front().retrieved, 0u);
  EXPECT_EQ(trace.points().back().retrieved, f.list->size());
  // Final estimates are exact (modulo rewrite threshold).
  EXPECT_NEAR(trace.points().back().penalties[0], 0.0, 1e-6);
  EXPECT_NEAR(trace.points().back().mean_relative_error, 0.0, 1e-9);
}

TEST(TraceTest, RetrievedStrictlyIncreases) {
  TraceFixture f;
  ProgressionTrace trace = f.Trace({{"sse", f.sse.get(), 1.0}});
  for (size_t i = 1; i < trace.points().size(); ++i) {
    EXPECT_GT(trace.points()[i].retrieved, trace.points()[i - 1].retrieved);
  }
}

TEST(TraceTest, DensePrefixThenGeometric) {
  TraceFixture f;
  ProgressionTrace trace = f.Trace({{"sse", f.sse.get(), 1.0}},
                                   /*dense_until=*/8, /*growth=*/1.5);
  // The first checkpoints are consecutive.
  for (size_t i = 1; i < 8 && i < trace.points().size(); ++i) {
    EXPECT_EQ(trace.points()[i].retrieved, trace.points()[i - 1].retrieved + 1);
  }
}

TEST(TraceTest, MultipleMeasuresAndNormalizers) {
  TraceFixture f;
  WeightedSsePenalty cursored =
      CursoredSsePenalty(f.batch.size(), std::vector<size_t>{0, 1}, 10.0);
  double norm = 0.0;
  for (double e : f.exact) norm += e * e;
  ProgressionTrace trace = f.Trace(
      {{"nsse", f.sse.get(), norm}, {"cursored", &cursored, 1.0}});
  ASSERT_EQ(trace.measure_names().size(), 2u);
  // Normalized SSE at step 0 with zero estimates = Σexact²/norm = 1.
  EXPECT_NEAR(trace.points().front().penalties[0], 1.0, 1e-9);
}

TEST(TraceTest, BoundsColumnsFilled) {
  TraceFixture f;
  const double k = f.store->SumAbs();
  ProgressionTrace trace = f.Trace({{"sse", f.sse.get(), 1.0}}, 16, 1.3, k,
                                   f.schema.cell_count());
  // Bound dominates measured penalty at every checkpoint.
  for (const auto& pt : trace.points()) {
    EXPECT_LE(pt.penalties[0], pt.worst_case_bound + 1e-5 * (1 + k * k));
  }
  // Expected-penalty column decreases to zero.
  EXPECT_NEAR(trace.points().back().expected_penalty, 0.0, 1e-9);
}

TEST(TraceTest, TableShape) {
  TraceFixture f;
  ProgressionTrace trace = f.Trace({{"sse", f.sse.get(), 1.0}});
  Table table = trace.ToTable();
  EXPECT_EQ(table.num_rows(), trace.points().size());
  std::ostringstream os;
  table.PrintCsv(os);
  EXPECT_NE(os.str().find("retrieved,sse,mean_rel_err,max_rel_err"),
            std::string::npos);
}

TEST(TraceTest, SsePenaltyDecreasesOverall) {
  // Not necessarily monotone step-to-step on one dataset, but the curve
  // must collapse by orders of magnitude from start to finish.
  TraceFixture f;
  ProgressionTrace trace = f.Trace({{"sse", f.sse.get(), 1.0}});
  const double start = trace.points().front().penalties[0];
  const double end = trace.points().back().penalties[0];
  EXPECT_GT(start, 0.0);
  EXPECT_LT(end, start * 1e-6);
}

TEST(TraceTest, SkippedImportanceColumnForDegradedSessions) {
  // An EvalSession in kSkip mode gets the extra skipped_importance column;
  // it starts at 0, jumps when a fault is absorbed, and never decreases.
  TraceFixture f;
  FaultInjectionStore faulty(f.store.get());
  const std::span<const size_t> order =
      f.plan->Permutation(ProgressionOrder::kBiggestB);
  const size_t failed_entry = order[3];
  faulty.FailKey(f.list->keys()[failed_entry]);
  const double failed_importance = f.plan->importance(failed_entry);

  EvalSession::Options opts;
  opts.fault_policy = FaultPolicy::kSkip;
  EvalSession session(f.plan, UnownedStore(faulty), opts);
  ProgressionTrace trace =
      ProgressionTrace::Run(session, f.exact, {{"sse", f.sse.get(), 1.0}})
          .value();

  EXPECT_DOUBLE_EQ(trace.points().front().skipped_importance, 0.0);
  for (size_t i = 1; i < trace.points().size(); ++i) {
    EXPECT_GE(trace.points()[i].skipped_importance,
              trace.points()[i - 1].skipped_importance);
  }
  EXPECT_DOUBLE_EQ(trace.points().back().skipped_importance,
                   failed_importance);

  // The column shows up in the table under kSkip…
  std::ostringstream os;
  trace.ToTable().PrintCsv(os);
  EXPECT_NE(os.str().find("skipped_importance"), std::string::npos);

  // …and is absent for a kFail session (see TableShape above).
  ProgressionTrace clean_trace = f.Trace({{"sse", f.sse.get(), 1.0}});
  std::ostringstream clean_os;
  clean_trace.ToTable().PrintCsv(clean_os);
  EXPECT_EQ(clean_os.str().find("skipped_importance"), std::string::npos);
}

TEST(TraceTest, RunReturnsTheFailedStepsStatus) {
  // Under kFail a failed fetch leaves the session unchanged, so a trace
  // that retried it would never finish: Run hands the Status back, with
  // the session parked just before the failing step.
  TraceFixture f;
  FaultInjectionStore faulty(f.store.get());
  faulty.FailKey(
      f.list->keys()[f.plan->Permutation(ProgressionOrder::kBiggestB)[3]]);
  EvalSession session(f.plan, UnownedStore(faulty));
  Result<ProgressionTrace> trace =
      ProgressionTrace::Run(session, f.exact, {{"sse", f.sse.get(), 1.0}});
  ASSERT_FALSE(trace.ok());
  EXPECT_EQ(trace.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(session.StepsTaken(), 3u);
}

// ---------------------------------------------------------------------------
// Request-scoped telemetry tracing: cross-thread parent links through the
// ThreadPool hand-off, TraceContext propagation, and the Chrome exporter's
// flow events. These are the regression tests for worker spans that used to
// parent under whatever happened to be live on the worker thread instead of
// the submitting thread's span.

/// Finds the single span with `name` in the buffer snapshot; fails the test
/// if it is absent or duplicated.
const telemetry::SpanEvent* FindSpan(
    const std::vector<telemetry::SpanEvent>& spans, std::string_view name) {
  const telemetry::SpanEvent* found = nullptr;
  for (const telemetry::SpanEvent& span : spans) {
    if (std::string_view(span.name) != name) continue;
    EXPECT_EQ(found, nullptr) << "duplicate span " << name;
    found = &span;
  }
  EXPECT_NE(found, nullptr) << "missing span " << name;
  return found;
}

/// Spins until `done` flips (the pool's Submit is fire-and-forget).
void AwaitFlag(const std::atomic<bool>& done) {
  while (!done.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

TEST(TelemetryHandoffTest, PoolTaskParentsUnderSubmittingSpan) {
  telemetry::MetricsRegistry::Enable();
  auto& registry = telemetry::MetricsRegistry::Default();
  registry.ResetValues();

  std::atomic<bool> done{false};
  {
    ThreadPool pool(1);
    {
      telemetry::ScopedSpan parent("tt_handoff_parent");
      pool.Submit([&done] {
        telemetry::ScopedSpan child("tt_handoff_child");
        done.store(true, std::memory_order_release);
      });
    }
    AwaitFlag(done);
  }

  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  const telemetry::SpanEvent* parent = FindSpan(spans, "tt_handoff_parent");
  const telemetry::SpanEvent* child = FindSpan(spans, "tt_handoff_child");
  ASSERT_NE(parent, nullptr);
  ASSERT_NE(child, nullptr);
  // The regression: the worker span must link to the *submitting* thread's
  // span, across threads, even though no span was live on the worker.
  EXPECT_NE(parent->span_id, 0u);
  EXPECT_EQ(child->parent_span_id, parent->span_id);
  EXPECT_NE(child->tid, parent->tid);
}

TEST(TelemetryHandoffTest, WorkerDoesNotLeakContextIntoLaterTasks) {
  telemetry::MetricsRegistry::Enable();
  auto& registry = telemetry::MetricsRegistry::Default();
  registry.ResetValues();

  std::atomic<bool> first_done{false};
  std::atomic<bool> second_done{false};
  {
    ThreadPool pool(1);
    {
      telemetry::ScopedSpan parent("tt_leak_parent");
      pool.Submit([&first_done] {
        telemetry::ScopedSpan child("tt_leak_first");
        first_done.store(true, std::memory_order_release);
      });
    }
    AwaitFlag(first_done);
    // Submitted with no live span and no installed context: the worker's
    // state from the first task must not bleed into this one.
    pool.Submit([&second_done] {
      telemetry::ScopedSpan child("tt_leak_second");
      second_done.store(true, std::memory_order_release);
    });
    AwaitFlag(second_done);
  }

  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  const telemetry::SpanEvent* second = FindSpan(spans, "tt_leak_second");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->parent_span_id, 0u);
  EXPECT_EQ(second->request_id, 0u);
}

TEST(TelemetryHandoffTest, TraceIdsPropagateAcrossThePool) {
  telemetry::MetricsRegistry::Enable();
  auto& registry = telemetry::MetricsRegistry::Default();
  registry.ResetValues();

  telemetry::TraceContext ctx;
  ctx.request_id = telemetry::NewRequestId();

  std::atomic<bool> done{false};
  {
    ThreadPool pool(1);
    telemetry::ScopedTraceContext guard(ctx);
    telemetry::ScopedSpan parent("tt_prop_parent");
    pool.Submit([&done] {
      telemetry::ScopedSpan child("tt_prop_child");
      done.store(true, std::memory_order_release);
    });
    AwaitFlag(done);
  }
  // The guard restored this thread's state on destruction.
  EXPECT_EQ(telemetry::CurrentTraceContext().request_id, 0u);

  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  for (const char* name : {"tt_prop_parent", "tt_prop_child"}) {
    const telemetry::SpanEvent* span = FindSpan(spans, name);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->request_id, ctx.request_id) << name;
  }
}

TEST(TelemetryHandoffTest, ChromeExportEmitsFlowEventsForCrossThreadLinks) {
  telemetry::MetricsRegistry::Enable();
  auto& registry = telemetry::MetricsRegistry::Default();
  registry.ResetValues();

  std::atomic<bool> done{false};
  {
    ThreadPool pool(1);
    {
      telemetry::ScopedSpan parent("tt_flow_parent");
      pool.Submit([&done] {
        telemetry::ScopedSpan child("tt_flow_child");
        done.store(true, std::memory_order_release);
      });
    }
    AwaitFlag(done);
  }

  const std::string json = telemetry::ExportChromeTrace(registry);
  // The cross-thread parent link renders as a flow pair: an "s" on the
  // parent's thread and a binding-point "f" on the child's, sharing the
  // child's span id. Same-thread nesting (every other span here) must not
  // produce flow events.
  EXPECT_NE(json.find("\"name\":\"handoff\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\""), std::string::npos);
  EXPECT_NE(json.find("\"bp\":\"e\""), std::string::npos);

  const std::vector<telemetry::SpanEvent> spans = registry.Spans();
  const telemetry::SpanEvent* child = FindSpan(spans, "tt_flow_child");
  ASSERT_NE(child, nullptr);
  const std::string flow_id = "\"id\":" + std::to_string(child->span_id);
  EXPECT_NE(json.find(flow_id), std::string::npos);
}

}  // namespace
}  // namespace wavebatch
