// Telemetry quickstart: run a progressive evaluation with the metrics
// registry recording, then export the counters/histograms as Prometheus
// text and the evaluation spans as a Chrome trace.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/telemetry_quickstart
//   # metrics.prom   -> any Prometheus scraper / promtool check metrics
//   # trace.json     -> chrome://tracing "Load" or https://ui.perfetto.dev
//
// Recording is on by default; MetricsRegistry::Disable() is the null path
// (every event collapses to one relaxed atomic load).

#include <cstdio>
#include <memory>
#include <string>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "engine/plan_cache.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"

using namespace wavebatch;

namespace {

bool WriteFile(const std::string& path, const std::string& text) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

}  // namespace

int main() {
  // The same workload as examples/quickstart, evaluated through the
  // engine so every plane (plan cache, plan build, session steps, store
  // fetches) leaves its trace in the registry.
  Schema schema = Schema::Uniform(2, 64);
  Relation relation = MakeUniformRelation(schema, 10000, /*seed=*/1);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  std::shared_ptr<const CoefficientStore> store =
      strategy.BuildStore(relation.FrequencyDistribution());

  QueryBatch batch(schema);
  Range all = Range::All(schema);
  batch.Add(RangeSumQuery::Count(all.Restrict(0, 0, 31), "count lower half"));
  batch.Add(RangeSumQuery::Count(all.Restrict(0, 32, 63), "count upper half"));
  batch.Add(RangeSumQuery::Sum(all.Restrict(1, 10, 53), 0, "sum of x0"));

  // Two GetOrBuild calls with the same batch: one plan_build span plus a
  // plan-cache miss, then a hit — visible below as
  // wavebatch_plan_cache_{hits,misses}_total.
  auto sse = std::make_shared<SsePenalty>();
  PlanCache cache(/*capacity=*/4);
  std::shared_ptr<const EvalPlan> plan =
      cache.GetOrBuild(batch, strategy, sse).value();
  (void)cache.GetOrBuild(batch, strategy, sse).value();

  // One batched step: a session_step span around one store_fetch_batch
  // span, 64 keys on wavebatch_store_keys_fetched_total and one latency
  // observation. Every series lives for the process, so the export below
  // holds the same series whether or not the session is still alive.
  EvalSession session(plan, store);
  session.StepBatch(64).value();

  std::string prom = telemetry::ExportPrometheus();
  std::string err;
  if (!telemetry::ValidatePrometheus(prom, &err)) {
    std::fprintf(stderr, "exposition failed validation: %s\n", err.c_str());
    return 1;
  }
  if (!WriteFile("metrics.prom", prom)) return 1;
  if (!WriteFile("trace.json", telemetry::ExportChromeTrace())) return 1;

  std::printf("%s", prom.c_str());
  std::printf(
      "\nwrote metrics.prom (%zu series) and trace.json "
      "(load in chrome://tracing or ui.perfetto.dev)\n",
      telemetry::MetricsRegistry::Default().NumMetrics());
  return 0;
}
