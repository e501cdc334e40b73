// The two closed-loop workloads over the paper-scale Db4 view: `dashboard`
// (a viewer refreshing 8 cached panels at once — shared prefetches and
// StepBatch dominate) and `explore` (an analyst answering one fresh
// drill-down per op to a fixed Theorem-1 bound — plan builds and the K
// scan dominate). NOTES.md says why each exists.
//
// Both are served on one thread: an op submits its requests and then
// drives QueryService::RunUntilIdle. All of an op's requests are queued
// before the first admission, so they share one session group and one K
// scan by construction, and every count per op is a function of the seed.

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <iterator>
#include <memory>
#include <vector>

#include "data/generators.h"
#include "data/workloads.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "penalty/sse.h"
#include "perfbench.h"
#include "probes.h"
#include "server/query_service.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace wavebatch::perfbench {
namespace {

using server::QueryRequest;
using server::QueryResponse;
using server::QueryService;

// The paper's 5-d temperature schema at bench_serving's scale: 128 x 64 x
// 8 x 32 x 32 = 67 M cells (537 MB dense) from 200 k records.
constexpr uint64_t kRecords = 200000;
// bench_serving's partition (kPartitionSeed): 512 lat x lon ranges, sliced
// into 16 panels of 32 contiguous queries.
constexpr size_t kPanels = 16;
constexpr size_t kPanelsPerRefresh = 8;
constexpr double kPanelZipf = 1.1;
// A 4 x 4 drill-down of a random 32 x 16 lat x lon box, answered until its
// Theorem-1 SSE bound drops below this (about a tenth of its master list).
constexpr uint32_t kBoxLat = 32;
constexpr uint32_t kBoxLon = 16;
constexpr double kExploreTargetBound = 1e18;
// Closed-loop ops per second of --seconds: the op rate on a 4-core Xeon,
// so a run measures for about --seconds. Fixed op counts, not a fixed
// time, keep every per-op count exact for one seed.
constexpr double kDashboardOpsPerSecond = 5.0;
constexpr double kExploreOpsPerSecond = 9.0;
// Rounds of an untraced run: each sets up and serves its share of the ops.
constexpr size_t kRounds = 3;

TemperatureDatasetOptions PaperScaleData() {
  TemperatureDatasetOptions data;
  data.lat_size = 128;
  data.lon_size = 64;
  data.alt_size = 8;
  data.time_size = 32;
  data.temp_size = 32;
  data.num_records = kRecords;
  data.seed = kDataSeed;
  return data;
}

/// One op's requests (built before timing, moved into Submit) and the
/// index of the oracle entry each request is checked against.
struct OpInput {
  std::vector<QueryRequest> requests;
  std::vector<size_t> oracle;
};

/// One built serving stack: view, plan cache and service.
struct Stack {
  std::shared_ptr<const CoefficientStore> bare_view;  // the oracle's replays
  std::shared_ptr<const CoefficientStore> view;  // what the service reads
  std::shared_ptr<PlanCache> plan_cache;
  std::unique_ptr<QueryService> service;
  double view_build_s = 0.0;
  double setup_s = 0.0;
};

/// Set-up: view build, service construction and plan warm-up — nothing
/// else. `probed` wraps the view in a ProbeStore (traced pass).
Stack BuildStack(const DenseCube& cube,
                 const std::shared_ptr<const LinearStrategy>& strategy,
                 const std::vector<QueryBatch>& warm_plans,
                 const std::shared_ptr<const PenaltyFunction>& penalty,
                 bool probed) {
  Stack stack;
  const auto begin = Clock::now();
  stack.bare_view = strategy->BuildStore(cube);
  stack.view_build_s = Seconds(Clock::now() - begin);
  stack.view = probed ? std::make_shared<ProbeStore>(stack.bare_view)
                      : stack.bare_view;
  stack.plan_cache = std::make_shared<PlanCache>();
  stack.service = std::make_unique<QueryService>(
      stack.view, strategy, ServingOptions(stack.plan_cache));
  for (const QueryBatch& batch : warm_plans) {
    WB_CHECK(stack.plan_cache->GetOrBuild(batch, *strategy, penalty).ok());
  }
  stack.setup_s = Seconds(Clock::now() - begin);
  return stack;
}

/// What one timed closed-loop pass produced.
struct Pass {
  std::vector<double> latency_ms;
  std::vector<std::vector<QueryResponse>> answers;  // per op, per request
  double wall_s = 0.0;
  uint64_t retrievals = 0;
  uint64_t master_entries = 0;
};

/// The closed loop: each op submits all its requests, drives the service
/// until idle on this thread, and records submit -> last answer.
Pass RunClosedLoop(QueryService& service, std::vector<OpInput>& ops) {
  const bool traced = telemetry::Enabled();
  auto& registry = telemetry::MetricsRegistry::Default();
  Pass pass;
  pass.answers.resize(ops.size());
  const auto window_begin = Clock::now();
  auto last_answer = window_begin;
  for (size_t op = 0; op < ops.size(); ++op) {
    std::vector<QueryResponse>& answers = pass.answers[op];
    answers.resize(ops[op].requests.size());
    const auto submit = Clock::now();
    for (size_t i = 0; i < ops[op].requests.size(); ++i) {
      Status admitted = service.Submit(
          std::move(ops[op].requests[i]),
          [&answers, i](QueryResponse response) {
            answers[i] = std::move(response);
          });
      if (!admitted.ok()) answers[i].status = admitted;  // shed: a failure
    }
    service.RunUntilIdle();
    last_answer = Clock::now();
    pass.latency_ms.push_back(Millis(last_answer - submit));
    if (traced) registry.RecordSpan(kOpSpan, submit, last_answer);
  }
  if (traced) registry.RecordSpan(kWindowSpan, window_begin, last_answer);
  pass.wall_s = Seconds(last_answer - window_begin);
  for (const auto& answers : pass.answers) {
    for (const QueryResponse& response : answers) {
      pass.retrievals += response.io.retrievals;
      pass.master_entries += response.total_steps;
    }
  }
  return pass;
}

double SumAbs(const std::vector<double>& values) {
  double acc = 0.0;
  for (double v : values) acc += std::abs(v);
  return acc;
}

/// Theorem 1: the SSE of the brute-force error is within the reported
/// worst-case bound (plus the rounding of an exact answer).
bool WithinBound(const QueryResponse& response,
                 const std::vector<double>& truth) {
  if (!response.status.ok() || response.estimates.size() != truth.size()) {
    return false;
  }
  double sse = 0.0;
  for (size_t q = 0; q < truth.size(); ++q) {
    const double e = response.estimates[q] - truth[q];
    sse += e * e;
  }
  const double rounding = kRelativeTolerance * (1.0 + SumAbs(truth));
  return sse <= response.worst_case_bound + rounding * rounding;
}

/// The served answer equals an isolated session over the bare view that
/// takes as many steps: the same retrievals, and every estimate within
/// kRelativeTolerance. Catches wrong progressive estimates, which the
/// Theorem-1 check alone lets through while the bound is still loose.
bool MatchesReplay(const QueryResponse& response, const QueryBatch& batch,
                   const std::shared_ptr<const CoefficientStore>& view,
                   const LinearStrategy& strategy,
                   const std::shared_ptr<const PenaltyFunction>& penalty) {
  Result<std::shared_ptr<const EvalPlan>> plan =
      EvalPlan::Build(batch, strategy, penalty);
  if (!plan.ok()) return false;
  EvalSession session(plan.value(), view);  // kBiggestB, as served
  Result<size_t> stepped = session.StepBatch(response.steps_taken);
  if (!stepped.ok() || session.StepsTaken() != response.steps_taken ||
      session.io().retrievals != response.io.retrievals) {
    return false;
  }
  const std::vector<double>& replay = session.Estimates();
  if (response.estimates.size() != replay.size()) return false;
  for (size_t q = 0; q < replay.size(); ++q) {
    const double tolerance =
        kRelativeTolerance * std::max(1.0, std::abs(replay[q]));
    if (std::abs(response.estimates[q] - replay[q]) > tolerance) return false;
  }
  return true;
}

/// Checks the answer to one request against oracle entry `entry`; the bare
/// view (still resident) and strategy are at hand for a replay.
using Check = std::function<bool(
    const QueryResponse& response, size_t entry,
    const std::shared_ptr<const CoefficientStore>& view,
    const LinearStrategy& strategy)>;

/// A closed-loop workload: the plans set-up warms, and how to check an
/// answer.
struct ClosedLoopWorkload {
  std::vector<QueryBatch> warm_plans;
  Check check;
};

/// End-to-end metrics of one untraced run.
std::vector<Metric> EndToEnd(double setup_s, const Pass& pass) {
  const double ops = static_cast<double>(pass.latency_ms.size());
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Quantile(pass.latency_ms, 0.5), "ms"},
      {"throughput_per_s", ops / pass.wall_s, "1/s"},
      {"retrievals_per_op", static_cast<double>(pass.retrievals) / ops,
       "coefficients"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Builds the workload's ops with `make_ops` (twice in a traced run: each
/// pass consumes its requests), runs the untraced or traced protocol, and
/// checks every answer against the oracle after the timed interval.
template <typename MakeOps>
Outcome RunServing(const RunOptions& options, const std::string& name,
                   const DenseCube& cube, const ClosedLoopWorkload& workload,
                   MakeOps make_ops) {
  telemetry::MetricsRegistry::Disable();
  auto strategy =
      std::make_shared<WaveletStrategy>(cube.schema(), WaveletKind::kDb4);
  auto sse = std::make_shared<SsePenalty>();
  Outcome outcome;
  // An op fails when any of its answers is shed, non-OK, or wrong.
  auto check = [&](const Pass& pass, const std::vector<OpInput>& inputs,
                   const Stack& stack) {
    outcome.attempted += inputs.size();
    for (size_t op = 0; op < pass.answers.size(); ++op) {
      bool ok = true;
      for (size_t i = 0; i < pass.answers[op].size(); ++i) {
        ok = ok && workload.check(pass.answers[op][i], inputs[op].oracle[i],
                                  stack.bare_view, *strategy);
      }
      if (!ok) ++outcome.failed;
    }
    outcome.correct = outcome.correct && outcome.failed == 0;
  };

  if (!options.trace) {
    // kRounds rounds, each a set-up, the next share of the ops and the
    // oracle check of their answers; a stack is torn down before the next
    // is built. setup_s is the median set-up. The timed ops are spread
    // over the whole run, about twice the span of one stretch after the
    // set-ups, so contention on a shared host is averaged over longer.
    std::vector<OpInput> inputs = make_ops();
    std::vector<double> setup_s;
    Pass total;
    for (size_t round = 0; round < kRounds; ++round) {
      std::vector<OpInput> share(
          std::make_move_iterator(inputs.begin() +
                                  inputs.size() * round / kRounds),
          std::make_move_iterator(inputs.begin() +
                                  inputs.size() * (round + 1) / kRounds));
      Stack stack =
          BuildStack(cube, strategy, workload.warm_plans, sse, false);
      setup_s.push_back(stack.setup_s);
      Pass pass = RunClosedLoop(*stack.service, share);
      check(pass, share, stack);
      total.latency_ms.insert(total.latency_ms.end(), pass.latency_ms.begin(),
                              pass.latency_ms.end());
      total.wall_s += pass.wall_s;
      total.retrievals += pass.retrievals;
    }
    std::cerr << "perfbench: set-ups (s):";
    for (double s : setup_s) std::cerr << " " << s;
    std::cerr << std::endl;
    outcome.metrics = EndToEnd(Quantile(setup_s, 0.5), total);
    return outcome;
  }

  // Traced run: an untraced pass (the overhead baseline and the latency
  // tail), then the same ops traced through the probes.
  std::vector<double> untraced_latency_ms;
  {
    Stack stack =
        BuildStack(cube, strategy, workload.warm_plans, sse, false);
    std::vector<OpInput> inputs = make_ops();
    Pass pass = RunClosedLoop(*stack.service, inputs);
    untraced_latency_ms = pass.latency_ms;
    check(pass, inputs, stack);
  }
  EnableTracing();
  auto probed = std::make_shared<ProbeStrategy>(strategy);
  Stack stack = BuildStack(cube, probed, workload.warm_plans, sse, true);
  const uint64_t warm_hits = stack.plan_cache->hits();
  const uint64_t warm_misses = stack.plan_cache->misses();
  std::vector<OpInput> inputs = make_ops();
  Pass pass = RunClosedLoop(*stack.service, inputs);
  telemetry::MetricsRegistry::Disable();
  check(pass, inputs, stack);

  TracedPassFacts facts;
  facts.ops = pass.latency_ms.size();
  facts.untraced_latency_p50_ms = Quantile(untraced_latency_ms, 0.5);
  facts.untraced_latency_p90_ms = Quantile(untraced_latency_ms, 0.9);
  facts.traced_latency_p50_ms = Quantile(pass.latency_ms, 0.5);
  facts.view_build_s = stack.view_build_s;
  facts.master_entries = pass.master_entries;
  facts.plan_cache_hits = stack.plan_cache->hits() - warm_hits;
  facts.plan_cache_misses = stack.plan_cache->misses() - warm_misses;
  facts.shared_hits = stack.service->shared_hits();
  facts.shared_misses = stack.service->shared_misses();
  outcome.metrics = LayerMetrics(facts);
  // A full span buffer drops spans, and every count above would read low.
  if (telemetry::MetricsRegistry::Default().dropped_spans() > 0) {
    std::cerr << "perfbench: the traced pass dropped spans" << std::endl;
    outcome.correct = false;
  }
  if (!WriteChromeTrace(options.trace_dir, name)) {
    std::cerr << "perfbench: failed to write the Chrome trace" << std::endl;
  }
  return outcome;
}

}  // namespace

Outcome RunDashboard(const RunOptions& options) {
  // Inputs, all before timing: the data, the 16 panels, the pages.
  const Relation relation = MakeTemperatureDataset(PaperScaleData());
  const DenseCube cube = relation.FrequencyDistribution();
  const Schema& schema = cube.schema();
  const std::vector<size_t> parts = {32, 16, 1, 1, 1};
  const PartitionWorkload partition = MakePartitionWorkload(
      schema, parts, CellAggregate::kSum, kTemp, kPartitionSeed,
      /*random_cuts=*/true, /*min_width=*/2, kMeasureOffset);
  ClosedLoopWorkload workload;
  std::vector<std::vector<double>> oracle;  // brute-force truth per panel
  const size_t per_panel = partition.batch.size() / kPanels;
  for (size_t p = 0; p < kPanels; ++p) {
    QueryBatch panel(schema);
    for (size_t q = 0; q < per_panel; ++q) {
      panel.Add(partition.batch.query(p * per_panel + q));
    }
    oracle.push_back(panel.BruteForce(relation));
    workload.warm_plans.push_back(std::move(panel));
  }
  workload.check = [&oracle](const QueryResponse& response, size_t entry,
                             const std::shared_ptr<const CoefficientStore>&,
                             const LinearStrategy&) {
    return MatchesExactly(response, oracle[entry]);
  };

  const size_t num_ops = static_cast<size_t>(std::max<double>(
      kRounds, std::round(options.seconds * kDashboardOpsPerSecond)));
  std::vector<std::vector<size_t>> pages;
  Rng rng(options.seed);
  for (size_t op = 0; op < num_ops; ++op) {
    std::vector<size_t> page;
    while (page.size() < kPanelsPerRefresh) {
      const size_t p = static_cast<size_t>(rng.Zipf(kPanels, kPanelZipf));
      if (std::find(page.begin(), page.end(), p) == page.end()) {
        page.push_back(p);
      }
    }
    pages.push_back(std::move(page));
  }
  auto sse = std::make_shared<SsePenalty>();
  const std::vector<QueryBatch>& panels = workload.warm_plans;
  auto make_ops = [&] {
    std::vector<OpInput> ops;
    for (const std::vector<size_t>& page : pages) {
      OpInput op;
      for (size_t p : page) {
        QueryRequest request(panels[p]);
        request.penalty = sse;
        op.requests.push_back(std::move(request));
        op.oracle.push_back(p);
      }
      ops.push_back(std::move(op));
    }
    return ops;
  };
  return RunServing(options, "dashboard", cube, workload, make_ops);
}

Outcome RunExplore(const RunOptions& options) {
  const Relation relation = MakeTemperatureDataset(PaperScaleData());
  const DenseCube cube = relation.FrequencyDistribution();
  const Schema& schema = cube.schema();
  const size_t num_ops = static_cast<size_t>(std::max<double>(
      kRounds, std::round(options.seconds * kExploreOpsPerSecond)));

  // One fresh drill-down per op: a random box, cut with a fresh seed.
  std::vector<std::vector<double>> oracle;  // brute-force truth per op
  std::vector<QueryBatch> drilldowns;
  Rng rng(options.seed);
  const std::vector<size_t> parts = {4, 4, 1, 1, 1};
  for (size_t op = 0; op < num_ops; ++op) {
    const auto lat = static_cast<uint32_t>(
        rng.UniformInt(schema.dim(kLat).size - kBoxLat + 1));
    const auto lon = static_cast<uint32_t>(
        rng.UniformInt(schema.dim(kLon).size - kBoxLon + 1));
    std::vector<Interval> box_intervals;
    for (size_t d = 0; d < schema.num_dims(); ++d) {
      box_intervals.push_back({0, schema.dim(d).size - 1});
    }
    box_intervals[kLat] = {lat, lat + kBoxLat - 1};
    box_intervals[kLon] = {lon, lon + kBoxLon - 1};
    const Range box = Range::Create(schema, box_intervals).value();
    PartitionWorkload drill = MakeDrillDownWorkload(
        schema, box, parts, CellAggregate::kSum, kTemp, rng.Next(),
        /*random_cuts=*/true, /*min_width=*/2, kMeasureOffset);
    // Brute force over the records inside the box only.
    Relation inside(schema);
    for (const Tuple& t : relation.tuples()) {
      if (box.Contains(t)) inside.Add(t);
    }
    oracle.push_back(drill.batch.BruteForce(inside));
    drilldowns.push_back(std::move(drill.batch));
  }

  auto sse = std::make_shared<SsePenalty>();
  // Each answer stopped at the target (or exact), satisfies Theorem 1, and
  // equals an isolated replay of as many steps.
  ClosedLoopWorkload workload;
  workload.check = [&](const QueryResponse& response, size_t entry,
                       const std::shared_ptr<const CoefficientStore>& view,
                       const LinearStrategy& strategy) {
    return (response.exact ||
            response.worst_case_bound <= kExploreTargetBound) &&
           WithinBound(response, oracle[entry]) &&
           MatchesReplay(response, drilldowns[entry], view, strategy, sse);
  };
  auto make_ops = [&] {
    std::vector<OpInput> ops;
    for (size_t op = 0; op < drilldowns.size(); ++op) {
      QueryRequest request(drilldowns[op]);
      request.penalty = sse;
      request.target_bound = kExploreTargetBound;
      OpInput input;
      input.requests.push_back(std::move(request));
      input.oracle.push_back(op);
      ops.push_back(std::move(input));
    }
    return ops;
  };
  return RunServing(options, "explore", cube, workload, make_ops);
}

}  // namespace wavebatch::perfbench
