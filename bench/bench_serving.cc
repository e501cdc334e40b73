// Serving-layer load harness: an open-loop traffic generator over
// QueryService. Arrivals are Poisson at --qps (open loop: the schedule is
// fixed up front and a slow server cannot push back on it — the honest way
// to measure latency under load); query templates are Zipf-popular, so hot
// batches hit the plan cache. Two standard runs:
//
//   steady state  ./bench_serving --qps=500 --requests=200
//                 (queue stays shallow, zero sheds expected)
//   overload      ./bench_serving --qps=50000 --requests=500 --max_queue=16
//                 (admission backpressure sheds, survivors stay bounded)
//
// Reports per-run: completion/shed counts, latency percentiles, per-query
// session I/O (the paper's cost model, which is also what the backend
// serves), the backend fetch spans' request attribution, and the usual
// JSON + --metrics_out companions.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string_view>
#include <thread>

#include "bench_common.h"
#include "penalty/sse.h"
#include "server/introspection.h"
#include "server/query_service.h"
#include "telemetry/export.h"
#include "util/random.h"
#include "util/table.h"

namespace wavebatch::bench {
namespace {

using server::QueryRequest;
using server::QueryResponse;
using server::QueryService;
using server::QueryServiceOptions;

int Main(int argc, char** argv) {
  Flags flags(argc, argv,
              "bench_serving: open-loop load against the query-serving "
              "front end\n"
              "  --qps=N           offered load, requests/second "
              "(default 500)\n"
              "  --requests=N      total offered requests (default 200)\n"
              "  --templates=N     distinct query batches (default 16)\n"
              "  --zipf=S          template popularity skew (default 1.1)\n"
              "  --workers=N       serving threads (default 2)\n"
              "  --max_queue=N     admission queue bound (default 256)\n"
              "  --max_live=N      concurrent sessions (default 8)\n"
              "  --quantum=N       coefficients per quantum (default 128)\n"
              "  --deadline_us=N   per-request deadline (default 0 = none)\n"
              "  --trace_out=path  write the Chrome trace of the run\n"
              "  --timeline_out=path  write per-request convergence "
              "timelines (JSON)\n"
              "  --json=path       JSON report (default "
              "BENCH_serving.json)\n" +
                  kCommonFlagsHelp);

  TemperatureDatasetOptions data_options = DataOptionsFromFlags(flags);
  // Serving benchmarks care about concurrency, not cube scale: default to a
  // laptop-sized slice unless the caller overrides.
  data_options.num_records =
      static_cast<uint64_t>(flags.Int("records", 200000));
  const uint64_t qps = static_cast<uint64_t>(flags.Int("qps", 500));
  const size_t num_requests = static_cast<size_t>(flags.Int("requests", 200));
  const size_t num_templates = static_cast<size_t>(flags.Int("templates", 16));
  const double zipf_s = flags.Double("zipf", 1.1);
  const size_t workers = static_cast<size_t>(flags.Int("workers", 2));

  Stopwatch total;
  std::cout << "building serving experiment (domain "
            << TemperatureSchema(data_options).ToString() << ", "
            << data_options.num_records << " records)..." << std::endl;
  Experiment exp(data_options, PartsFromFlags(flags), /*workload_seed=*/1234,
                 WaveletKind::kHaar);

  // Query templates: contiguous sub-batches of the partition workload, so
  // neighbours overlap in coefficient needs the way dashboard panels do.
  const size_t batch_size = std::max<size_t>(
      4, exp.workload.batch.size() / std::max<size_t>(1, num_templates));
  std::vector<QueryBatch> templates;
  for (size_t t = 0; t < num_templates; ++t) {
    QueryBatch batch(exp.cube.schema());
    for (size_t q = 0; q < batch_size; ++q) {
      batch.Add(exp.workload.batch.query(
          (t * batch_size + q) % exp.workload.batch.size()));
    }
    templates.push_back(std::move(batch));
  }

  std::shared_ptr<const CoefficientStore> store = std::move(exp.store);
  auto strategy = std::make_shared<WaveletStrategy>(exp.cube.schema(),
                                                    WaveletKind::kHaar);
  auto sse = std::make_shared<SsePenalty>();

  QueryServiceOptions service_options;
  service_options.max_queue_depth =
      static_cast<size_t>(flags.Int("max_queue", 256));
  service_options.max_live_sessions =
      static_cast<size_t>(flags.Int("max_live", 8));
  service_options.default_quantum =
      static_cast<size_t>(flags.Int("quantum", 128));
  QueryService service(store, strategy, service_options);
  service.Start(workers);

  // The open loop: arrival times are drawn up front (exponential gaps at
  // the offered rate) and submission sticks to that schedule no matter how
  // the server is doing.
  Rng rng(static_cast<uint64_t>(flags.Int("traffic_seed", 7)));
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::chrono::steady_clock::time_point> arrivals;
  {
    double at_us = 0.0;
    for (size_t i = 0; i < num_requests; ++i) {
      // Inverse-CDF exponential inter-arrival with mean 1e6/qps.
      const double u = std::max(1e-12, 1.0 - rng.UniformDouble());
      at_us += -std::log(u) * (1e6 / static_cast<double>(qps));
      arrivals.push_back(
          t0 + std::chrono::microseconds(static_cast<int64_t>(at_us)));
    }
  }

  std::mutex mu;
  std::condition_variable cv;
  size_t completed = 0;
  size_t failed = 0;
  size_t deadline_expired = 0;
  uint64_t session_retrievals = 0;
  std::vector<uint64_t> latencies_us;
  const std::string timeline_out = flags.Str("timeline_out", "");
  std::vector<QueryService::TimelineRecord> timelines;
  auto on_done = [&](QueryResponse response) {
    std::lock_guard<std::mutex> lock(mu);
    ++completed;
    if (!response.status.ok()) ++failed;
    if (response.deadline_expired) ++deadline_expired;
    session_retrievals += response.io.retrievals;
    latencies_us.push_back(
        static_cast<uint64_t>(std::max<int64_t>(0, response.latency.count())));
    if (!timeline_out.empty() && !response.timeline.empty()) {
      QueryService::TimelineRecord record;
      record.request_id = response.request_id;
      record.trace_id = response.trace_id;
      record.generation = response.generation;
      record.ok = response.status.ok();
      record.exact = response.exact;
      record.deadline_expired = response.deadline_expired;
      record.points = std::move(response.timeline);
      timelines.push_back(std::move(record));
    }
    cv.notify_all();
  };

  const auto deadline_us =
      std::chrono::microseconds(flags.Int("deadline_us", 0));
  size_t offered = 0;
  size_t shed = 0;
  for (size_t i = 0; i < num_requests; ++i) {
    std::this_thread::sleep_until(arrivals[i]);
    QueryRequest request(templates[rng.Zipf(num_templates, zipf_s)]);
    request.penalty = sse;
    request.deadline = deadline_us;
    ++offered;
    if (!service.Submit(request, on_done).ok()) ++shed;
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return completed == offered - shed; });
  }
  service.Stop();
  const double wall_s = total.ElapsedSeconds();

  // Request attribution: the fraction of backend fetch spans carrying a
  // request id — with tracing on, every store_fetch_batch a quantum causes
  // should attribute to the request whose quantum ran it.
  uint64_t fetch_spans = 0;
  uint64_t attributed_fetch_spans = 0;
  for (const telemetry::SpanEvent& span :
       telemetry::MetricsRegistry::Default().Spans()) {
    if (std::string_view(span.name) != "store_fetch_batch") continue;
    ++fetch_spans;
    if (span.request_id != 0) ++attributed_fetch_spans;
  }
  const double attribution_pct =
      fetch_spans == 0 ? 0.0
                       : 100.0 * static_cast<double>(attributed_fetch_spans) /
                             static_cast<double>(fetch_spans);

  const std::string trace_out = flags.Str("trace_out", "");
  if (!trace_out.empty()) {
    std::ofstream out(trace_out, std::ios::binary);
    out << telemetry::ExportChromeTrace();
    if (!out) {
      std::cerr << "failed to write " << trace_out << std::endl;
      return 1;
    }
  }
  if (!timeline_out.empty()) {
    std::ofstream out(timeline_out, std::ios::binary);
    out << server::TimelinesJson(timelines);
    if (!out) {
      std::cerr << "failed to write " << timeline_out << std::endl;
      return 1;
    }
  }

  std::sort(latencies_us.begin(), latencies_us.end());
  auto pct = [&](double p) -> uint64_t {
    if (latencies_us.empty()) return 0;
    const size_t idx = std::min(latencies_us.size() - 1,
                                static_cast<size_t>(p * latencies_us.size()));
    return latencies_us[idx];
  };
  const double per_query_session =
      completed == 0 ? 0.0
                     : static_cast<double>(session_retrievals) / completed;

  Table table({"metric", "value", "notes"});
  table.AddRow({"offered", std::to_string(offered),
                std::to_string(qps) + " qps open loop"});
  table.AddRow({"completed", std::to_string(completed), ""});
  table.AddRow({"shed", std::to_string(shed), "admission backpressure"});
  table.AddRow({"failed", std::to_string(failed), "non-OK responses"});
  table.AddRow({"deadline_expired", std::to_string(deadline_expired),
                "approximate completions"});
  table.AddRow({"latency_p50_us", std::to_string(pct(0.50)), ""});
  table.AddRow({"latency_p95_us", std::to_string(pct(0.95)), ""});
  table.AddRow({"latency_p99_us", std::to_string(pct(0.99)), ""});
  table.AddRow({"session_io_per_query", FormatDouble(per_query_session, 2),
                "paper cost model"});
  table.AddRow({"fetch_attribution_pct", FormatDouble(attribution_pct, 4),
                std::to_string(attributed_fetch_spans) + "/" +
                    std::to_string(fetch_spans) +
                    " backend fetch spans carry a request id"});
  std::cout << "\nServing under open-loop load\n";
  table.Print(std::cout);
  std::cout << "elapsed: " << FormatDouble(wall_s, 3) << "s\n";

  const std::string csv = flags.Str("csv", "");
  if (!csv.empty() && !table.WriteCsv(csv)) {
    std::cerr << "failed to write " << csv << std::endl;
    return 1;
  }

  const double elapsed_ns = wall_s * 1e9;
  std::map<std::string, std::string> params = {
      {"qps", std::to_string(qps)},
      {"requests", std::to_string(num_requests)},
      {"templates", std::to_string(num_templates)},
      {"zipf", FormatDouble(zipf_s, 2)},
      {"workers", std::to_string(workers)}};
  BenchJson json;
  auto add = [&](const std::string& name, uint64_t value) {
    std::map<std::string, std::string> p = params;
    json.Add("serving_" + name, p, elapsed_ns, value);
  };
  add("completed", completed);
  add("shed", shed);
  add("failed", failed);
  add("latency_p50_us", pct(0.50));
  add("latency_p95_us", pct(0.95));
  add("latency_p99_us", pct(0.99));
  add("session_io", session_retrievals);
  add("fetch_spans", fetch_spans);
  add("attributed_fetch_spans", attributed_fetch_spans);
  if (!json.Write(flags.Str("json", "BENCH_serving.json"))) {
    std::cerr << "failed to write json report" << std::endl;
    return 1;
  }
  if (!WriteMetricsOut(flags)) return 1;
  // Exit contract for CI: failures (non-OK responses) are a build breaker;
  // sheds are load-dependent and reported, not judged.
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace wavebatch::bench

int main(int argc, char** argv) { return wavebatch::bench::Main(argc, argv); }
