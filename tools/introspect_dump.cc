// Introspection smoke driver: runs a small traced serving workload (the
// test fixture's 2x16 Haar cube, a handful of Count batches through
// QueryService) and then either
//
//   dump mode   ./introspect_dump --out_dir=DIR
//               writes metrics.prom, statusz.json, tracez.json, and
//               trace.json (Chrome trace) — the text fallback for
//               environments that cannot open a listener;
//
//   serve mode  ./introspect_dump --serve_s=N [--port=P]
//               starts the debug HTTP listener (port 0 = ephemeral; the
//               bound port prints as "listening on 127.0.0.1:<port>"),
//               serves /metrics, /statusz, /tracez for N seconds.
//
// Either mode exits 1 unless every request of the workload is answered OK
// and exact. CI's introspection-smoke job uses serve mode to curl every
// endpoint and dump mode to exercise the fallback; dump mode is also the
// ctest test tool.introspect_dump.

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "penalty/sse.h"
#include "server/debug_http.h"
#include "server/introspection.h"
#include "server/query_service.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/export.h"
#include "util/random.h"

namespace wavebatch {
namespace {

using server::DebugHttpServer;
using server::QueryRequest;
using server::QueryResponse;
using server::QueryService;
using server::QueryServiceOptions;

std::string FlagValue(int argc, char** argv, const std::string& name,
                      const std::string& fallback) {
  const std::string prefix = "--" + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return fallback;
}

QueryBatch MakeBatch(const Schema& schema, uint64_t template_id) {
  QueryBatch batch(schema);
  Rng rng(1000 + template_id);
  for (size_t i = 0; i < 6; ++i) {
    uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
    uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
    uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
    uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
  }
  return batch;
}

/// Pushes a traced workload through the service so every endpoint has real
/// content: 8 requests over 4 templates, drained synchronously. True when
/// every request was answered OK and exact.
bool RunWorkload(QueryService& service, const Schema& schema) {
  auto sse = std::make_shared<SsePenalty>();
  std::vector<QueryResponse> responses(8);
  for (size_t i = 0; i < responses.size(); ++i) {
    QueryRequest request(MakeBatch(schema, i % 4));
    request.penalty = sse;
    Status admitted = service.Submit(request, [&responses, i](QueryResponse r) {
      responses[i] = std::move(r);
    });
    if (!admitted.ok()) std::cerr << "submit: " << admitted << std::endl;
  }
  service.RunUntilIdle();
  size_t traced = 0;
  size_t exact = 0;
  for (const QueryResponse& r : responses) {
    if (r.request_id != 0 && !r.timeline.empty()) ++traced;
    if (r.status.ok() && r.exact) ++exact;
  }
  std::cout << "workload: " << responses.size() << " requests, " << exact
            << " answered OK and exact, " << traced
            << " traced with timelines" << std::endl;
  return exact == responses.size();
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  if (!out) {
    std::cerr << "failed to write " << path << std::endl;
    return false;
  }
  std::cout << "wrote " << path << " (" << content.size() << " bytes)"
            << std::endl;
  return true;
}

int Main(int argc, char** argv) {
  const std::string out_dir = FlagValue(argc, argv, "out_dir", "");
  const int serve_s = std::stoi(FlagValue(argc, argv, "serve_s", "0"));
  const int port = std::stoi(FlagValue(argc, argv, "port", "0"));
  if (out_dir.empty() && serve_s <= 0) {
    std::cerr << "usage: introspect_dump --out_dir=DIR | --serve_s=N "
                 "[--port=P]"
              << std::endl;
    return 2;
  }

  Schema schema = Schema::Uniform(2, 16);
  Relation rel = MakeUniformRelation(schema, 600, 11);
  WaveletStrategy builder(schema, WaveletKind::kHaar);
  std::shared_ptr<const CoefficientStore> store(
      builder.BuildStore(rel.FrequencyDistribution()));
  auto strategy =
      std::make_shared<WaveletStrategy>(schema, WaveletKind::kHaar);

  QueryServiceOptions options;
  options.default_quantum = 32;
  QueryService service(store, strategy, options);

  if (serve_s > 0) {
    DebugHttpServer http;
    server::RegisterIntrospection(&http, &service);
    Status started = http.Start(static_cast<uint16_t>(port));
    if (!started.ok()) {
      std::cerr << "listener: " << started << std::endl;
      return 1;
    }
    // The port line is the serve-mode contract: CI parses it to curl.
    std::cout << "listening on 127.0.0.1:" << http.port() << std::endl;
    const bool answered = RunWorkload(service, schema);
    std::this_thread::sleep_for(std::chrono::seconds(serve_s));
    http.Stop();
    return answered ? 0 : 1;
  }

  bool ok = RunWorkload(service, schema);
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    std::cerr << "cannot create " << out_dir << ": " << ec.message()
              << std::endl;
    return 1;
  }
  ok &= WriteFile(out_dir + "/metrics.prom", telemetry::ExportPrometheus());
  ok &= WriteFile(out_dir + "/statusz.json", server::StatuszJson(service));
  ok &= WriteFile(out_dir + "/tracez.json", server::TracezJson(&service));
  ok &= WriteFile(out_dir + "/trace.json", telemetry::ExportChromeTrace());
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace wavebatch

int main(int argc, char** argv) { return wavebatch::Main(argc, argv); }
