// The query-serving front end in one page. Several "dashboard clients"
// submit overlapping range-sum batches to a QueryService; the service runs
// each as a session over the cube's coefficient store. A request that
// may stop early (here client 2, with a target bound) is progressive: it
// walks Batch-Biggest-B and is scheduled first, by the bound reduction its
// next quantum buys. Requests that must run to exact are served after it,
// oldest first, each in key order like the paper's exact batch evaluation.
// Each response reports the paper's per-session I/O (coefficient
// retrievals) and the Theorem-1 bound it completed with.
//
//   ./build/examples/serving_quickstart

#include <cstdio>
#include <memory>
#include <vector>

#include "data/generators.h"
#include "penalty/sse.h"
#include "server/query_service.h"
#include "strategy/wavelet_strategy.h"

using namespace wavebatch;

int main() {
  // A 64x64 two-attribute cube under a Haar wavelet synopsis.
  Schema schema = Schema::Uniform(2, 64);
  auto strategy = std::make_shared<WaveletStrategy>(schema, WaveletKind::kHaar);
  Relation relation = MakeUniformRelation(schema, 5000, 17);
  std::shared_ptr<const CoefficientStore> store =
      strategy->BuildStore(relation.FrequencyDistribution());
  auto sse = std::make_shared<SsePenalty>();

  // Three clients watching overlapping slices of the same cube.
  std::vector<QueryBatch> clients;
  for (int c = 0; c < 3; ++c) {
    QueryBatch batch(schema);
    const uint32_t lo = static_cast<uint32_t>(8 * c);
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{lo, lo + 31}, {0, 31}}).value()));
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{lo, lo + 31}, {32, 63}}).value()));
    batch.Add(RangeSumQuery::Count(Range::All(schema)));
    clients.push_back(std::move(batch));
  }

  server::QueryServiceOptions options;
  options.max_live_sessions = 8;
  options.default_quantum = 64;
  server::QueryService service(store, strategy, options);

  std::vector<server::QueryResponse> responses(clients.size());
  for (size_t c = 0; c < clients.size(); ++c) {
    server::QueryRequest request(clients[c]);
    request.penalty = sse;
    // Client 2 is a preview pane: it stops as soon as the worst-case
    // penalty bound falls under its target instead of running to exact.
    if (c == 2) request.target_bound = 1e-3;
    Status admitted = service.Submit(
        request, [&responses, c](server::QueryResponse r) {
          responses[c] = std::move(r);
        });
    if (!admitted.ok()) {
      std::printf("client %zu shed: %s\n", c, admitted.ToString().c_str());
      return 1;
    }
  }

  // Deterministic drain: the scheduler and every callback run on this
  // thread, and the exact clients' quanta run side by side on the shared
  // pool, each session stepping as it would alone. Start(n)/Stop() is the
  // threaded equivalent for real deployments.
  service.RunUntilIdle();

  std::printf("%-7s %-6s %12s %12s %10s %12s\n", "client", "exact", "steps",
              "session_io", "bound", "total");
  for (size_t c = 0; c < responses.size(); ++c) {
    const server::QueryResponse& r = responses[c];
    if (!r.status.ok()) return 1;
    std::printf("%-7zu %-6s %8llu/%-3llu %12llu %10.2e %12.1f\n", c,
                r.exact ? "yes" : "no",
                static_cast<unsigned long long>(r.steps_taken),
                static_cast<unsigned long long>(r.total_steps),
                static_cast<unsigned long long>(r.io.retrievals),
                r.worst_case_bound, r.estimates.back());
  }
  return 0;
}
