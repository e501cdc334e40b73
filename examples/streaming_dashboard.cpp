// A live dashboard over a streaming fact table. Tuples arrive while the
// dashboard refreshes: each refresh pins the latest published epoch of a
// VersionedStore, evaluates its range-sum batch progressively against that
// immutable snapshot, and is completely isolated from concurrent ingests —
// a background merge folds the accumulated deltas into the base plane
// without ever blocking a reader. A plan depends only on the batch, so
// every refresh, at every epoch, reuses the one cached plan.
//
//   ./build/examples/streaming_dashboard

#include <cstdio>
#include <memory>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "engine/plan_cache.h"
#include "penalty/sse.h"
#include "storage/versioned_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/thread_pool.h"

using namespace wavebatch;

int main() {
  // A 64x64 two-attribute cube under a Haar wavelet synopsis.
  Schema schema = Schema::Uniform(2, 64);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);

  // Historical data builds the base coefficient plane; the stream arrives
  // in refresh-sized chunks afterwards.
  Relation history = MakeUniformRelation(schema, 4000, 11);
  Relation stream = MakeUniformRelation(schema, 1200, 23);
  constexpr size_t kChunk = 300;

  VersionedStore store(strategy.BuildStore(history.FrequencyDistribution()));
  ThreadPool merge_pool(1);

  // The dashboard's panel: four quadrant counts plus the grand total.
  QueryBatch batch(schema);
  batch.Add(RangeSumQuery::Count(Range::Create(schema, {{0, 31}, {0, 31}}).value()));
  batch.Add(RangeSumQuery::Count(Range::Create(schema, {{32, 63}, {0, 31}}).value()));
  batch.Add(RangeSumQuery::Count(Range::Create(schema, {{0, 31}, {32, 63}}).value()));
  batch.Add(RangeSumQuery::Count(Range::Create(schema, {{32, 63}, {32, 63}}).value()));
  batch.Add(RangeSumQuery::Count(Range::All(schema)));

  auto sse = std::make_shared<SsePenalty>();
  PlanCache cache(8);

  // A viewer opens the dashboard before any stream data lands. Its session
  // pins epoch 0: nothing that happens below can change its answers.
  auto plan0 = cache.GetOrBuild(batch, strategy, sse);
  if (!plan0.ok()) return 1;
  EvalSession pinned(plan0.value(), store.PinVersion());

  std::printf("%-8s %-6s %-8s %10s %10s %10s %10s %10s\n", "refresh",
              "epoch", "delta", "q0", "q1", "q2", "q3", "total");
  Relation seen(schema);
  for (const Tuple& t : history.tuples()) seen.Add(t);

  size_t next = 0;
  for (int refresh = 1; refresh <= 4; ++refresh) {
    // Ingest one chunk of arrivals: each tuple becomes the sparse
    // coefficient delta of the paper's O((2δ+2)^d log^d N) update rule.
    for (size_t i = 0; i < kChunk && next < stream.tuples().size(); ++i) {
      const Tuple& t = stream.tuples()[next++];
      store.Ingest(strategy.TransformUpdate(t, 1.0).value());
      seen.Add(t);
    }
    const size_t delta_entries = store.delta_entries();
    store.Publish();

    // Refresh: reuse the cached plan, evaluate against the pinned snapshot.
    auto plan = cache.GetOrBuild(batch, strategy, sse);
    if (!plan.ok()) return 1;
    EvalSession session(plan.value(), store.PinVersion());
    if (!session.RunToExact().ok()) return 1;
    std::printf("%-8d %-6llu %-8zu", refresh,
                static_cast<unsigned long long>(store.epoch()),
                delta_entries);
    for (size_t q = 0; q < batch.size(); ++q) {
      std::printf(" %10.1f", session.Estimates()[q]);
    }
    std::printf("\n");

    // Halfway through, fold the overlay into the base off-thread. Readers
    // keep answering from their pinned snapshots while the fold runs; the
    // merge publishes a fresh epoch.
    if (refresh == 2) {
      store.StartBackgroundMerge(&merge_pool);
      store.WaitForMerge();
      std::printf("merged -> epoch %llu\n",
                  static_cast<unsigned long long>(store.epoch()));
    }
  }

  // The early viewer still sees the pre-stream world, bit for bit.
  if (!pinned.RunToExact().ok()) return 1;
  std::printf("pinned@0 %-6s %-8s", "", "");
  for (size_t q = 0; q < batch.size(); ++q) {
    std::printf(" %10.1f", pinned.Estimates()[q]);
  }
  std::printf("\n");

  // Ground truth for the final refresh: brute force over everything seen.
  std::printf("%-24s", "exact");
  for (size_t q = 0; q < batch.size(); ++q) {
    std::printf(" %10.1f", batch.queries()[q].BruteForce(seen));
  }
  std::printf("\n");
  return 0;
}
