// Quickstart: build a small data cube, materialize its wavelet view, and
// answer a batch of range-sum queries exactly and progressively through
// the engine layer (EvalPlan + EvalSession).
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <memory>

#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "data/generators.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"

using namespace wavebatch;

int main() {
  // 1. A schema: two attributes, each with domain [0, 64).
  Schema schema = Schema::Uniform(2, 64);

  // 2. Some data: 10,000 random tuples (a Relation is just a bag of rows).
  Relation relation = MakeUniformRelation(schema, 10000, /*seed=*/1);

  // 3. The storage strategy: the wavelet view of the data frequency
  //    distribution. Haar suffices for COUNT; use Db4 for degree-1 SUMs.
  //    BuildStore returns a unique_ptr; sessions share it as a
  //    shared_ptr<const CoefficientStore> — reads are const and
  //    thread-safe, so any number of sessions may use it at once.
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  std::shared_ptr<const CoefficientStore> store =
      strategy.BuildStore(relation.FrequencyDistribution());

  // 4. A batch of queries, submitted together so they share I/O.
  QueryBatch batch(schema);
  Range all = Range::All(schema);
  batch.Add(RangeSumQuery::Count(all.Restrict(0, 0, 31), "count lower half"));
  batch.Add(RangeSumQuery::Count(all.Restrict(0, 32, 63), "count upper half"));
  batch.Add(RangeSumQuery::Sum(all.Restrict(1, 10, 53), 0, "sum of x0"));
  batch.Add(RangeSumQuery::SumProduct(all, 0, 1, "sum of x0*x1"));

  // 5. Plan once: the master list merges the queries' wavelet
  //    coefficients (each fetched once, I/O shared across the batch) and
  //    precomputes the penalty-optimal progression order. Plans are
  //    immutable — cache them and share them across sessions.
  auto sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan =
      EvalPlan::Build(batch, strategy, sse).value();

  // 6. Exact evaluation: a key-ordered session run to completion.
  EvalSession::Options exact_opts;
  exact_opts.order = ProgressionOrder::kKeyOrder;
  EvalSession exact(plan, store, exact_opts);
  exact.RunToExact();
  std::printf("exact results (%llu coefficient retrievals, vs %llu naive):\n",
              static_cast<unsigned long long>(exact.io().retrievals),
              static_cast<unsigned long long>(
                  plan->list().TotalQueryCoefficients()));
  for (size_t i = 0; i < batch.size(); ++i) {
    std::printf("  %-20s = %.1f\n", batch.query(i).label().c_str(),
                exact.Estimates()[i]);
  }

  // 7. Progressive evaluation (Batch-Biggest-B, the default order):
  //    retrieve coefficients in decreasing importance; estimates are
  //    usable at every step and exact at the end. Each session tracks its
  //    own I/O — the shared store keeps no counters.
  EvalSession progressive(plan, store);
  std::printf("\nprogressive estimates (SSE-optimal order):\n");
  for (size_t budget : {8, 32, 128}) {
    progressive.StepBatch(budget - progressive.StepsTaken());
    std::printf("  after %3llu retrievals:",
                static_cast<unsigned long long>(progressive.StepsTaken()));
    for (double e : progressive.Estimates()) std::printf(" %10.1f", e);
    std::printf("\n");
  }
  progressive.RunToExact();
  std::printf("  exact    (%4llu)     :",
              static_cast<unsigned long long>(progressive.StepsTaken()));
  for (double e : progressive.Estimates()) std::printf(" %10.1f", e);
  std::printf("\n");
  return 0;
}
