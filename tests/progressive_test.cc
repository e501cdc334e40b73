#include "core/progressive.h"

#include <iterator>
#include <memory>

#include "core/exact.h"
#include "data/generators.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct Fixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  MasterList list;
  std::unique_ptr<CoefficientStore> store;
  std::vector<double> exact;

  Fixture() : rel(MakeUniformRelation(schema, 500, 3)), batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    Rng rng(9);
    for (int i = 0; i < 12; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    list = MasterList::Build(batch, strategy).value();
    store = strategy.BuildStore(rel.FrequencyDistribution());
    exact = batch.BruteForce(rel);
  }
};

class ProgressiveOrderTest : public ::testing::TestWithParam<ProgressionOrder> {
};

TEST_P(ProgressiveOrderTest, CompletesToExactResults) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get(), GetParam(), 17);
  EXPECT_EQ(ev.StepsTaken(), 0u);
  ev.RunToCompletion();
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepsTaken(), f.list.size());
  for (size_t i = 0; i < f.exact.size(); ++i) {
    EXPECT_NEAR(ev.Estimates()[i], f.exact[i],
                1e-6 * (1.0 + std::abs(f.exact[i])));
  }
}

TEST_P(ProgressiveOrderTest, EveryCoefficientFetchedExactlyOnce) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get(), GetParam(), 17);
  ev.RunToCompletion();
  EXPECT_EQ(ev.io().retrievals, f.list.size());
}

TEST_P(ProgressiveOrderTest, NextImportanceZeroWhenDone) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get(), GetParam(), 17);
  ev.RunToCompletion();
  EXPECT_EQ(ev.NextImportance(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ProgressiveOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kRandom,
                                           ProgressionOrder::kKeyOrder));

TEST(ProgressiveTest, BiggestBRetrievesInDecreasingImportance) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get());
  double prev = ev.NextImportance();
  while (!ev.Done()) {
    const double next = ev.NextImportance();
    EXPECT_LE(next, prev + 1e-12);
    prev = next;
    ev.Step();
  }
}

TEST(ProgressiveTest, StepReturnsConsumedEntry) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get());
  const double top = ev.NextImportance();
  const size_t idx = ev.Step();
  EXPECT_DOUBLE_EQ(ev.ImportanceOf(idx), top);
}

TEST(ProgressiveTest, StepManyStopsAtCompletion) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get());
  ev.StepMany(f.list.size() * 10);
  EXPECT_TRUE(ev.Done());
}

TEST_P(ProgressiveOrderTest, StepManyOvershootMidRunStopsAtCompletion) {
  // n > TotalSteps() - StepsTaken() must finish cleanly, not over-step.
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get(), GetParam(), 17);
  ev.StepMany(f.list.size() / 2);
  const uint64_t taken = ev.StepsTaken();
  ev.StepMany((f.list.size() - taken) + 1000);
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepsTaken(), f.list.size());
  EXPECT_EQ(ev.io().retrievals, f.list.size());
}

TEST_P(ProgressiveOrderTest, StepBatchOvershootStopsAtCompletion) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get(), GetParam(), 17);
  EXPECT_EQ(ev.StepBatch(f.list.size() + 999), f.list.size());
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepBatch(4), 0u);  // no-op once done
}

TEST_P(ProgressiveOrderTest, StepBatchGoldenMatchesScalarSteps) {
  // StepBatch(n) must reproduce n scalar Step() calls exactly: estimates,
  // steps taken, retrieval counts, and both penalty trackers, at every
  // batch boundary, under every progression order.
  Fixture f;
  SsePenalty sse;
  const double k = f.store->SumAbs();
  ProgressiveEvaluator scalar(&f.list, &sse, f.store.get(), GetParam(), 17);
  ProgressiveEvaluator batched(&f.list, &sse, f.store.get(), GetParam(), 17);
  const size_t batch_sizes[] = {1, 3, 7, 16, 64};
  size_t bi = 0;
  while (!batched.Done()) {
    const size_t n = batch_sizes[bi++ % std::size(batch_sizes)];
    const size_t taken = batched.StepBatch(n);
    for (size_t i = 0; i < taken; ++i) scalar.Step();
    ASSERT_EQ(batched.StepsTaken(), scalar.StepsTaken());
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(batched.Estimates()[q], scalar.Estimates()[q])
          << "query " << q << " after " << batched.StepsTaken() << " steps";
    }
    EXPECT_EQ(batched.WorstCaseBound(k), scalar.WorstCaseBound(k));
    EXPECT_EQ(batched.ExpectedPenalty(f.schema.cell_count()),
              scalar.ExpectedPenalty(f.schema.cell_count()));
  }
  EXPECT_TRUE(scalar.Done());
  // Batched and scalar twins cost the same retrievals.
  EXPECT_EQ(scalar.io().retrievals, f.list.size());
  EXPECT_EQ(batched.io(), scalar.io());
}

TEST(ProgressiveTest, PartialEstimatesAreBTermApproximations) {
  // After B steps the estimate equals the inner product of the B-term
  // truncated query with the data (cross-check against manual truncation).
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get());
  const size_t b = f.list.size() / 3;
  std::vector<size_t> used;
  for (size_t i = 0; i < b; ++i) used.push_back(ev.Step());
  std::vector<double> manual(f.batch.size(), 0.0);
  for (size_t idx : used) {
    const double data = f.store->Peek(f.list.keys()[idx]);
    f.list.ForEachUse(idx,
                      [&](uint32_t q, double c) { manual[q] += c * data; });
  }
  for (size_t q = 0; q < manual.size(); ++q) {
    EXPECT_NEAR(ev.Estimates()[q], manual[q], 1e-9);
  }
}

TEST(ProgressiveTest, WorstCaseBoundDominatesActualPenalty) {
  // Theorem 1: for the biggest-B progression, the SSE of the current
  // estimate never exceeds K²·ι(ξ′) where K = Σ|Δ̂|.
  Fixture f;
  SsePenalty sse;
  const double k = f.store->SumAbs();
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get());
  while (!ev.Done()) {
    std::vector<double> err(f.exact.size());
    for (size_t i = 0; i < err.size(); ++i) {
      err[i] = ev.Estimates()[i] - f.exact[i];
    }
    // Allow for the tiny coefficients the rewrite thresholds away.
    EXPECT_LE(sse.Apply(err), ev.WorstCaseBound(k) + 1e-5 * (1.0 + k * k));
    ev.StepMany(7);
  }
}

TEST(ProgressiveTest, ExpectedPenaltyDecreasesMonotonically) {
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get());
  double prev = ev.ExpectedPenalty(f.schema.cell_count());
  while (!ev.Done()) {
    ev.Step();
    const double cur = ev.ExpectedPenalty(f.schema.cell_count());
    EXPECT_LE(cur, prev + 1e-12);
    prev = cur;
  }
  EXPECT_NEAR(prev, 0.0, 1e-9);
}

TEST(ProgressiveTest, RandomOrderIsSeedDeterministic) {
  // Same seed: the full progression (entry sequence and estimates) is
  // reproducible; a different seed permutes the list differently.
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator a(&f.list, &sse, f.store.get(),
                         ProgressionOrder::kRandom, 99);
  ProgressiveEvaluator b(&f.list, &sse, f.store.get(),
                         ProgressionOrder::kRandom, 99);
  ProgressiveEvaluator other(&f.list, &sse, f.store.get(),
                             ProgressionOrder::kRandom, 100);
  bool any_differs = false;
  while (!a.Done()) {
    const size_t entry = a.Step();
    EXPECT_EQ(entry, b.Step());
    any_differs |= entry != other.Step();
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(a.Estimates()[q], b.Estimates()[q]);
    }
  }
  EXPECT_TRUE(any_differs) << "seed should change the random order";
}

TEST(ProgressiveTest, ImportanceMatchesPenaltyOfCoefficientColumn) {
  // Definition 3: ι_p(ξ) = p(q̂₀[ξ], …, q̂_{s−1}[ξ]).
  Fixture f;
  SsePenalty sse;
  ProgressiveEvaluator ev(&f.list, &sse, f.store.get());
  for (size_t i = 0; i < f.list.size(); ++i) {
    double expected = 0.0;
    f.list.ForEachUse(i, [&](uint32_t, double c) { expected += c * c; });
    EXPECT_NEAR(ev.ImportanceOf(i), expected, 1e-12);
  }
}

}  // namespace
}  // namespace wavebatch
