// Batch-Biggest-B as an engine session: every progression order runs to
// the exact answers, biggest-B walks importances downward, partial
// estimates are B-term approximations, and the Theorem 1/2 trackers behave.

#include <cmath>
#include <iterator>
#include <memory>

#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "golden/progression_golden.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"

namespace wavebatch {
namespace {

using golden::Fixture;

EvalSession MakeSession(const Fixture& f, ProgressionOrder order,
                        uint64_t seed = 17) {
  EvalSession::Options opts;
  opts.order = order;
  opts.seed = seed;
  return EvalSession(f.plan, UnownedStore(*f.store), opts);
}

class ProgressiveOrderTest : public ::testing::TestWithParam<ProgressionOrder> {
};

TEST_P(ProgressiveOrderTest, CompletesToExactResults) {
  Fixture f;
  EvalSession ev = MakeSession(f, GetParam());
  EXPECT_EQ(ev.StepsTaken(), 0u);
  ASSERT_TRUE(ev.RunToExact().ok());
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepsTaken(), f.list->size());
  for (size_t i = 0; i < f.exact.size(); ++i) {
    EXPECT_NEAR(ev.Estimates()[i], f.exact[i],
                1e-6 * (1.0 + std::abs(f.exact[i])));
  }
}

TEST_P(ProgressiveOrderTest, EveryCoefficientFetchedExactlyOnce) {
  Fixture f;
  EvalSession ev = MakeSession(f, GetParam());
  ASSERT_TRUE(ev.RunToExact().ok());
  EXPECT_EQ(ev.io().retrievals, f.list->size());
}

TEST_P(ProgressiveOrderTest, NextImportanceZeroWhenDone) {
  Fixture f;
  EvalSession ev = MakeSession(f, GetParam());
  ASSERT_TRUE(ev.RunToExact().ok());
  EXPECT_EQ(ev.NextImportance(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, ProgressiveOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kRandom,
                                           ProgressionOrder::kKeyOrder));

TEST(ProgressiveTest, BiggestBRetrievesInDecreasingImportance) {
  Fixture f;
  EvalSession ev = MakeSession(f, ProgressionOrder::kBiggestB);
  double prev = ev.NextImportance();
  while (!ev.Done()) {
    const double next = ev.NextImportance();
    EXPECT_LE(next, prev + 1e-12);
    prev = next;
    ASSERT_TRUE(ev.Step().ok());
  }
}

TEST(ProgressiveTest, StepReturnsConsumedEntry) {
  Fixture f;
  EvalSession ev = MakeSession(f, ProgressionOrder::kBiggestB);
  const double top = ev.NextImportance();
  const size_t idx = ev.Step().value();
  EXPECT_DOUBLE_EQ(f.plan->importance(idx), top);
}

TEST_P(ProgressiveOrderTest, StepBatchOvershootStopsAtCompletion) {
  Fixture f;
  EvalSession ev = MakeSession(f, GetParam());
  EXPECT_EQ(ev.StepBatch(f.list->size() + 999).value(), f.list->size());
  EXPECT_TRUE(ev.Done());
  EXPECT_EQ(ev.StepBatch(4).value(), 0u);  // no-op once done
}

TEST_P(ProgressiveOrderTest, StepBatchGoldenMatchesScalarSteps) {
  // StepBatch(n) must reproduce n scalar Step() calls exactly: estimates,
  // steps taken, retrieval counts, and both penalty trackers, at every
  // batch boundary, under every progression order.
  Fixture f;
  const double k = f.store->SumAbs();
  EvalSession scalar = MakeSession(f, GetParam());
  EvalSession batched = MakeSession(f, GetParam());
  size_t bi = 0;
  while (!batched.Done()) {
    const size_t n = golden::kBatchSizes[bi++ % std::size(golden::kBatchSizes)];
    const size_t taken = batched.StepBatch(n).value();
    for (size_t i = 0; i < taken; ++i) ASSERT_TRUE(scalar.Step().ok());
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
  EXPECT_EQ(scalar.io().retrievals, f.list->size());
  EXPECT_EQ(batched.io(), scalar.io());
}

TEST(ProgressiveTest, PartialEstimatesAreBTermApproximations) {
  // After B steps the estimate equals the inner product of the B-term
  // truncated query with the data (cross-check against manual truncation).
  Fixture f;
  EvalSession ev = MakeSession(f, ProgressionOrder::kBiggestB);
  const size_t b = f.list->size() / 3;
  std::vector<size_t> used;
  for (size_t i = 0; i < b; ++i) used.push_back(ev.Step().value());
  std::vector<double> manual(f.batch.size(), 0.0);
  for (size_t idx : used) {
    const double data = f.store->Peek(f.list->keys()[idx]);
    f.list->ForEachUse(idx,
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
  const double k = f.store->SumAbs();
  EvalSession ev = MakeSession(f, ProgressionOrder::kBiggestB);
  while (!ev.Done()) {
    std::vector<double> err(f.exact.size());
    for (size_t i = 0; i < err.size(); ++i) {
      err[i] = ev.Estimates()[i] - f.exact[i];
    }
    // Allow for the tiny coefficients the rewrite thresholds away.
    EXPECT_LE(f.sse->Apply(err), ev.WorstCaseBound(k) + 1e-5 * (1.0 + k * k));
    ASSERT_TRUE(ev.StepBatch(7).ok());
  }
}

TEST(ProgressiveTest, ExpectedPenaltyDecreasesMonotonically) {
  Fixture f;
  EvalSession ev = MakeSession(f, ProgressionOrder::kBiggestB);
  double prev = ev.ExpectedPenalty(f.schema.cell_count());
  while (!ev.Done()) {
    ASSERT_TRUE(ev.Step().ok());
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
  EvalSession a = MakeSession(f, ProgressionOrder::kRandom, 99);
  EvalSession b = MakeSession(f, ProgressionOrder::kRandom, 99);
  EvalSession other = MakeSession(f, ProgressionOrder::kRandom, 100);
  bool any_differs = false;
  while (!a.Done()) {
    const size_t entry = a.Step().value();
    EXPECT_EQ(entry, b.Step().value());
    any_differs |= entry != other.Step().value();
    for (size_t q = 0; q < f.batch.size(); ++q) {
      EXPECT_EQ(a.Estimates()[q], b.Estimates()[q]);
    }
  }
  EXPECT_TRUE(any_differs) << "seed should change the random order";
}

TEST(ProgressiveTest, ImportanceMatchesPenaltyOfCoefficientColumn) {
  // Definition 3: ι_p(ξ) = p(q̂₀[ξ], …, q̂_{s−1}[ξ]).
  Fixture f;
  for (size_t i = 0; i < f.list->size(); ++i) {
    double expected = 0.0;
    f.list->ForEachUse(i, [&](uint32_t, double c) { expected += c * c; });
    EXPECT_NEAR(f.plan->importance(i), expected, 1e-12);
  }
}

}  // namespace
}  // namespace wavebatch
