// Exact batch evaluation through the engine. Shared: one kKeyOrder session
// over the merged master list, each coefficient fetched once. Naive: a
// workspace budget of 1, which gives every query its own group — the
// per-query evaluation of Section 2.2.

#include <memory>

#include "data/generators.h"
#include "engine/bounded.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "strategy/prefix_sum_strategy.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct Harness {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  const LinearStrategy& strategy;
  std::shared_ptr<const MasterList> list;

  explicit Harness(const LinearStrategy& strategy, size_t num_queries = 8)
      : rel(MakeUniformRelation(schema, 400, 3)),
        batch(schema),
        strategy(strategy) {
    Rng rng(5);
    for (size_t i = 0; i < num_queries; ++i) {
      std::vector<Interval> ivs;
      for (size_t d = 0; d < 2; ++d) {
        uint32_t lo = static_cast<uint32_t>(rng.UniformInt(16));
        uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(16 - lo));
        ivs.push_back({lo, hi});
      }
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, ivs).value()));
    }
    list = std::make_shared<const MasterList>(
        MasterList::Build(batch, strategy).value());
  }

  /// Shared evaluation, run to exactness.
  EvalSession Shared(const CoefficientStore& store) const {
    EvalSession::Options opts;
    opts.order = ProgressionOrder::kKeyOrder;
    EvalSession session(EvalPlan::FromMasterList(list, /*penalty=*/nullptr),
                        UnownedStore(store), opts);
    EXPECT_TRUE(session.RunToExact().ok());
    return session;
  }

  BoundedRunResult Naive(const CoefficientStore& store) const {
    return RunWithBoundedWorkspace(batch, strategy, store, 1).value();
  }
};

TEST(ExactTest, NaiveAndSharedAgreeWithBruteForce) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  Harness setup(strategy);
  auto store = strategy.BuildStore(setup.rel.FrequencyDistribution());

  std::vector<double> expected = setup.batch.BruteForce(setup.rel);
  BoundedRunResult naive = setup.Naive(*store);
  EvalSession shared = setup.Shared(*store);
  ASSERT_EQ(naive.results.size(), expected.size());
  ASSERT_EQ(shared.Estimates().size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(naive.results[i], expected[i], 1e-6 * (1 + expected[i]));
    EXPECT_NEAR(shared.Estimates()[i], expected[i], 1e-6 * (1 + expected[i]));
  }
}

TEST(ExactTest, SharedRetrievalCountIsMasterListSize) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  Harness setup(strategy);
  auto store = strategy.BuildStore(setup.rel.FrequencyDistribution());
  EXPECT_EQ(setup.Shared(*store).io().retrievals, setup.list->size());
}

TEST(ExactTest, NaiveRetrievalCountIsSumOfQuerySizes) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  Harness setup(strategy);
  auto store = strategy.BuildStore(setup.rel.FrequencyDistribution());
  EXPECT_EQ(setup.Naive(*store).io.retrievals,
            setup.list->TotalQueryCoefficients());
}

TEST(ExactTest, SharingNeverIncreasesIo) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kDb4);
  Harness setup(strategy, 16);
  auto store = strategy.BuildStore(setup.rel.FrequencyDistribution());
  const uint64_t naive = setup.Naive(*store).io.retrievals;
  const uint64_t shared = setup.Shared(*store).io().retrievals;
  EXPECT_LE(shared, naive);
  EXPECT_LT(shared, naive);  // overlap guaranteed here
}

TEST(ExactTest, WorksWithPrefixSums) {
  Schema schema = Schema::Uniform(2, 16);
  PrefixSumStrategy strategy(schema, {{0, 0}});
  Harness setup(strategy);
  auto store = strategy.BuildStore(setup.rel.FrequencyDistribution());
  std::vector<double> expected = setup.batch.BruteForce(setup.rel);
  EvalSession shared = setup.Shared(*store);
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(shared.Estimates()[i], expected[i], 1e-9);
  }
  // At most 4 corners per 2-D query.
  EXPECT_LE(shared.io().retrievals, 4u * setup.batch.size());
}

TEST(ExactTest, EmptyBatch) {
  Schema schema = Schema::Uniform(2, 16);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  auto store = strategy.BuildStore(DenseCube(schema));
  auto list = std::make_shared<const MasterList>(
      MasterList::FromQueryVectors({}));
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession session(EvalPlan::FromMasterList(list, /*penalty=*/nullptr),
                      UnownedStore(*store), opts);
  ASSERT_TRUE(session.RunToExact().ok());
  EXPECT_TRUE(session.Estimates().empty());
  EXPECT_EQ(session.io().retrievals, 0u);
}

}  // namespace
}  // namespace wavebatch
