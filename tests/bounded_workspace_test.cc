#include "engine/bounded.h"

#include <algorithm>
#include <cmath>

#include "data/generators.h"
#include "gtest/gtest.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

struct WorkspaceFixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  WaveletStrategy strategy{schema, WaveletKind::kHaar};
  std::unique_ptr<CoefficientStore> store;
  MasterList list;
  std::vector<double> expected;

  WorkspaceFixture() : rel(MakeUniformRelation(schema, 400, 3)),
                       batch(schema) {
    Rng rng(5);
    for (int i = 0; i < 16; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    store = strategy.BuildStore(rel.FrequencyDistribution());
    list = MasterList::Build(batch, strategy).value();
    expected = batch.BruteForce(rel);
  }

  BoundedRunResult Run(uint64_t budget) const {
    return RunWithBoundedWorkspace(batch, strategy, *store, budget).value();
  }
};

TEST(BoundedWorkspaceTest, ExactAtEveryBudget) {
  WorkspaceFixture f;
  for (uint64_t budget : {uint64_t{1}, uint64_t{50}, uint64_t{200},
                          uint64_t{100000}}) {
    BoundedRunResult res = f.Run(budget);
    ASSERT_EQ(res.results.size(), f.expected.size());
    for (size_t i = 0; i < f.expected.size(); ++i) {
      EXPECT_NEAR(res.results[i], f.expected[i],
                  1e-6 * (1.0 + std::abs(f.expected[i])))
          << "budget " << budget;
    }
  }
}

TEST(BoundedWorkspaceTest, UnboundedBudgetMatchesSharedCost) {
  WorkspaceFixture f;
  BoundedRunResult res = f.Run(uint64_t{1} << 40);
  EXPECT_EQ(res.num_groups, 1u);
  EXPECT_EQ(res.io.retrievals, f.list.size());
  EXPECT_EQ(res.peak_workspace, f.list.TotalQueryCoefficients());
}

TEST(BoundedWorkspaceTest, MinimalBudgetMatchesNaiveCost) {
  WorkspaceFixture f;
  // Budget 1: every query exceeds it, so each gets its own group.
  BoundedRunResult res = f.Run(1);
  EXPECT_EQ(res.num_groups, f.batch.size());
  EXPECT_EQ(res.io.retrievals, f.list.TotalQueryCoefficients());
}

TEST(BoundedWorkspaceTest, IntermediateBudgetsInterpolate) {
  WorkspaceFixture f;
  const uint64_t mid_budget = f.list.TotalQueryCoefficients() / 4;
  BoundedRunResult res = f.Run(mid_budget);
  EXPECT_GT(res.num_groups, 1u);
  EXPECT_LT(res.num_groups, f.batch.size());
  EXPECT_GE(res.io.retrievals, f.list.size());
  EXPECT_LE(res.io.retrievals, f.list.TotalQueryCoefficients());
  EXPECT_LE(res.peak_workspace, mid_budget);
}

TEST(BoundedWorkspaceTest, PeakWorkspaceRespectsBudgetWhenQueriesFit) {
  WorkspaceFixture f;
  uint64_t max_single = 0;
  for (const auto& nnz : f.list.PerQueryCoefficients()) {
    max_single = std::max(max_single, nnz);
  }
  const uint64_t budget = max_single * 2;
  BoundedRunResult res = f.Run(budget);
  EXPECT_LE(res.peak_workspace, budget);
}

}  // namespace
}  // namespace wavebatch
