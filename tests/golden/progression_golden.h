// The shared evaluation fixture of the engine tests, and the frozen
// outputs of Batch-Biggest-B on it. Tests check the engine against these
// recorded values and against brute force (QueryBatch::BruteForce) — never
// against a second copy of the algorithm.

#ifndef WAVEBATCH_TESTS_GOLDEN_PROGRESSION_GOLDEN_H_
#define WAVEBATCH_TESTS_GOLDEN_PROGRESSION_GOLDEN_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/block_store.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch::golden {

inline constexpr size_t kNumQueries = 12;

/// Parameters of the recorded runs. Coefficient-granularity runs step with
/// StepBatch, cycling through kBatchSizes; kRandom uses kRandomSeed; kSkip
/// runs fail master-list keys 0, kSkipStride, 2·kSkipStride, …; block mode
/// groups keys by key / kBlockSize. Bounds use K = store->SumAbs() and
/// N^d = schema.cell_count().
inline constexpr size_t kBatchSizes[] = {1, 3, 7, 16, 64};
inline constexpr uint64_t kRandomSeed = 17;
inline constexpr size_t kSkipStride = 3;
inline constexpr uint64_t kBlockSize = 8;

/// A 2×16 Haar cube over 500 uniform tuples, 12 random COUNT ranges, their
/// master list under an SSE-ranked plan, the Δ̂ store, and the brute-force
/// answers.
struct Fixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const MasterList> list;
  std::unique_ptr<CoefficientStore> store;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;
  std::vector<double> exact;

  Fixture() : rel(MakeUniformRelation(schema, 500, 3)), batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    Rng rng(9);
    for (size_t i = 0; i < kNumQueries; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    list = std::make_shared<const MasterList>(
        MasterList::Build(batch, strategy).value());
    store = strategy.BuildStore(rel.FrequencyDistribution());
    plan = EvalPlan::FromMasterList(list, sse);
    exact = batch.BruteForce(rel);
  }

  uint64_t MaxKey() const {
    uint64_t max_key = 0;
    store->ForEachNonZero(
        [&](uint64_t key, double) { max_key = std::max(max_key, key); });
    return max_key;
  }

  /// The recording backend: the store's coefficients behind an unbuffered
  /// BlockStore of kBlockSize-key blocks, so every IoStats field counts.
  std::unique_ptr<BlockStore> MakeBlockBackend() const {
    auto inner = std::make_unique<HashStore>();
    store->ForEachNonZero(
        [&](uint64_t key, double value) { inner->Add(key, value); });
    return std::make_unique<BlockStore>(std::move(inner), kBlockSize,
                                        /*cache_blocks=*/0);
  }
};

/// Session state after one StepBatch of a recorded run.
struct Step {
  uint64_t steps;
  IoStats io;  // on the block backend
  double worst_case_bound;
  double expected_penalty;
  double next_importance;
  double skipped_importance;
  double estimates[kNumQueries];
};

/// Session state after one StepBlock of the block-mode run.
struct BlockStep {
  uint64_t blocks_fetched;
  uint64_t coefficients_fetched;
  IoStats io;  // on the block backend
  double next_block_importance;
  double estimates[kNumQueries];
};

/// One RunWithBoundedWorkspace over the fixture store.
struct BoundedRun {
  uint64_t budget;
  uint64_t retrievals;
  uint64_t peak_workspace;
  size_t num_groups;
  double results[kNumQueries];
};

#include "progression_golden.inc"

inline std::span<const Step> Recorded(ProgressionOrder order,
                                      FaultPolicy policy) {
  return kRuns[static_cast<int>(order)][policy == FaultPolicy::kSkip];
}

/// %a rendering: gtest prints doubles 1 ulp apart as the same decimal.
inline std::string Hex(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

/// EXPECT_PRED_FORMAT2 predicate: bitwise double equality.
inline ::testing::AssertionResult SameBits(const char* want_expr,
                                           const char* got_expr, double want,
                                           double got) {
  if (std::bit_cast<uint64_t>(want) == std::bit_cast<uint64_t>(got)) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << got_expr << " = " << Hex(got) << ", golden " << want_expr << " = "
         << Hex(want);
}

/// The IoStats a backend charges for a recorded row: all four fields on
/// the block backend, only retrievals on any other.
inline IoStats ExpectedIo(const IoStats& recorded, bool block_backend) {
  if (block_backend) return recorded;
  IoStats io;
  io.retrievals = recorded.retrievals;
  return io;
}

inline void ExpectEstimates(std::span<const double> want,
                            const std::vector<double>& got) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t q = 0; q < want.size(); ++q) {
    EXPECT_PRED_FORMAT2(SameBits, want[q], got[q]) << "query " << q;
  }
}

/// Checks `session`, a run over `f`'s plan and store, against recorded row
/// `want`, and Theorem 1 against brute force: the SSE of the estimates
/// against `f.exact` is within the reported bound (up to rounding).
inline void ExpectStep(const Step& want, const EvalSession& session,
                       const Fixture& f, bool block_backend) {
  ASSERT_EQ(session.StepsTaken(), want.steps);
  SCOPED_TRACE("after " + std::to_string(want.steps) + " steps");
  ExpectEstimates(want.estimates, session.Estimates());
  const double bound = session.WorstCaseBound(f.store->SumAbs());
  EXPECT_PRED_FORMAT2(SameBits, want.worst_case_bound, bound);
  std::vector<double> error(f.exact.size());
  for (size_t q = 0; q < error.size(); ++q) {
    error[q] = session.Estimates()[q] - f.exact[q];
  }
  EXPECT_LE(f.sse->Apply(error), bound * (1.0 + 1e-6) + 1e-4);
  EXPECT_PRED_FORMAT2(SameBits, want.expected_penalty,
                      session.ExpectedPenalty(f.schema.cell_count()));
  EXPECT_PRED_FORMAT2(SameBits, want.next_importance,
                      session.NextImportance());
  EXPECT_PRED_FORMAT2(SameBits, want.skipped_importance,
                      session.SkippedImportance());
  EXPECT_EQ(session.io(), ExpectedIo(want.io, block_backend));
}

/// Replays a recorded coefficient-granularity run on `session` with
/// StepBatch, checking every boundary.
inline void ExpectBatchedRun(std::span<const Step> want, EvalSession& session,
                             const Fixture& f, bool block_backend) {
  size_t bi = 0;
  for (const Step& row : want) {
    const size_t n = kBatchSizes[bi++ % std::size(kBatchSizes)];
    ASSERT_TRUE(session.StepBatch(n).ok());
    ExpectStep(row, session, f, block_backend);
  }
  EXPECT_TRUE(session.Done());
}

}  // namespace wavebatch::golden

#endif  // WAVEBATCH_TESTS_GOLDEN_PROGRESSION_GOLDEN_H_
