// The engine layer's contract: EvalPlan + EvalSession reproduce the frozen
// Batch-Biggest-B outputs in tests/golden/ bit for bit — estimates,
// Theorem 1/2 bound trackers, and I/O counts — across all four progression
// orders, both fault policies, block granularity, bounded workspace, and
// all three store backends, while fixing the lifetime and accounting
// problems (shared ownership, per-session IoStats).

#include "engine/eval_plan.h"
#include "engine/eval_session.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "engine/bounded.h"
#include "engine/plan_cache.h"
#include "golden/progression_golden.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/block_store.h"
#include "storage/dense_store.h"
#include "storage/fault_injection_store.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace wavebatch {
namespace {

using golden::Fixture;

/// Copies a store's contents into every backend flavor (BlockStore is
/// unbuffered so its per-call block counters are history-independent; it
/// is the backend the goldens were recorded on).
struct Backends {
  std::vector<std::pair<std::string, std::unique_ptr<CoefficientStore>>>
      stores;

  explicit Backends(const Fixture& f) {
    std::vector<double> values(f.MaxKey() + 1, 0.0);
    auto hash = std::make_unique<HashStore>();
    f.store->ForEachNonZero([&](uint64_t key, double value) {
      hash->Add(key, value);
      values[key] = value;
    });

    stores.emplace_back("hash", std::move(hash));
    stores.emplace_back("dense", std::make_unique<DenseStore>(values));
    stores.emplace_back("block", f.MakeBlockBackend());
  }
};

/// Fails master-list keys 0, kSkipStride, 2·kSkipStride, … of `f` on
/// `store` — the fault schedule of the recorded kSkip runs.
void FailRecordedKeys(const Fixture& f, FaultInjectionStore& store) {
  for (size_t i = 0; i < f.list->size(); i += golden::kSkipStride) {
    store.FailKey(f.list->keys()[i]);
  }
}

EvalSession::Options RecordedOptions(ProgressionOrder order,
                                     FaultPolicy policy) {
  EvalSession::Options opts;
  opts.order = order;
  opts.seed = golden::kRandomSeed;
  opts.fault_policy = policy;
  return opts;
}

class EngineOrderTest : public ::testing::TestWithParam<ProgressionOrder> {};

TEST_P(EngineOrderTest, GoldenAgainstLegacyEvaluatorOnEveryBackend) {
  // Batched stepping over every backend, with and without the recorded
  // fault schedule, must land on the recorded rows at every batch
  // boundary: estimates, both bound trackers, next importance, skipped
  // mass, steps, and I/O.
  Fixture f;
  Backends backends(f);
  for (FaultPolicy policy : {FaultPolicy::kFail, FaultPolicy::kSkip}) {
    for (auto& [name, store] : backends.stores) {
      SCOPED_TRACE(name + (policy == FaultPolicy::kSkip ? " kSkip" : ""));
      FaultInjectionStore faulty(store.get());
      FailRecordedKeys(f, faulty);
      EvalSession session(
          f.plan,
          UnownedStore(policy == FaultPolicy::kSkip ? faulty : *store),
          RecordedOptions(GetParam(), policy));
      golden::ExpectBatchedRun(golden::Recorded(GetParam(), policy), session,
                               f, name == "block");
      if (policy == FaultPolicy::kFail) {
        EXPECT_EQ(session.io().retrievals, f.list->size());
        for (size_t i = 0; i < f.exact.size(); ++i) {
          EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                      1e-6 * (1.0 + std::abs(f.exact[i])));
        }
      } else {
        EXPECT_GT(session.SkippedCoefficients(), 0u);
      }
    }
  }
}

TEST_P(EngineOrderTest, ScalarStepsMatchLegacyEntryForEntry) {
  // Scalar Step() reaches every recorded boundary in the same state as
  // the batched runs, and consumes entries in plan order.
  Fixture f;
  EvalSession::Options opts = RecordedOptions(GetParam(), FaultPolicy::kFail);
  EvalSession session(f.plan, UnownedStore(*f.store), opts);
  const std::vector<size_t> order =
      GetParam() == ProgressionOrder::kRandom
          ? f.plan->RandomPermutation(golden::kRandomSeed)
          : std::vector<size_t>(f.plan->Permutation(GetParam()).begin(),
                                f.plan->Permutation(GetParam()).end());
  for (const golden::Step& row :
       golden::Recorded(GetParam(), FaultPolicy::kFail)) {
    while (session.StepsTaken() < row.steps) {
      const uint64_t i = session.StepsTaken();
      EXPECT_EQ(session.Step().value(), order[i]);
    }
    golden::ExpectStep(row, session, f, /*block_backend=*/false);
  }
  EXPECT_TRUE(session.Done());
}

TEST_P(EngineOrderTest, SkipModeBatchAndScalarPathsAgree) {
  // Under FaultPolicy::kSkip a failed FetchBatch falls back to per-key
  // fetches. That fallback and a pure Step() loop must both reproduce the
  // recorded kSkip run: same estimates, same bound trackers, same skipped
  // mass, at every batch boundary. The Step() loop's store also fails its
  // 8th fetch once: Step() refetches a failed key like StepBatch(1) does,
  // so a transient fault is never skipped. (Fetch 8 reads a healthy key in
  // every order; a one-shot due on a failed key's fetch would fire on the
  // next healthy fetch instead.)
  Fixture f;
  std::unique_ptr<BlockStore> block = f.MakeBlockBackend();
  FaultInjectionStore batch_store(block.get());
  FaultInjectionOptions one_shot;
  one_shot.fail_at_fetch = 8;
  FaultInjectionStore scalar_store(f.store.get(), one_shot);
  FailRecordedKeys(f, batch_store);
  FailRecordedKeys(f, scalar_store);
  EvalSession::Options opts = RecordedOptions(GetParam(), FaultPolicy::kSkip);
  EvalSession batched(f.plan, UnownedStore(batch_store), opts);
  EvalSession scalar(f.plan, UnownedStore(scalar_store), opts);
  size_t bi = 0;
  for (const golden::Step& row :
       golden::Recorded(GetParam(), FaultPolicy::kSkip)) {
    const size_t n = golden::kBatchSizes[bi++ % std::size(golden::kBatchSizes)];
    const size_t taken = batched.StepBatch(n).value();
    for (size_t i = 0; i < taken; ++i) ASSERT_TRUE(scalar.Step().ok());
    golden::ExpectStep(row, batched, f, /*block_backend=*/true);
    golden::ExpectStep(row, scalar, f, /*block_backend=*/false);
  }
  EXPECT_TRUE(batched.Done());
  EXPECT_TRUE(scalar.Done());
  EXPECT_GT(batched.SkippedCoefficients(), 0u);
  EXPECT_EQ(batched.SkippedCoefficients(), scalar.SkippedCoefficients());
  // Each skipped key failed twice (its fetch and the refetch); the
  // one-shot fault fired once and was absorbed by its refetch.
  EXPECT_EQ(scalar_store.injected_failures(),
            2 * scalar.SkippedCoefficients() + 1);
}

INSTANTIATE_TEST_SUITE_P(AllOrders, EngineOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kRandom,
                                           ProgressionOrder::kKeyOrder));

TEST(EngineSessionTest, StepBatchZeroAndOverrunClamp) {
  Fixture f;
  EvalSession session(f.plan, UnownedStore(*f.store));
  // n == 0 is a complete no-op: no cursor movement, no I/O.
  EXPECT_EQ(session.StepBatch(0).value(), 0u);
  EXPECT_EQ(session.StepsTaken(), 0u);
  EXPECT_EQ(session.io().retrievals, 0u);
  // n far beyond the remaining tail clamps to the tail.
  const size_t total = session.TotalSteps();
  ASSERT_GT(total, 3u);
  EXPECT_EQ(session.StepBatch(total - 3).value(), total - 3);
  EXPECT_EQ(session.StepBatch(total).value(), 3u);
  EXPECT_TRUE(session.Done());
  // A completed session accepts further batch calls as no-ops.
  EXPECT_EQ(session.StepBatch(64).value(), 0u);
  EXPECT_EQ(session.io().retrievals, total);
  for (size_t i = 0; i < f.exact.size(); ++i) {
    EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                1e-6 * (1.0 + std::abs(f.exact[i])));
  }
}

TEST(EnginePlanTest, SerialAndParallelPlansBitIdentical) {
  // BuildParallelism must be unobservable in the artifact: importances,
  // their total, and every permutation identical bit for bit.
  Fixture f;
  auto serial =
      EvalPlan::FromMasterList(f.list, f.sse, BuildParallelism::kSerial);
  auto parallel =
      EvalPlan::FromMasterList(f.list, f.sse, BuildParallelism::kParallel);
  ASSERT_EQ(serial->size(), parallel->size());
  EXPECT_EQ(serial->total_importance(), parallel->total_importance());
  for (size_t i = 0; i < serial->size(); ++i) {
    EXPECT_EQ(serial->importance(i), parallel->importance(i)) << i;
  }
  for (ProgressionOrder order :
       {ProgressionOrder::kBiggestB, ProgressionOrder::kRoundRobin,
        ProgressionOrder::kKeyOrder}) {
    std::span<const size_t> a = serial->Permutation(order);
    std::span<const size_t> b = parallel->Permutation(order);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i], b[i]) << static_cast<int>(order) << " at " << i;
    }
  }
  EXPECT_EQ(serial->RandomPermutation(17), parallel->RandomPermutation(17));
}

TEST(EnginePlanTest, RandomPermutationMemoIsTransparent) {
  // The plan memoizes the last (seed, permutation) pair; eviction and
  // re-request must be invisible to callers.
  Fixture f;
  const std::vector<size_t> p42 = f.plan->RandomPermutation(42);
  const std::vector<size_t> p7 = f.plan->RandomPermutation(7);
  EXPECT_NE(p42, p7);
  EXPECT_EQ(f.plan->RandomPermutation(7), p7);    // served from the memo
  EXPECT_EQ(f.plan->RandomPermutation(42), p42);  // recomputed after evict
}

TEST(EnginePlanTest, PermutationsAreTruePermutations) {
  Fixture f;
  for (ProgressionOrder order :
       {ProgressionOrder::kBiggestB, ProgressionOrder::kRoundRobin,
        ProgressionOrder::kKeyOrder}) {
    std::span<const size_t> perm = f.plan->Permutation(order);
    ASSERT_EQ(perm.size(), f.list->size());
    std::vector<bool> seen(perm.size(), false);
    for (size_t idx : perm) {
      ASSERT_LT(idx, seen.size());
      EXPECT_FALSE(seen[idx]);
      seen[idx] = true;
    }
  }
  std::vector<size_t> random = f.plan->RandomPermutation(99);
  EXPECT_EQ(random.size(), f.list->size());
  EXPECT_EQ(random, f.plan->RandomPermutation(99));
  EXPECT_NE(random, f.plan->RandomPermutation(100));
}

TEST(EnginePlanTest, BiggestBPermutationIsDecreasingImportance) {
  Fixture f;
  std::span<const size_t> perm =
      f.plan->Permutation(ProgressionOrder::kBiggestB);
  for (size_t i = 1; i < perm.size(); ++i) {
    EXPECT_GE(f.plan->importance(perm[i - 1]), f.plan->importance(perm[i]));
  }
}

/// A master list of `n` entries over three queries whose coefficients come
/// from a four-value set, so that most entries tie on SSE importance with
/// some other entry.
std::shared_ptr<const MasterList> TiedImportanceList(size_t n) {
  static constexpr double kValues[] = {1.0, -0.5, 0.5, 2.0};
  Rng rng(77);
  std::vector<std::vector<SparseEntry>> per_query(3);
  for (uint64_t key = 0; key < n; ++key) {
    for (size_t q = 0; q < per_query.size(); ++q) {
      if (q == 0 || rng.UniformInt(2) == 0) {
        per_query[q].push_back({key, kValues[rng.UniformInt(4)]});
      }
    }
  }
  std::vector<SparseVec> vecs;
  for (auto& entries : per_query) {
    vecs.push_back(SparseVec::FromSorted(std::move(entries)));
  }
  return std::make_shared<const MasterList>(MasterList::FromQueryVectors(vecs));
}

/// The biggest-B order as one full sort: descending (importance, index).
std::vector<size_t> FullySortedBiggestB(const EvalPlan& plan) {
  std::vector<size_t> order(plan.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&plan](size_t a, size_t b) {
    return std::make_pair(plan.importance(a), a) >
           std::make_pair(plan.importance(b), b);
  });
  return order;
}

TEST(EnginePlanTest, LazyBiggestBOrderIsTheFullSort) {
  // Biggest-B is sorted a prefix at a time: a first chunk, then at least
  // doubling. Whatever sequence of prefixes is asked for, each must be the
  // prefix of one full sort under (importance, index), ties included.
  auto list = TiedImportanceList(10000);
  auto sse = std::make_shared<SsePenalty>();
  const size_t n = list->size();
  const size_t chunk = EvalPlan::kFirstSortedChunk;
  ASSERT_GT(n, 8 * chunk);
  auto reference = EvalPlan::FromMasterList(list, sse);
  const std::vector<size_t> want = FullySortedBiggestB(*reference);
  size_t ties = 0;
  for (size_t i = 1; i < n; ++i) {
    ties +=
        reference->importance(want[i - 1]) == reference->importance(want[i]);
  }
  EXPECT_GT(ties, n / 2);

  const std::vector<std::vector<size_t>> requests = {
      {1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1,
       4 * chunk + 1, n},
      {chunk + 1, 3 * chunk, 5 * chunk},
      {n - 1, n},
      {1},
  };
  for (BuildParallelism parallelism :
       {BuildParallelism::kSerial, BuildParallelism::kParallel}) {
    for (const std::vector<size_t>& counts : requests) {
      auto plan = EvalPlan::FromMasterList(list, sse, parallelism);
      for (size_t count : counts) {
        std::span<const size_t> order = plan->BiggestBPrefix(count);
        ASSERT_EQ(order.size(), n);
        for (size_t i = 0; i < count; ++i) {
          ASSERT_EQ(order[i], want[i]) << "prefix " << count << " at " << i;
        }
      }
      std::span<const size_t> full =
          plan->Permutation(ProgressionOrder::kBiggestB);
      EXPECT_TRUE(
          std::equal(full.begin(), full.end(), want.begin(), want.end()));
    }
  }

  // A session whose quanta straddle the chunk and doubling boundaries
  // consumes exactly that order.
  auto plan = EvalPlan::FromMasterList(list, sse);
  DenseStore store(std::vector<double>(n, 1.0));
  EvalSession session(plan, UnownedStore(store));
  const size_t quanta[] = {chunk - 2, 3, chunk, 2 * chunk + 5, 1, 4 * chunk};
  for (size_t i = 0; !session.Done(); ++i) {
    const size_t at = session.StepsTaken();
    EXPECT_EQ(session.NextImportance(), plan->importance(want[at])) << at;
    if (i % 2 == 0) {
      ASSERT_TRUE(session.StepBatch(quanta[(i / 2) % std::size(quanta)]).ok());
    } else {
      Result<size_t> entry = session.Step();
      ASSERT_TRUE(entry.ok());
      EXPECT_EQ(entry.value(), want[at]) << at;
    }
  }
}

TEST(EnginePlanTest, PlanReadOnlyInKeyOrderNeverSortsBiggestB) {
  // Exact requests read in key order, so a plan that only they read never
  // orders biggest-B: no plan_order_extend span, however often it runs.
  // The first biggest-B session then sorts its first chunk.
  telemetry::MetricsRegistry::Enable();
  auto& registry = telemetry::MetricsRegistry::Default();
  registry.ResetValues();
  auto extends = [&registry] {
    size_t count = 0;
    for (const telemetry::SpanEvent& span : registry.Spans()) {
      count += std::string_view(span.name) == "plan_order_extend";
    }
    return count;
  };
  Fixture f;
  auto plan = EvalPlan::FromMasterList(f.list, f.sse);
  EvalSession::Options key_order;
  key_order.order = ProgressionOrder::kKeyOrder;
  for (int run = 0; run < 3; ++run) {
    EvalSession session(plan, UnownedStore(*f.store), key_order);
    ASSERT_TRUE(session.RunToExact().ok());
    session.WorstCaseBound(f.store->SumAbs());
  }
  EXPECT_EQ(extends(), 0u);
  EvalSession progressive(plan, UnownedStore(*f.store));
  EXPECT_EQ(extends(), 1u);
  registry.ResetValues();
}

TEST(EngineSessionTest, KeyOrderRunToExactIsTheSharedExactRun) {
  // Exact shared evaluation = a kKeyOrder session run to exactness: it
  // lands on the last recorded kKeyOrder row, one retrieval per entry.
  Fixture f;
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession session(f.plan, UnownedStore(*f.store), opts);
  ASSERT_TRUE(session.RunToExact().ok());
  golden::ExpectEstimates(
      golden::Recorded(ProgressionOrder::kKeyOrder, FaultPolicy::kFail)
          .back()
          .estimates,
      session.Estimates());
  EXPECT_EQ(session.io().retrievals, f.list->size());
}

TEST(EngineSessionTest, PenaltyFreePlanRunsExactOnly) {
  // Exact-shared evaluation needs no penalty; importance-based APIs are
  // unavailable but kKeyOrder runs fine.
  Fixture f;
  auto plan = EvalPlan::FromMasterList(f.list, /*penalty=*/nullptr);
  EXPECT_FALSE(plan->HasImportance());
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession session(plan, UnownedStore(*f.store), opts);
  ASSERT_TRUE(session.RunToExact().ok());
  for (size_t i = 0; i < f.exact.size(); ++i) {
    EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                1e-6 * (1.0 + std::abs(f.exact[i])));
  }
}

TEST(EngineSessionTest, NextImportanceRequiresAPenalty) {
  // A penalty-free plan has no importances to rank by; asking for the next
  // one is a precondition violation, not an out-of-bounds read.
  Fixture f;
  auto plan = EvalPlan::FromMasterList(f.list, /*penalty=*/nullptr);
  EvalSession::Options opts;
  opts.order = ProgressionOrder::kKeyOrder;
  EvalSession session(plan, UnownedStore(*f.store), opts);
  EXPECT_DEATH(session.NextImportance(), "HasImportance");
}

TEST(EngineSessionTest, BlockModeGoldenAgainstLegacyBlockEvaluator) {
  Fixture f;
  Backends backends(f);
  EvalSession::Options opts;
  opts.block_size = golden::kBlockSize;
  for (auto& [name, store] : backends.stores) {
    SCOPED_TRACE(name);
    EvalSession session(f.plan, UnownedStore(*store), opts);
    ASSERT_EQ(session.TotalBlocks(), std::size(golden::kBlockRun));
    for (const golden::BlockStep& row : golden::kBlockRun) {
      const uint64_t before = session.CoefficientsFetched();
      EXPECT_EQ(session.StepBlock().value(),
                row.coefficients_fetched - before);
      EXPECT_EQ(session.BlocksFetched(), row.blocks_fetched);
      EXPECT_EQ(session.CoefficientsFetched(), row.coefficients_fetched);
      EXPECT_PRED_FORMAT2(golden::SameBits, row.next_block_importance,
                          session.NextBlockImportance());
      EXPECT_GE(session.ExpectedPenalty(f.schema.cell_count()), 0.0);
      golden::ExpectEstimates(row.estimates, session.Estimates());
      EXPECT_EQ(session.io(), golden::ExpectedIo(row.io, name == "block"));
    }
    EXPECT_TRUE(session.Done());
    for (size_t i = 0; i < f.exact.size(); ++i) {
      EXPECT_NEAR(session.Estimates()[i], f.exact[i],
                  1e-6 * (1.0 + std::abs(f.exact[i])));
    }
  }
}

TEST(EngineBoundedTest, GoldenAgainstLegacyBoundedWorkspace) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  for (const golden::BoundedRun& want : golden::kBoundedRuns) {
    SCOPED_TRACE("budget " + std::to_string(want.budget));
    BoundedRunResult got =
        RunWithBoundedWorkspace(f.batch, strategy, *f.store, want.budget)
            .value();
    golden::ExpectEstimates(want.results, got.results);
    EXPECT_EQ(got.io.retrievals, want.retrievals);
    EXPECT_EQ(got.peak_workspace, want.peak_workspace);
    EXPECT_EQ(got.num_groups, want.num_groups);
  }
}

TEST(EngineSessionTest, SessionOutlivesCreatingScope) {
  // The lifetime regression the shared_ptr ownership fixes: everything a
  // session needs — master list, penalty, store, plan — was created in a
  // scope that is gone by the time the session steps.
  Fixture f;
  std::vector<double> exact = f.exact;
  const size_t num_queries = f.batch.size();
  std::unique_ptr<EvalSession> session;
  {
    WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
    auto penalty = std::make_shared<SsePenalty>();
    Result<std::shared_ptr<const EvalPlan>> plan =
        EvalPlan::Build(f.batch, strategy, penalty);
    ASSERT_TRUE(plan.ok()) << plan.status();
    std::shared_ptr<CoefficientStore> store =
        strategy.BuildStore(f.rel.FrequencyDistribution());
    session = std::make_unique<EvalSession>(*plan, store);
    // penalty, plan, store, strategy all go out of scope here; the session
    // holds what it needs alive.
  }
  ASSERT_TRUE(session->RunToExact().ok());
  ASSERT_EQ(session->Estimates().size(), num_queries);
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_NEAR(session->Estimates()[i], exact[i],
                1e-6 * (1.0 + std::abs(exact[i])));
  }
}

TEST(EngineSessionTest, ConcurrentSessionsShareOnePlan) {
  // Two sessions over one plan progress independently.
  Fixture f;
  EvalSession a(f.plan, UnownedStore(*f.store));
  EvalSession b(f.plan, UnownedStore(*f.store));
  ASSERT_TRUE(a.StepBatch(5).ok());
  EXPECT_EQ(a.StepsTaken(), 5u);
  EXPECT_EQ(b.StepsTaken(), 0u);
  ASSERT_TRUE(b.RunToExact().ok());
  EXPECT_FALSE(a.Done());
  EXPECT_TRUE(b.Done());
  EXPECT_EQ(a.io().retrievals, 5u);
  EXPECT_EQ(b.io().retrievals, f.list->size());
}

TEST(EnginePlanCacheTest, HitsReturnTheSamePlan) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(8);
  Result<std::shared_ptr<const EvalPlan>> first =
      cache.GetOrBuild(f.batch, strategy, f.sse);
  ASSERT_TRUE(first.ok());
  Result<std::shared_ptr<const EvalPlan>> second =
      cache.GetOrBuild(f.batch, strategy, f.sse);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().get(), second.value().get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(EnginePlanCacheTest, PenaltyContentDeterminesTheKey) {
  // The key encodes the penalty's *content*: a second penalty object with
  // identical parameters ranks coefficients identically, so it shares the
  // cached plan; a penalty with different parameters (even the same type
  // and name) must miss.
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(8);
  auto same_content = std::make_shared<SsePenalty>();
  auto a = cache.GetOrBuild(f.batch, strategy, f.sse);
  auto b = cache.GetOrBuild(f.batch, strategy, same_content);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);

  const size_t s = f.batch.size();
  auto uniform =
      std::make_shared<WeightedSsePenalty>(std::vector<double>(s, 1.0));
  std::vector<double> skewed(s, 1.0);
  skewed[0] = 2.0;
  auto reweighted = std::make_shared<WeightedSsePenalty>(std::move(skewed));
  auto c = cache.GetOrBuild(f.batch, strategy, uniform);
  auto d = cache.GetOrBuild(f.batch, strategy, reweighted);
  ASSERT_TRUE(c.ok());
  ASSERT_TRUE(d.ok());
  EXPECT_NE(c.value().get(), d.value().get());
  EXPECT_EQ(cache.misses(), 3u);
}

TEST(EnginePlanCacheTest, BatchShapeChangesTheKey) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(8);
  QueryBatch other(f.schema);
  other.Add(RangeSumQuery::Count(Range::All(f.schema)));
  auto a = cache.GetOrBuild(f.batch, strategy, f.sse);
  auto b = cache.GetOrBuild(other, strategy, f.sse);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value().get(), b.value().get());
}

TEST(EnginePlanCacheTest, EvictsLeastRecentlyUsed) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(2);
  QueryBatch b1(f.schema), b2(f.schema), b3(f.schema);
  b1.Add(RangeSumQuery::Count(Range::All(f.schema)));
  b2.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{0, 3}, {0, 3}}).value()));
  b3.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{4, 7}, {4, 7}}).value()));
  ASSERT_TRUE(cache.GetOrBuild(b1, strategy, f.sse).ok());
  ASSERT_TRUE(cache.GetOrBuild(b2, strategy, f.sse).ok());
  ASSERT_TRUE(cache.GetOrBuild(b3, strategy, f.sse).ok());  // evicts b1
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrBuild(b1, strategy, f.sse).ok());  // rebuild
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(EngineSessionTest, CachedPlanAnswersSameAsFreshPlan) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache;
  Result<std::shared_ptr<const EvalPlan>> cached =
      cache.GetOrBuild(f.batch, strategy, f.sse);
  ASSERT_TRUE(cached.ok());
  EvalSession from_cache(*cached, UnownedStore(*f.store));
  EvalSession fresh(f.plan, UnownedStore(*f.store));
  ASSERT_TRUE(from_cache.RunToExact().ok());
  ASSERT_TRUE(fresh.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    EXPECT_EQ(from_cache.Estimates()[q], fresh.Estimates()[q]);
  }
  EXPECT_EQ(from_cache.io(), fresh.io());
}

}  // namespace
}  // namespace wavebatch
