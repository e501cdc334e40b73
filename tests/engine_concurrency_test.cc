// Concurrent serving: N threads each drive an independent EvalSession over
// ONE shared read-only store and one shared plan. Per-session estimates,
// bounds, and IoStats must be bit-identical to the same session run
// serially — retrieval is const and sessions share no mutable state. Run
// under TSan/ASan in CI to gate the concurrent read path.

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "engine/plan_cache.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "storage/block_store.h"
#include "storage/dense_store.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "strategy/wavelet_strategy.h"
#include "util/random.h"

namespace wavebatch {
namespace {

constexpr size_t kNumThreads = 8;

struct SessionOutcome {
  std::vector<double> estimates;
  double worst_case_bound = 0.0;
  double expected_penalty = 0.0;
  IoStats io;
};

struct Fixture {
  Schema schema = Schema::Uniform(2, 16);
  Relation rel;
  QueryBatch batch;
  std::shared_ptr<const SsePenalty> sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan;
  std::unique_ptr<CoefficientStore> store;
  double k_sum_abs = 0.0;

  Fixture() : rel(MakeUniformRelation(schema, 600, 5)), batch(schema) {
    WaveletStrategy strategy(schema, WaveletKind::kHaar);
    Rng rng(21);
    for (int i = 0; i < 10; ++i) {
      uint32_t lo0 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi0 = lo0 + static_cast<uint32_t>(rng.UniformInt(16 - lo0));
      uint32_t lo1 = static_cast<uint32_t>(rng.UniformInt(16));
      uint32_t hi1 = lo1 + static_cast<uint32_t>(rng.UniformInt(16 - lo1));
      batch.Add(RangeSumQuery::Count(
          Range::Create(schema, {{lo0, hi0}, {lo1, hi1}}).value()));
    }
    Result<std::shared_ptr<const EvalPlan>> built =
        EvalPlan::Build(batch, strategy, sse);
    plan = built.value();
    store = strategy.BuildStore(rel.FrequencyDistribution());
    k_sum_abs = store->SumAbs();
  }

  /// Thread t's session config: different orders, seeds, and stopping
  /// points so concurrent sessions genuinely diverge.
  EvalSession::Options OptionsFor(size_t t) const {
    EvalSession::Options opts;
    static constexpr ProgressionOrder kOrders[] = {
        ProgressionOrder::kBiggestB, ProgressionOrder::kRoundRobin,
        ProgressionOrder::kRandom, ProgressionOrder::kKeyOrder};
    opts.order = kOrders[t % std::size(kOrders)];
    opts.seed = 1000 + t;
    return opts;
  }

  SessionOutcome RunSession(const CoefficientStore& backend, size_t t) const {
    EvalSession session(plan, UnownedStore(backend), OptionsFor(t));
    // Odd threads stop mid-progression, even threads run to exactness —
    // mixed batch sizes exercise Fetch and FetchBatch paths.
    const size_t stop = (t % 2 == 1) ? plan->size() / (t + 1) : plan->size();
    while (!session.Done() && session.StepsTaken() < stop) {
      if (t % 3 == 0) {
        session.StepBatch(7);
      } else {
        session.Step();
      }
    }
    SessionOutcome out;
    out.estimates = session.Estimates();
    out.worst_case_bound = session.WorstCaseBound(k_sum_abs);
    out.expected_penalty = session.ExpectedPenalty(schema.cell_count());
    out.io = session.io();
    return out;
  }

  void ExpectConcurrentMatchesSerial(const CoefficientStore& backend) const {
    std::vector<SessionOutcome> serial(kNumThreads);
    for (size_t t = 0; t < kNumThreads; ++t) {
      serial[t] = RunSession(backend, t);
    }
    std::vector<SessionOutcome> concurrent(kNumThreads);
    std::vector<std::thread> threads;
    threads.reserve(kNumThreads);
    for (size_t t = 0; t < kNumThreads; ++t) {
      threads.emplace_back(
          [&, t] { concurrent[t] = RunSession(backend, t); });
    }
    for (std::thread& th : threads) th.join();
    for (size_t t = 0; t < kNumThreads; ++t) {
      ASSERT_EQ(concurrent[t].estimates.size(), serial[t].estimates.size());
      for (size_t q = 0; q < serial[t].estimates.size(); ++q) {
        EXPECT_EQ(concurrent[t].estimates[q], serial[t].estimates[q])
            << "thread " << t << " query " << q;
      }
      EXPECT_EQ(concurrent[t].worst_case_bound, serial[t].worst_case_bound)
          << "thread " << t;
      EXPECT_EQ(concurrent[t].expected_penalty, serial[t].expected_penalty)
          << "thread " << t;
      EXPECT_EQ(concurrent[t].io, serial[t].io) << "thread " << t;
    }
  }
};

TEST(EngineConcurrencyTest, HashStoreBackend) {
  Fixture f;
  f.ExpectConcurrentMatchesSerial(*f.store);
}

TEST(EngineConcurrencyTest, DenseStoreBackend) {
  Fixture f;
  uint64_t max_key = 0;
  f.store->ForEachNonZero(
      [&](uint64_t key, double) { max_key = std::max(max_key, key); });
  std::vector<double> values(max_key + 1, 0.0);
  f.store->ForEachNonZero(
      [&](uint64_t key, double value) { values[key] = value; });
  DenseStore dense(values);
  f.ExpectConcurrentMatchesSerial(dense);
}

TEST(EngineConcurrencyTest, FileStoreBackend) {
  Fixture f;
  uint64_t max_key = 0;
  f.store->ForEachNonZero(
      [&](uint64_t key, double) { max_key = std::max(max_key, key); });
  std::vector<double> values(max_key + 1, 0.0);
  f.store->ForEachNonZero(
      [&](uint64_t key, double value) { values[key] = value; });
  const std::string path = ::testing::TempDir() + "/wavebatch_engine_conc.bin";
  Result<std::unique_ptr<FileStore>> file = FileStore::Create(path, values);
  ASSERT_TRUE(file.ok()) << file.status();
  f.ExpectConcurrentMatchesSerial(**file);
  std::remove(path.c_str());
}

TEST(EngineConcurrencyTest, UnbufferedBlockStoreBackend) {
  // cache_blocks = 0: no shared LRU state, so per-session block_reads are
  // interleaving-independent and must match the serial run exactly.
  Fixture f;
  auto inner = std::make_unique<HashStore>();
  f.store->ForEachNonZero(
      [&](uint64_t key, double value) { inner->Add(key, value); });
  BlockStore block(std::move(inner), /*block_size=*/8, /*cache_blocks=*/0);
  f.ExpectConcurrentMatchesSerial(block);
}

TEST(EngineConcurrencyTest, BufferedBlockStoreIsRaceFreeAndValueCorrect) {
  // With a live LRU the hit/miss split of one session depends on what the
  // other threads touched, so only values and retrieval counts are
  // asserted — the point of this test is the mutex-guarded buffer under
  // TSan, plus the invariant block_reads + block_hits == per-session total
  // block touches.
  Fixture f;
  auto inner = std::make_unique<HashStore>();
  f.store->ForEachNonZero(
      [&](uint64_t key, double value) { inner->Add(key, value); });
  BlockStore block(std::move(inner), /*block_size=*/8, /*cache_blocks=*/4);

  std::vector<SessionOutcome> serial(kNumThreads);
  for (size_t t = 0; t < kNumThreads; ++t) {
    serial[t] = f.RunSession(block, t);
  }
  std::vector<SessionOutcome> concurrent(kNumThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back(
        [&, t] { concurrent[t] = f.RunSession(block, t); });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kNumThreads; ++t) {
    for (size_t q = 0; q < serial[t].estimates.size(); ++q) {
      EXPECT_EQ(concurrent[t].estimates[q], serial[t].estimates[q])
          << "thread " << t << " query " << q;
    }
    EXPECT_EQ(concurrent[t].io.retrievals, serial[t].io.retrievals);
    EXPECT_EQ(concurrent[t].io.block_reads + concurrent[t].io.block_hits,
              serial[t].io.block_reads + serial[t].io.block_hits)
        << "thread " << t;
  }
}

TEST(EngineConcurrencyTest, IoStatsAggregateAcrossSessionsIntoSharedSink) {
  // IoStats writes are caller-synchronized by contract: each session owns
  // its sink while running, and a shared "all traffic" sink is fed by
  // operator+= under the caller's lock afterwards. The aggregate must be
  // exactly the field-wise sum of the per-session counters — order
  // independent, nothing lost or double-counted under concurrency.
  Fixture f;
  auto inner = std::make_unique<HashStore>();
  f.store->ForEachNonZero(
      [&](uint64_t key, double value) { inner->Add(key, value); });
  // A buffered BlockStore populates all three IoStats fields.
  BlockStore block(std::move(inner), /*block_size=*/8, /*cache_blocks=*/4);

  IoStats shared_sink;
  std::mutex sink_mu;
  std::vector<IoStats> per_session(kNumThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      const SessionOutcome out = f.RunSession(block, t);
      per_session[t] = out.io;
      std::lock_guard<std::mutex> lock(sink_mu);
      shared_sink += out.io;
    });
  }
  for (std::thread& th : threads) th.join();

  IoStats expected;
  uint64_t retrievals = 0, block_reads = 0, block_hits = 0;
  for (const IoStats& io : per_session) {
    expected += io;
    retrievals += io.retrievals;
    block_reads += io.block_reads;
    block_hits += io.block_hits;
  }
  EXPECT_GT(retrievals, 0u);
  EXPECT_GT(block_reads + block_hits, 0u);
  // operator+= accumulated exactly the field-wise sums…
  EXPECT_EQ(expected.retrievals, retrievals);
  EXPECT_EQ(expected.block_reads, block_reads);
  EXPECT_EQ(expected.block_hits, block_hits);
  // …and the concurrently fed sink agrees with the serial re-aggregation
  // (operator== compares every field).
  EXPECT_EQ(shared_sink, expected);

  // += is identity-based: folding the aggregate into a fresh sink changes
  // nothing, and Reset() returns to the identity.
  IoStats zero;
  zero += shared_sink;
  EXPECT_EQ(zero, shared_sink);
  zero.Reset();
  EXPECT_EQ(zero, IoStats{});
}

TEST(EngineConcurrencyTest, RoundRobinBuiltOnceUnderConcurrentFirstUse) {
  // A plan builds its round-robin order on the first request for it. Eight
  // threads open kRoundRobin sessions on one freshly built shared plan at
  // the same moment: every session must consume the order of a serially
  // built plan and reach bit-identical estimates.
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  EvalSession::Options options;
  options.order = ProgressionOrder::kRoundRobin;
  auto run = [&](std::shared_ptr<const EvalPlan> plan,
                 std::vector<size_t>* order) {
    EvalSession session(plan, UnownedStore(*f.store), options);
    const std::span<const size_t> permutation =
        plan->Permutation(ProgressionOrder::kRoundRobin);
    order->assign(permutation.begin(), permutation.end());
    while (!session.Done()) session.StepBatch(7);
    return session.Estimates();
  };
  auto serial_plan =
      EvalPlan::Build(f.batch, strategy, f.sse, BuildParallelism::kSerial)
          .value();
  std::vector<size_t> serial_order;
  const std::vector<double> serial_estimates = run(serial_plan, &serial_order);
  ASSERT_EQ(serial_order.size(), serial_plan->size());

  auto shared_plan = EvalPlan::Build(f.batch, strategy, f.sse).value();
  std::atomic<size_t> arrived{0};
  std::vector<std::vector<size_t>> orders(kNumThreads);
  std::vector<std::vector<double>> estimates(kNumThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kNumThreads) std::this_thread::yield();
      estimates[t] = run(shared_plan, &orders[t]);
    });
  }
  for (std::thread& th : threads) th.join();
  for (size_t t = 0; t < kNumThreads; ++t) {
    EXPECT_EQ(orders[t], serial_order) << "thread " << t;
    ASSERT_EQ(estimates[t].size(), serial_estimates.size());
    for (size_t q = 0; q < serial_estimates.size(); ++q) {
      EXPECT_EQ(std::bit_cast<uint64_t>(estimates[t][q]),
                std::bit_cast<uint64_t>(serial_estimates[q]))
          << "thread " << t << " query " << q;
    }
  }
}

TEST(EngineConcurrencyTest, PlanCacheSharedAcrossThreads) {
  Fixture f;
  WaveletStrategy strategy(f.schema, WaveletKind::kHaar);
  PlanCache cache(8);
  std::vector<std::shared_ptr<const EvalPlan>> plans(kNumThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kNumThreads; ++t) {
    threads.emplace_back([&, t] {
      Result<std::shared_ptr<const EvalPlan>> plan =
          cache.GetOrBuild(f.batch, strategy, f.sse);
      ASSERT_TRUE(plan.ok());
      plans[t] = plan.value();
      EvalSession session(plans[t], UnownedStore(*f.store));
      session.StepBatch(16);
      EXPECT_EQ(session.io().retrievals,
                std::min<uint64_t>(16, plans[t]->size()));
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cache.hits() + cache.misses(), kNumThreads);
  // Any number of threads may race past the lookup before the first insert
  // and build concurrently (by design: planning happens outside the lock),
  // so the hit count is scheduling-dependent — only the first touch is
  // guaranteed to miss.
  EXPECT_GE(cache.misses(), 1u);
  // Whatever mix of hits/races happened, the cache now serves one plan.
  Result<std::shared_ptr<const EvalPlan>> final_plan =
      cache.GetOrBuild(f.batch, strategy, f.sse);
  ASSERT_TRUE(final_plan.ok());
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace wavebatch
