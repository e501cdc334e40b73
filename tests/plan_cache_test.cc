// PlanCache keying and lifetime: the cache key is the *content* of
// (batch, strategy, penalty) — never an object address — so recycled
// penalty allocations cannot revive stale plans, -0.0 parameters cannot
// split cache lines, hits refresh LRU recency, and concurrent GetOrBuild
// calls stay consistent.

#include "engine/plan_cache.h"

#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/eval_plan.h"
#include "gtest/gtest.h"
#include "penalty/sse.h"
#include "query/batch.h"
#include "strategy/wavelet_strategy.h"

namespace wavebatch {
namespace {

struct Fixture {
  Schema schema = Schema::Uniform(2, 16);
  QueryBatch batch;
  WaveletStrategy strategy{schema, WaveletKind::kHaar};

  Fixture() : batch(schema) {
    batch.Add(RangeSumQuery::Count(Range::All(schema).Restrict(0, 2, 13)));
    batch.Add(RangeSumQuery::Sum(Range::All(schema), 1));
    batch.Add(RangeSumQuery::Count(
        Range::Create(schema, {{4, 11}, {0, 7}}).value()));
  }
};

TEST(PlanCacheTest, RecycledPenaltyAddressCannotReviveAStalePlan) {
  // The regression this cache key exists for: a caller that heap-allocates
  // a penalty per refresh, plans, and frees it. Allocators aggressively
  // recycle same-size blocks, so a *different* penalty soon lives at the
  // *same* address. A pointer-keyed cache then either misses on every
  // fresh object (no sharing at all) or — worse — hits a stale plan built
  // for whatever content previously occupied the address. Content keying
  // must give: every round a hit, always on the plan matching the round's
  // parameters.
  Fixture f;
  PlanCache cache(8);
  const size_t s = f.batch.size();
  const std::vector<double> uniform(s, 1.0);
  std::vector<double> skewed(s, 1.0);
  skewed[0] = 2.0;

  auto ref_u =
      cache.GetOrBuild(f.batch, f.strategy,
                       std::make_shared<WeightedSsePenalty>(uniform));
  auto ref_s =
      cache.GetOrBuild(f.batch, f.strategy,
                       std::make_shared<WeightedSsePenalty>(skewed));
  ASSERT_TRUE(ref_u.ok());
  ASSERT_TRUE(ref_s.ok());
  ASSERT_NE(ref_u.value().get(), ref_s.value().get());
  ASSERT_EQ(cache.misses(), 2u);

  std::set<const void*> addresses;
  bool address_reused = false;
  for (int round = 0; round < 64; ++round) {
    const bool odd = (round % 2) != 0;
    auto* raw = new WeightedSsePenalty(odd ? skewed : uniform);
    address_reused |= !addresses.insert(raw).second;
    std::shared_ptr<const PenaltyFunction> penalty(raw);
    auto plan = cache.GetOrBuild(f.batch, f.strategy, penalty);
    ASSERT_TRUE(plan.ok());
    EXPECT_EQ(plan.value().get(),
              odd ? ref_s.value().get() : ref_u.value().get())
        << "round " << round;
    // `penalty` dies here; the next round's allocation may land on the
    // freed address (near-certain under glibc, deliberately delayed under
    // sanitizer quarantines — the assertions above hold either way).
  }
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.hits(), 64u);
  ::testing::Test::RecordProperty("penalty_address_reused",
                                  address_reused ? "yes" : "no");
}

TEST(PlanCacheTest, NegativeZeroWeightSharesTheCacheLine) {
  // -0.0 == 0.0 yet differs bit-wise; a bit-exact fingerprint would split
  // one logical penalty across two cache entries. AppendF64 normalizes the
  // sign of zero, so the fingerprints — and therefore the plans — match.
  Fixture f;
  const size_t s = f.batch.size();
  std::vector<double> pos(s, 1.0);
  std::vector<double> neg(s, 1.0);
  pos[1] = 0.0;
  neg[1] = -0.0;
  WeightedSsePenalty pos_penalty(pos), neg_penalty(neg);
  EXPECT_EQ(PlanCache::Fingerprint(f.batch, f.strategy, &pos_penalty),
            PlanCache::Fingerprint(f.batch, f.strategy, &neg_penalty));

  PlanCache cache(8);
  auto a = cache.GetOrBuild(f.batch, f.strategy,
                            std::make_shared<WeightedSsePenalty>(pos));
  auto b = cache.GetOrBuild(f.batch, f.strategy,
                            std::make_shared<WeightedSsePenalty>(neg));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a.value().get(), b.value().get());
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(PlanCacheTest, HitRefreshesEvictionOrder) {
  // LRU means least-recently *used*, not least-recently inserted: a hit
  // must move its entry to the front, so the untouched entry is the one
  // evicted.
  Fixture f;
  auto sse = std::make_shared<SsePenalty>();
  PlanCache cache(2);
  QueryBatch b1(f.schema), b2(f.schema), b3(f.schema);
  b1.Add(RangeSumQuery::Count(Range::All(f.schema)));
  b2.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{0, 3}, {0, 3}}).value()));
  b3.Add(RangeSumQuery::Count(
      Range::Create(f.schema, {{4, 7}, {4, 7}}).value()));

  ASSERT_TRUE(cache.GetOrBuild(b1, f.strategy, sse).ok());  // miss: [b1]
  ASSERT_TRUE(cache.GetOrBuild(b2, f.strategy, sse).ok());  // miss: [b2 b1]
  ASSERT_TRUE(cache.GetOrBuild(b1, f.strategy, sse).ok());  // hit:  [b1 b2]
  ASSERT_TRUE(cache.GetOrBuild(b3, f.strategy, sse).ok());  // evicts b2
  EXPECT_EQ(cache.size(), 2u);
  ASSERT_TRUE(cache.GetOrBuild(b1, f.strategy, sse).ok());  // still cached
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 3u);
  ASSERT_TRUE(cache.GetOrBuild(b2, f.strategy, sse).ok());  // was evicted
  EXPECT_EQ(cache.misses(), 4u);
}

TEST(PlanCacheTest, ConcurrentGetOrBuildIsConsistent) {
  // Hammer one small cache from many threads with a working set larger
  // than the capacity (every call is a potential hit, miss, or eviction).
  // Everything must stay consistent: each call returns a plan for the
  // requested batch, accounting adds up, and the cache never exceeds
  // capacity.
  Fixture f;
  auto sse = std::make_shared<SsePenalty>();
  constexpr size_t kBatches = 6;
  constexpr size_t kThreads = 8;
  constexpr size_t kIters = 32;

  std::vector<QueryBatch> batches;
  std::vector<size_t> expected_sizes;
  for (size_t i = 0; i < kBatches; ++i) {
    QueryBatch b(f.schema);
    const uint32_t hi = static_cast<uint32_t>(3 + 2 * i);
    b.Add(RangeSumQuery::Count(Range::All(f.schema).Restrict(0, 0, hi)));
    if (i % 2 == 0) b.Add(RangeSumQuery::Sum(Range::All(f.schema), 1));
    auto reference = EvalPlan::Build(b, f.strategy, sse);
    ASSERT_TRUE(reference.ok());
    expected_sizes.push_back(reference.value()->size());
    batches.push_back(std::move(b));
  }

  PlanCache cache(3);
  std::vector<std::thread> threads;
  std::vector<std::string> failures(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kIters; ++i) {
        const size_t pick = (t * 31 + i * 17) % kBatches;
        auto plan = cache.GetOrBuild(batches[pick], f.strategy, sse);
        if (!plan.ok()) {
          failures[t] = plan.status().ToString();
          return;
        }
        const EvalPlan& p = *plan.value();
        if (p.num_queries() != batches[pick].size() ||
            p.size() != expected_sizes[pick]) {
          failures[t] = "plan does not match requested batch";
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(failures[t], "") << "thread " << t;
  }
  EXPECT_LE(cache.size(), 3u);
  EXPECT_EQ(cache.hits() + cache.misses(), kThreads * kIters);
  EXPECT_GT(cache.hits(), 0u);
  // Misses can exceed the distinct-batch count (evictions rebuild), but
  // every one of them must have come from a real eviction or first touch.
  EXPECT_GE(cache.misses(), kBatches);
}

TEST(PlanCacheTest, EntriesFingerprintTheWholeKey) {
  // Every key starts with the strategy name ("wavelet-haar..."), so a
  // fingerprint taken from a fixed-length key prefix is the same for every
  // plan of one strategy. Two different batches must show two different
  // fingerprints on /statusz.
  Fixture f;
  QueryBatch other(f.schema);
  other.Add(RangeSumQuery::Count(Range::All(f.schema).Restrict(1, 0, 3)));
  auto sse = std::make_shared<SsePenalty>();
  PlanCache cache(8);
  ASSERT_TRUE(cache.GetOrBuild(f.batch, f.strategy, sse).ok());
  ASSERT_TRUE(cache.GetOrBuild(other, f.strategy, sse).ok());

  const std::vector<PlanCache::EntryInfo> entries = cache.Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_NE(entries[0].fingerprint, entries[1].fingerprint);
  for (const PlanCache::EntryInfo& entry : entries) {
    EXPECT_EQ(entry.fingerprint.size(), 16u);
    EXPECT_EQ(entry.fingerprint.find_first_not_of("0123456789abcdef"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace wavebatch
