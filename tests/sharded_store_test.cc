// The sharded coefficient plane's contract: routing is a pure partition
// (values and cost identical to the unsharded plane), S=1 is bit-identical
// to the backend it wraps, S>1 is value-identical with per-shard IoStats
// summing to the unsharded totals, and batches stay all-or-nothing across
// shard failures.

#include "storage/sharded_store.h"

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "engine/eval_session.h"
#include "golden/progression_golden.h"
#include "gtest/gtest.h"
#include "storage/block_store.h"
#include "storage/fault_injection_store.h"
#include "storage/key_router.h"
#include "storage/memory_store.h"

namespace wavebatch {
namespace {

TEST(KeyRouterTest, UniformPartitionCoversTheKeySpace) {
  const KeyRouter router = KeyRouter::Uniform(/*key_space=*/100,
                                              /*num_shards=*/4);
  EXPECT_EQ(router.num_shards(), 4u);
  EXPECT_EQ(router.delims(), (std::vector<uint64_t>{25, 50, 75}));
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(24), 0u);
  EXPECT_EQ(router.ShardOf(25), 1u);
  EXPECT_EQ(router.ShardOf(74), 2u);
  EXPECT_EQ(router.ShardOf(75), 3u);
  EXPECT_EQ(router.ShardOf(99), 3u);
  // Keys beyond the nominal space still route (to the last shard).
  EXPECT_EQ(router.ShardOf(1'000'000), 3u);
  EXPECT_EQ(router.ShardBegin(0), 0u);
  EXPECT_EQ(router.ShardBegin(3), 75u);
}

TEST(KeyRouterTest, SingleShardOwnsEverything) {
  const KeyRouter router = KeyRouter::Uniform(1 << 20, 1);
  EXPECT_EQ(router.num_shards(), 1u);
  EXPECT_EQ(router.ShardOf(0), 0u);
  EXPECT_EQ(router.ShardOf(~uint64_t{0}), 0u);
}

using golden::Fixture;

/// Hash-backed shards holding `source`'s coefficients, each shard loaded
/// with exactly the keys it owns under `router`.
std::vector<std::unique_ptr<CoefficientStore>> MakeHashShards(
    const CoefficientStore& source, const KeyRouter& router) {
  std::vector<std::unique_ptr<HashStore>> shards;
  for (size_t s = 0; s < router.num_shards(); ++s) {
    shards.push_back(std::make_unique<HashStore>());
  }
  source.ForEachNonZero([&](uint64_t key, double value) {
    shards[router.ShardOf(key)]->Add(key, value);
  });
  std::vector<std::unique_ptr<CoefficientStore>> out;
  for (auto& shard : shards) out.push_back(std::move(shard));
  return out;
}

TEST(ShardedStoreTest, AggregatesMatchTheUnshardedPlane) {
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  ShardedStore sharded(MakeHashShards(*f.store, router), router,
                       {.threads_per_shard = 0});
  EXPECT_EQ(sharded.num_shards(), 4u);
  EXPECT_EQ(sharded.NumNonZero(), f.store->NumNonZero());
  EXPECT_DOUBLE_EQ(sharded.SumAbs(), f.store->SumAbs());
  f.store->ForEachNonZero([&](uint64_t key, double value) {
    EXPECT_EQ(sharded.Peek(key), value);
  });
  ASSERT_NE(sharded.router(), nullptr);
  EXPECT_EQ(sharded.router()->num_shards(), 4u);
}

class ShardedOrderTest : public ::testing::TestWithParam<ProgressionOrder> {};

TEST_P(ShardedOrderTest, S1GoldenBitIdenticalToLegacyEvaluator) {
  // The single-shard plane wrapping a copy of the store must reproduce the
  // recorded run: estimates, both bound trackers, and IoStats, at every
  // batch boundary.
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 1);
  ShardedStore sharded(MakeHashShards(*f.store, router), router);
  EvalSession::Options opts;
  opts.order = GetParam();
  opts.seed = golden::kRandomSeed;
  EvalSession session(f.plan, UnownedStore(sharded), opts);
  golden::ExpectBatchedRun(golden::Recorded(GetParam(), FaultPolicy::kFail),
                           session, f, /*block_backend=*/false);
  EXPECT_EQ(session.io().retrievals, f.list->size());
}

TEST_P(ShardedOrderTest, S4GoldenValueIdenticalToLegacyEvaluator) {
  // Four shards with real fan-out: every estimate, bound, and the
  // retrieval total must still match the recorded run exactly — the
  // scatter-gather reorders I/O, never arithmetic.
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  ShardedStore sharded(MakeHashShards(*f.store, router), router,
                       {.threads_per_shard = 1});
  EvalSession::Options opts;
  opts.order = GetParam();
  opts.seed = golden::kRandomSeed;
  EvalSession session(f.plan, UnownedStore(sharded), opts);
  golden::ExpectBatchedRun(golden::Recorded(GetParam(), FaultPolicy::kFail),
                           session, f, /*block_backend=*/false);
  // Every counted key was served by the shard the router assigned it.
  uint64_t shard_sum = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    shard_sum += sharded.shard_keys_fetched(s);
  }
  EXPECT_EQ(shard_sum, session.io().retrievals);
  EXPECT_GT(sharded.subbatches_issued(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Orders, ShardedOrderTest,
                         ::testing::Values(ProgressionOrder::kBiggestB,
                                           ProgressionOrder::kRoundRobin,
                                           ProgressionOrder::kKeyOrder,
                                           ProgressionOrder::kRandom));

TEST(ShardedStoreTest, PerShardBlockCountersSumToTheUnshardedTotals) {
  // Block-simulated shards: with router delimiters aligned to block
  // boundaries, the merged IoStats (retrievals AND block reads/hits) must
  // equal the unsharded block store's — the sub-model counters survive the
  // scatter-gather merge intact.
  Fixture f;
  constexpr uint64_t kBlockSize = 8;
  // Round the key space up so every Uniform delimiter is block-aligned.
  const uint64_t key_space = (f.MaxKey() / (4 * kBlockSize) + 1) *
                             (4 * kBlockSize);
  const KeyRouter router = KeyRouter::Uniform(key_space, 4);
  for (uint64_t delim : router.delims()) ASSERT_EQ(delim % kBlockSize, 0u);

  auto make_blocked = [&](std::unique_ptr<CoefficientStore> inner) {
    return std::make_unique<BlockStore>(std::move(inner), kBlockSize,
                                        /*cache_blocks=*/0);
  };
  std::vector<std::unique_ptr<CoefficientStore>> shards;
  for (auto& shard : MakeHashShards(*f.store, router)) {
    shards.push_back(make_blocked(std::move(shard)));
  }
  ShardedStore sharded(std::move(shards), router, {.threads_per_shard = 1});

  auto unsharded_inner = std::make_unique<HashStore>();
  f.store->ForEachNonZero(
      [&](uint64_t key, double value) { unsharded_inner->Add(key, value); });
  BlockStore unsharded(std::move(unsharded_inner), kBlockSize,
                       /*cache_blocks=*/0);

  EvalSession::Options opts;
  opts.order = ProgressionOrder::kBiggestB;
  EvalSession sharded_session(f.plan, UnownedStore(sharded), opts);
  EvalSession unsharded_session(f.plan, UnownedStore(unsharded), opts);
  ASSERT_TRUE(sharded_session.RunToExact().ok());
  ASSERT_TRUE(unsharded_session.RunToExact().ok());
  for (size_t q = 0; q < f.batch.size(); ++q) {
    EXPECT_EQ(sharded_session.Estimates()[q], unsharded_session.Estimates()[q]);
  }
  EXPECT_EQ(sharded_session.io(), unsharded_session.io());
}

TEST(ShardedStoreTest, ShardFailureFailsTheWholeBatchAndChargesNothing) {
  Fixture f;
  const KeyRouter router = KeyRouter::Uniform(f.MaxKey() + 1, 4);
  std::vector<std::unique_ptr<CoefficientStore>> shards;
  std::vector<FaultInjectionStore*> faulty(4, nullptr);
  for (auto& shard : MakeHashShards(*f.store, router)) {
    auto wrapped = std::make_unique<FaultInjectionStore>(std::move(shard));
    faulty[shards.size()] = wrapped.get();
    shards.push_back(std::move(wrapped));
  }
  ShardedStore sharded(std::move(shards), router, {.threads_per_shard = 1});

  // A batch spanning all four shards; fail one key owned by shard 2.
  std::vector<uint64_t> keys;
  std::vector<uint32_t> seen_shards(4, 0);
  f.store->ForEachNonZero([&](uint64_t key, double) {
    const uint32_t s = router.ShardOf(key);
    if (seen_shards[s] < 4) {
      ++seen_shards[s];
      keys.push_back(key);
    }
  });
  ASSERT_GE(keys.size(), 4u);
  uint64_t bad_key = 0;
  for (uint64_t key : keys) {
    if (router.ShardOf(key) == 2) {
      bad_key = key;
      break;
    }
  }
  faulty[2]->FailKey(bad_key);

  std::vector<double> out(keys.size(), -1.0);
  IoStats io;
  Status status = sharded.FetchBatch(keys, out, &io);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(io.retrievals, 0u);  // all-or-nothing: nothing charged

  faulty[2]->Heal();
  ASSERT_TRUE(sharded.FetchBatch(keys, out, &io).ok());
  EXPECT_EQ(io.retrievals, keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(out[i], f.store->Peek(keys[i])) << "key " << keys[i];
  }
}

}  // namespace
}  // namespace wavebatch
