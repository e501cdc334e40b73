#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "storage/block_store.h"
#include "storage/coefficient_store.h"
#include "storage/dense_store.h"
#include "storage/memory_store.h"
#include "telemetry/metrics.h"
#include "util/random.h"

namespace wavebatch {
namespace {

TEST(HashStoreTest, PeekAbsentIsZero) {
  HashStore store;
  EXPECT_EQ(store.Peek(42), 0.0);
  EXPECT_EQ(store.NumNonZero(), 0u);
}

TEST(HashStoreTest, AddAndPeek) {
  HashStore store;
  store.Add(1, 2.0);
  store.Add(1, 3.0);
  store.Add(2, -1.0);
  EXPECT_DOUBLE_EQ(store.Peek(1), 5.0);
  EXPECT_DOUBLE_EQ(store.Peek(2), -1.0);
  EXPECT_EQ(store.NumNonZero(), 2u);
}

TEST(HashStoreTest, AddToZeroErases) {
  HashStore store;
  store.Add(1, 2.0);
  store.Add(1, -2.0);
  EXPECT_EQ(store.NumNonZero(), 0u);
}

TEST(HashStoreTest, BulkLoadFromSparseVec) {
  SparseVec v = SparseVec::FromUnsorted({{1, 1.0}, {9, 2.0}});
  HashStore store(v);
  EXPECT_EQ(store.NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(store.Peek(9), 2.0);
}

TEST(HashStoreTest, FetchCountsRetrievalsIntoSink) {
  HashStore store;
  store.Add(1, 2.0);
  IoStats io;
  EXPECT_DOUBLE_EQ(store.Fetch(1, &io).value(), 2.0);
  EXPECT_DOUBLE_EQ(store.Fetch(5, &io).value(), 0.0);  // absent still costs
  EXPECT_EQ(io.retrievals, 2u);
}

TEST(HashStoreTest, FetchWithoutSinkIsUncounted) {
  // Accounting is per-call now: with no sink there is nothing to charge,
  // and separate sinks never see each other's traffic.
  HashStore store;
  store.Add(1, 2.0);
  EXPECT_DOUBLE_EQ(store.Fetch(1).value(), 2.0);
  IoStats io;
  store.Fetch(1, &io);
  EXPECT_EQ(io.retrievals, 1u);
}

TEST(IoStatsTest, AccumulateAndCompare) {
  IoStats a, b;
  a.retrievals = 3;
  a.block_reads = 1;
  b.retrievals = 2;
  b.block_hits = 4;
  a += b;
  EXPECT_EQ(a.retrievals, 5u);
  EXPECT_EQ(a.block_reads, 1u);
  EXPECT_EQ(a.block_hits, 4u);
  IoStats c = a;
  EXPECT_EQ(a, c);
  c.Reset();
  EXPECT_EQ(c, IoStats{});
}

TEST(HashStoreTest, SumAbs) {
  HashStore store;
  store.Add(1, 3.0);
  store.Add(2, -4.0);
  EXPECT_DOUBLE_EQ(store.SumAbs(), 7.0);
}

TEST(DenseStoreTest, ZeroInitialized) {
  DenseStore store(16);
  EXPECT_EQ(store.capacity(), 16u);
  EXPECT_EQ(store.Peek(7), 0.0);
  EXPECT_EQ(store.NumNonZero(), 0u);
}

TEST(DenseStoreTest, AddPeekFetch) {
  DenseStore store(8);
  store.Add(3, 1.5);
  store.Add(3, 1.5);
  EXPECT_DOUBLE_EQ(store.Peek(3), 3.0);
  IoStats io;
  EXPECT_DOUBLE_EQ(store.Fetch(3, &io).value(), 3.0);
  EXPECT_EQ(io.retrievals, 1u);
  EXPECT_EQ(store.NumNonZero(), 1u);
  EXPECT_DOUBLE_EQ(store.SumAbs(), 3.0);
}

TEST(DenseStoreTest, FetchOutOfCapacityIsStatusNotAbort) {
  DenseStore store(8);
  IoStats io;
  Result<double> value = store.Fetch(8, &io);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kOutOfRange);
  // A failed fetch retrieved nothing, so it charges nothing.
  EXPECT_EQ(io.retrievals, 0u);
}

TEST(DenseStoreTest, FetchBatchOutOfCapacityChargesNothing) {
  DenseStore store(8);
  store.Add(2, 1.0);
  std::vector<uint64_t> keys = {2, 99};
  std::vector<double> out(keys.size());
  IoStats io;
  Status status = store.FetchBatch(keys, out, &io);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
  // All-or-nothing: even the in-range key is uncharged.
  EXPECT_EQ(io.retrievals, 0u);
}

TEST(DenseStoreTest, BulkLoadValues) {
  DenseStore store(std::vector<double>{0.0, 1.0, -2.0});
  EXPECT_EQ(store.capacity(), 3u);
  EXPECT_EQ(store.NumNonZero(), 2u);
  EXPECT_DOUBLE_EQ(store.SumAbs(), 3.0);
}

std::unique_ptr<CoefficientStore> MakeInner() {
  auto inner = std::make_unique<HashStore>();
  for (uint64_t k = 0; k < 64; ++k) inner->Add(k, static_cast<double>(k + 1));
  return inner;
}

TEST(BlockStoreTest, FirstTouchIsBlockRead) {
  BlockStore store(MakeInner(), /*block_size=*/8, /*cache_blocks=*/4);
  IoStats io;
  store.Fetch(0, &io);
  EXPECT_EQ(io.retrievals, 1u);
  EXPECT_EQ(io.block_reads, 1u);
  EXPECT_EQ(io.block_hits, 0u);
}

TEST(BlockStoreTest, SameBlockHits) {
  BlockStore store(MakeInner(), 8, 4);
  IoStats io;
  store.Fetch(0, &io);
  store.Fetch(7, &io);  // same block [0,8)
  store.Fetch(3, &io);
  EXPECT_EQ(io.block_reads, 1u);
  EXPECT_EQ(io.block_hits, 2u);
}

TEST(BlockStoreTest, LruEviction) {
  BlockStore store(MakeInner(), 8, 2);
  IoStats io;
  store.Fetch(0, &io);   // block 0 (miss)
  store.Fetch(8, &io);   // block 1 (miss)
  store.Fetch(16, &io);  // block 2 (miss, evicts block 0)
  store.Fetch(0, &io);   // block 0 again (miss)
  EXPECT_EQ(io.block_reads, 4u);
  EXPECT_EQ(io.block_hits, 0u);
}

TEST(BlockStoreTest, LruTouchRefreshes) {
  BlockStore store(MakeInner(), 8, 2);
  IoStats io;
  store.Fetch(0, &io);   // block 0 (miss)            cache: {0}
  store.Fetch(8, &io);   // block 1 (miss)            cache: {1,0}
  store.Fetch(1, &io);   // block 0 (hit, refreshed)  cache: {0,1}
  store.Fetch(16, &io);  // block 2 (miss, evicts 1)  cache: {2,0}
  store.Fetch(2, &io);   // block 0 (hit)
  EXPECT_EQ(io.block_reads, 3u);
  EXPECT_EQ(io.block_hits, 2u);
}

TEST(BlockStoreTest, LruGaugesTrackOccupancyAndCapacity) {
  // The occupancy/capacity gauge pair is last-write-wins per (name, store)
  // label set; constructing the store re-publishes capacity and every touch
  // section republishes occupancy, so reading after each fetch is exact.
  telemetry::MetricsRegistry::Enable();
  BlockStore store(MakeInner(), /*block_size=*/8, /*cache_blocks=*/2);
  telemetry::MetricsRegistry& registry = telemetry::MetricsRegistry::Default();
  telemetry::Gauge* occupancy = registry.GetGauge(
      "wavebatch_block_store_lru_occupancy_blocks", {{"store", store.name()}});
  telemetry::Gauge* capacity = registry.GetGauge(
      "wavebatch_block_store_lru_capacity_blocks", {{"store", store.name()}});
  EXPECT_DOUBLE_EQ(capacity->Value(), 2.0);

  store.Fetch(0);  // block 0
  EXPECT_DOUBLE_EQ(occupancy->Value(), 1.0);
  store.Fetch(8);  // block 1 — buffer full
  EXPECT_DOUBLE_EQ(occupancy->Value(), 2.0);
  store.Fetch(16);  // block 2 evicts block 0 — occupancy stays at capacity
  EXPECT_DOUBLE_EQ(occupancy->Value(), 2.0);

  std::vector<uint64_t> keys = {24, 25, 32};  // batch path updates it too
  std::vector<double> out(keys.size());
  ASSERT_TRUE(store.FetchBatch(keys, out).ok());
  EXPECT_DOUBLE_EQ(occupancy->Value(), 2.0);
}

TEST(BlockStoreTest, UnbufferedEveryBlockAccessReads) {
  BlockStore store(MakeInner(), 8, 0);
  IoStats io;
  store.Fetch(0, &io);
  store.Fetch(1, &io);
  store.Fetch(2, &io);
  EXPECT_EQ(io.block_reads, 3u);
  EXPECT_EQ(io.block_hits, 0u);
}

TEST(BlockStoreTest, LruSharedAcrossSinks) {
  // The buffer pool is store state; the counters are per-caller. A second
  // caller with its own sink still hits the cache the first caller warmed.
  BlockStore store(MakeInner(), 8, 2);
  IoStats first, second;
  store.Fetch(0, &first);  // block 0 (miss)
  store.Fetch(1, &second);  // block 0 (hit via the shared cache)
  EXPECT_EQ(first.block_reads, 1u);
  EXPECT_EQ(first.block_hits, 0u);
  EXPECT_EQ(second.block_reads, 0u);
  EXPECT_EQ(second.block_hits, 1u);
}

TEST(BlockStoreTest, DelegatesValuesAndUpdates) {
  BlockStore store(MakeInner(), 8, 2);
  EXPECT_DOUBLE_EQ(store.Peek(5), 6.0);
  EXPECT_DOUBLE_EQ(store.Fetch(5).value(), 6.0);
  store.Add(5, 1.0);
  EXPECT_DOUBLE_EQ(store.Peek(5), 7.0);
  EXPECT_EQ(store.NumNonZero(), 64u);
  EXPECT_EQ(store.name(), "blocked(hash)");
}

// ---------------------------------------------------------------------------
// FetchBatch: behaviorally equivalent to a scalar Fetch loop on every store
// (same values, same retrieval count); BlockStore additionally reads each
// distinct block at most once per call.

/// Runs the same key sequence through `batch_store` (one FetchBatch) and
/// `scalar_store` (a Fetch loop) — the two stores must hold identical data.
void ExpectBatchMatchesScalar(CoefficientStore& batch_store,
                              CoefficientStore& scalar_store,
                              const std::vector<uint64_t>& keys) {
  IoStats batch_io, scalar_io;
  std::vector<double> batched(keys.size());
  ASSERT_TRUE(batch_store.FetchBatch(keys, batched, &batch_io).ok());
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(batched[i], scalar_store.Fetch(keys[i], &scalar_io).value())
        << "key " << keys[i];
  }
  EXPECT_EQ(batch_io.retrievals, scalar_io.retrievals);
  EXPECT_EQ(batch_io.retrievals, keys.size());
}

TEST(FetchBatchTest, HashStoreMatchesScalarLoop) {
  HashStore a, b;
  for (uint64_t k = 0; k < 32; k += 2) {
    a.Add(k, static_cast<double>(k) * 0.5);
    b.Add(k, static_cast<double>(k) * 0.5);
  }
  // Unsorted, with duplicates and absent keys.
  ExpectBatchMatchesScalar(a, b, {9, 2, 2, 31, 0, 30, 2});
}

TEST(FetchBatchTest, DenseStoreMatchesScalarLoop) {
  std::vector<double> values(64);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (i % 3 == 0) ? 0.0 : static_cast<double>(i);
  }
  DenseStore a(values), b(values);
  ExpectBatchMatchesScalar(a, b, {63, 0, 17, 17, 5, 44});
}

TEST(FetchBatchTest, BlockStoreMatchesScalarValuesAndRetrievals) {
  BlockStore a(MakeInner(), 8, 4), b(MakeInner(), 8, 4);
  ExpectBatchMatchesScalar(a, b, {0, 7, 63, 8, 9, 1, 1});
}

TEST(FetchBatchTest, EmptyBatchIsFree) {
  HashStore store;
  IoStats io;
  store.FetchBatch({}, {}, &io);
  EXPECT_EQ(io.retrievals, 0u);
}

TEST(FetchBatchTest, BlockStoreReadsEachDistinctBlockOnce) {
  // 16 coefficients spanning 2 blocks, unbuffered: a scalar loop would
  // charge 16 block reads; one batched call charges exactly 2.
  BlockStore store(MakeInner(), /*block_size=*/8, /*cache_blocks=*/0);
  std::vector<uint64_t> keys;
  for (uint64_t k = 0; k < 16; ++k) keys.push_back(k);
  std::vector<double> out(keys.size());
  IoStats io;
  store.FetchBatch(keys, out, &io);
  EXPECT_EQ(io.retrievals, 16u);
  EXPECT_EQ(io.block_reads, 2u);
  EXPECT_EQ(io.block_hits, 0u);
}

TEST(FetchBatchTest, BlockStoreBatchStillHitsWarmCache) {
  BlockStore store(MakeInner(), 8, 4);
  IoStats io;
  store.Fetch(0, &io);  // warms block 0
  std::vector<uint64_t> keys = {1, 2, 3, 8};
  std::vector<double> out(keys.size());
  store.FetchBatch(keys, out, &io);
  // Block 0 is a (single) hit, block 1 a (single) read.
  EXPECT_EQ(io.block_reads, 2u);  // initial Fetch + block 1
  EXPECT_EQ(io.block_hits, 1u);
}

TEST(BlockStoreTest, FailedInnerFetchTouchesNoCountersOrCache) {
  // Dense inner with capacity 8: key 99 fails. The failed fetch must not
  // warm the LRU, count a block read, or charge a retrieval.
  BlockStore store(std::make_unique<DenseStore>(8), /*block_size=*/8,
                   /*cache_blocks=*/4);
  IoStats io;
  Result<double> value = store.Fetch(99, &io);
  ASSERT_FALSE(value.ok());
  EXPECT_EQ(value.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(io, IoStats{});

  std::vector<uint64_t> keys = {0, 99};
  std::vector<double> out(keys.size());
  EXPECT_FALSE(store.FetchBatch(keys, out, &io).ok());
  EXPECT_EQ(io, IoStats{});
}

TEST(FetchBatchTest, DuplicateKeysEachCountAsRetrieval) {
  // Duplicates cost one retrieval each — identical to the scalar loop, so
  // batching can never *undercount* the paper's metric.
  HashStore store;
  store.Add(3, 1.5);
  std::vector<uint64_t> keys = {3, 3, 3};
  std::vector<double> out(keys.size());
  IoStats io;
  store.FetchBatch(keys, out, &io);
  EXPECT_EQ(io.retrievals, 3u);
  for (double v : out) EXPECT_DOUBLE_EQ(v, 1.5);
}

// ---------------------------------------------------------------------------
// DenseStore's gather loop, which prefetches 8 keys ahead: same values as
// the scalar Fetch loop, and OutOfRange at the FIRST offending index even
// when the bad key sits mid-batch. The suite keeps the name it had when the
// gather also had vectorized tiers.

TEST(KernelTierTest, DenseGatherMatchesScalarFetchBatch) {
  std::vector<double> values(1024);
  Rng rng(41);
  for (double& v : values) v = rng.UniformDouble() * 2.0 - 1.0;
  DenseStore batch_store(values), scalar_store(values);

  std::vector<uint64_t> keys;
  Rng key_rng(42);
  for (size_t i = 0; i < 501; ++i) {  // long and permuted: prefetch runs
    keys.push_back(static_cast<uint64_t>(key_rng.UniformInt(1024)));
  }
  ExpectBatchMatchesScalar(batch_store, scalar_store, keys);
}

TEST(KernelTierTest, DenseGatherReportsFirstOutOfRangeKey) {
  std::vector<double> values(64, 1.5);
  DenseStore store(values);
  // Two bad keys in each batch; the error must name the first one. In the
  // second batch the first bad key (index 9) is past the 8-key lookahead,
  // so the lookahead sees it before the loop does.
  const std::vector<std::vector<uint64_t>> batches = {
      {3, 9, 27, 64, 5, 1 << 20, 2},
      {2, 0, 1, 3, 4, 5, 6, 7, 2, 64, 5, 1 << 20, 2}};
  for (const std::vector<uint64_t>& keys : batches) {
    IoStats io;
    std::vector<double> out(keys.size());
    Status status = store.FetchBatch(keys, out, &io);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::kOutOfRange);
    EXPECT_NE(status.message().find("key 64"), std::string::npos)
        << status.message();
    EXPECT_EQ(io.retrievals, 0u);  // all-or-nothing
  }
}

}  // namespace
}  // namespace wavebatch
