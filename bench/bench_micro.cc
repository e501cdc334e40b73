// Micro-benchmarks for the paper's complexity claims (google-benchmark):
//   - tuple insertion into the wavelet view: O((2δ+2)^d log^d N)
//   - query-vector rewrite: O((4δ+2)^d log^d N)
//   - prefix-sum update: O(N^d) worst case (the inverse trade-off)
//   - 1-D and d-dim DWT throughput
//   - progressive step cost (cursor advance + fetch + estimate updates)

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "data/generators.h"
#include "engine/eval_plan.h"
#include "engine/eval_session.h"
#include "engine/master_list.h"
#include "engine/plan_cache.h"
#include "data/workloads.h"
#include "penalty/sse.h"
#include "storage/block_store.h"
#include "storage/dense_store.h"
#include "storage/memory_store.h"
#include "storage/versioned_store.h"
#include "strategy/prefix_sum_strategy.h"
#include "strategy/wavelet_strategy.h"
#include "telemetry/export.h"
#include "telemetry/metrics.h"
#include "util/random.h"
#include "wavelet/dwt1d.h"
#include "wavelet/lazy_query_transform.h"
#include "wavelet/query_transform.h"
#include "wavelet/dwt_nd.h"

namespace wavebatch {
namespace {

WaveletKind KindForIndex(int64_t i) {
  switch (i) {
    case 0:
      return WaveletKind::kHaar;
    case 1:
      return WaveletKind::kDb4;
    case 2:
      return WaveletKind::kDb6;
    default:
      return WaveletKind::kDb8;
  }
}

void BM_Dwt1D(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const WaveletFilter& filter = WaveletFilter::Get(KindForIndex(state.range(1)));
  Rng rng(7);
  std::vector<double> data(n);
  for (double& v : data) v = rng.Gaussian();
  for (auto _ : state) {
    std::vector<double> copy = data;
    ForwardDwt1D(copy, filter);
    benchmark::DoNotOptimize(copy.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Dwt1D)
    ->ArgsProduct({{1024, 65536}, {0, 1, 3}})
    ->Unit(benchmark::kMicrosecond);

// Args: (d, n) for a Uniform(d, n) cube. The 5-d 16^5 cube (1 M cells)
// spans many chunks of every axis pass, so it times the tiled, parallel
// transform; wall-clock, since the pool's threads do the work.
void BM_DwtNd(benchmark::State& state) {
  Schema schema = Schema::Uniform(static_cast<size_t>(state.range(0)),
                                  static_cast<uint32_t>(state.range(1)));
  const WaveletFilter& filter = WaveletFilter::Get(WaveletKind::kDb4);
  Rng rng(9);
  DenseCube cube(schema);
  for (uint64_t i = 0; i < cube.size(); ++i) cube[i] = rng.Gaussian();
  for (auto _ : state) {
    DenseCube copy = cube;
    ForwardDwtNd(copy, filter);
    benchmark::DoNotOptimize(copy.values().data());
  }
  state.SetItemsProcessed(state.iterations() * cube.size());
}
BENCHMARK(BM_DwtNd)
    ->ArgNames({"d", "n"})
    ->Args({2, 32})
    ->Args({3, 32})
    ->Args({5, 16})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_TupleInsert(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const uint32_t n = static_cast<uint32_t>(state.range(1));
  const WaveletFilter& filter = WaveletFilter::Get(KindForIndex(state.range(2)));
  Schema schema = Schema::Uniform(d, n);
  WaveletStrategy strategy(schema, filter.kind());
  HashStore store;
  Rng rng(11);
  Tuple t(d);
  for (auto _ : state) {
    for (size_t i = 0; i < d; ++i) {
      t[i] = static_cast<uint32_t>(rng.UniformInt(n));
    }
    benchmark::DoNotOptimize(strategy.InsertTuple(store, t, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TupleInsert)
    ->ArgsProduct({{2, 3}, {64, 1024}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_PrefixSumInsert(benchmark::State& state) {
  // The O(N^d) update that motivates wavelets for dynamic data.
  const size_t d = static_cast<size_t>(state.range(0));
  const uint32_t n = static_cast<uint32_t>(state.range(1));
  Schema schema = Schema::Uniform(d, n);
  PrefixSumStrategy strategy(schema,
                             {std::vector<uint32_t>(d, 0)});
  DenseStore store(schema.cell_count());
  Rng rng(13);
  Tuple t(d);
  for (auto _ : state) {
    for (size_t i = 0; i < d; ++i) {
      t[i] = static_cast<uint32_t>(rng.UniformInt(n));
    }
    benchmark::DoNotOptimize(strategy.InsertTuple(store, t, 1.0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PrefixSumInsert)
    ->ArgsProduct({{2, 3}, {64}})
    ->Unit(benchmark::kMicrosecond);

void BM_QueryTransform(benchmark::State& state) {
  const size_t d = static_cast<size_t>(state.range(0));
  const uint32_t n = static_cast<uint32_t>(state.range(1));
  const uint32_t degree = static_cast<uint32_t>(state.range(2));
  Schema schema = Schema::Uniform(d, n);
  WaveletStrategy strategy(schema, WaveletFilter::ForDegree(degree).kind());
  Rng rng(17);
  std::vector<RangeSumQuery> queries;
  for (int i = 0; i < 16; ++i) {
    std::vector<Interval> ivs;
    for (size_t dim = 0; dim < d; ++dim) {
      uint32_t lo = static_cast<uint32_t>(rng.UniformInt(n));
      uint32_t hi = lo + static_cast<uint32_t>(rng.UniformInt(n - lo));
      ivs.push_back({lo, hi});
    }
    Range range = Range::Create(schema, ivs).value();
    queries.push_back(degree == 0 ? RangeSumQuery::Count(range)
                                  : RangeSumQuery::Sum(range, 0));
  }
  size_t qi = 0;
  for (auto _ : state) {
    Result<SparseVec> coeffs =
        strategy.TransformQuery(queries[qi++ % queries.size()]);
    benchmark::DoNotOptimize(coeffs.ok());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QueryTransform)
    ->ArgsProduct({{2, 3}, {64, 1024}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_LazyVsDense1DTransform(benchmark::State& state) {
  // The lazy pruned cascade vs the O(n) dense transform, per dimension.
  const uint64_t n = static_cast<uint64_t>(state.range(0));
  const bool lazy = state.range(1) != 0;
  const WaveletFilter& filter = WaveletFilter::Get(WaveletKind::kDb4);
  const uint32_t lo = static_cast<uint32_t>(n / 7);
  const uint32_t hi = static_cast<uint32_t>(n - n / 5);
  for (auto _ : state) {
    if (lazy) {
      benchmark::DoNotOptimize(
          LazyRangeMonomialDwt1D(n, lo, hi, 1, filter));
    } else {
      benchmark::DoNotOptimize(
          SparseRangeMonomialDwt1D(n, lo, hi, 1, filter));
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LazyVsDense1DTransform)
    ->ArgsProduct({{1024, 65536, 1 << 20}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

void BM_EngineSessionStep(benchmark::State& state) {
  // Cost of one Batch-Biggest-B step on the standard workload shape: the
  // plan is built once and the per-step cost is just cursor advance + fetch
  // + estimate updates (the progression order is a precomputed
  // permutation).
  TemperatureDatasetOptions options;
  options.lat_size = 32;
  options.lon_size = 32;
  options.alt_size = 4;
  options.time_size = 8;
  options.temp_size = 16;
  options.num_records = 200000;
  DenseCube cube = MakeTemperatureCube(options);
  const std::vector<size_t> parts = {8, 8, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, 5);
  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  std::shared_ptr<const CoefficientStore> store = strategy.BuildStore(cube);
  auto sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan =
      EvalPlan::Build(w.batch, strategy, sse).value();
  EvalSession session(plan, store);
  for (auto _ : state) {
    if (session.Done()) {
      state.PauseTiming();
      session = EvalSession(plan, store);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.Step().value());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EngineSessionStep)->Unit(benchmark::kNanosecond);

void BM_EngineSessionStepBatch(benchmark::State& state) {
  // The instrumented hot loop: StepBatch(n) with the telemetry registry
  // enabled vs disabled. The telemetry subsystem's acceptance bar is <2%
  // regression on this benchmark with the registry enabled (counters +
  // one latency histogram + one span per batch, amortized over n steps).
  const size_t batch = static_cast<size_t>(state.range(0));
  const bool enabled = state.range(1) != 0;
  TemperatureDatasetOptions options;
  options.lat_size = 32;
  options.lon_size = 32;
  options.alt_size = 4;
  options.time_size = 8;
  options.temp_size = 16;
  options.num_records = 200000;
  DenseCube cube = MakeTemperatureCube(options);
  const std::vector<size_t> parts = {8, 8, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, 5);
  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  std::shared_ptr<const CoefficientStore> store = strategy.BuildStore(cube);
  auto sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan =
      EvalPlan::Build(w.batch, strategy, sse).value();
  if (enabled) {
    telemetry::MetricsRegistry::Enable();
  } else {
    telemetry::MetricsRegistry::Disable();
  }
  EvalSession::Options opts;
  EvalSession session(plan, store, opts);
  for (auto _ : state) {
    if (session.Done()) {
      state.PauseTiming();
      session = EvalSession(plan, store, opts);
      state.ResumeTiming();
    }
    benchmark::DoNotOptimize(session.StepBatch(batch).value());
  }
  state.SetItemsProcessed(state.iterations() * batch);
  telemetry::MetricsRegistry::Enable();
}
BENCHMARK(BM_EngineSessionStepBatch)
    ->ArgsProduct({{64, 256, 1024}, {0, 1}})
    ->ArgNames({"batch", "telemetry"})
    ->Unit(benchmark::kMicrosecond);

void BM_PlanBuild(benchmark::State& state) {
  // Replanning from scratch: master list + importances + permutations.
  // The parallel:0/1 axis toggles BuildParallelism — both settings produce
  // bit-identical plans, so the ratio is pure construction speedup (1 on a
  // single-core machine; the win shows on multi-core CI runners).
  TemperatureDatasetOptions options;
  options.lat_size = 32;
  options.lon_size = 32;
  options.alt_size = 4;
  options.time_size = 8;
  options.temp_size = 16;
  options.num_records = 100000;
  DenseCube cube = MakeTemperatureCube(options);
  const size_t grid = static_cast<size_t>(state.range(0));
  const BuildParallelism parallelism = state.range(1) != 0
                                           ? BuildParallelism::kParallel
                                           : BuildParallelism::kSerial;
  const std::vector<size_t> parts = {grid, grid, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, 5);
  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  auto sse = std::make_shared<SsePenalty>();
  size_t plan_entries = 0;
  for (auto _ : state) {
    Result<std::shared_ptr<const EvalPlan>> plan =
        EvalPlan::Build(w.batch, strategy, sse, parallelism);
    benchmark::DoNotOptimize(plan.ok());
    plan_entries = (*plan)->size();
  }
  state.SetItemsProcessed(state.iterations() * w.batch.size());
  // Deterministic function of the workload — the machine-independent
  // counter tools/bench_compare gates on.
  state.counters["plan_entries"] =
      static_cast<double>(plan_entries * state.iterations());
}
BENCHMARK(BM_PlanBuild)
    ->ArgsProduct({{4, 8, 16}, {0, 1}})
    ->ArgNames({"grid", "parallel"})
    ->Unit(benchmark::kMillisecond);

void BM_PlanRandomPermutation(benchmark::State& state) {
  // kRandom session startup cost. memoized:1 re-requests one seed (the
  // many-sessions-one-seed pattern — served from the plan's cache, one copy
  // and no shuffle); memoized:0 alternates seeds so every call re-shuffles.
  TemperatureDatasetOptions options;
  options.lat_size = 32;
  options.lon_size = 32;
  options.alt_size = 4;
  options.time_size = 8;
  options.temp_size = 16;
  options.num_records = 100000;
  DenseCube cube = MakeTemperatureCube(options);
  const std::vector<size_t> parts = {8, 8, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, 5);
  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  auto sse = std::make_shared<SsePenalty>();
  std::shared_ptr<const EvalPlan> plan =
      EvalPlan::Build(w.batch, strategy, sse).value();
  const bool memoized = state.range(0) != 0;
  uint64_t seed = 0;
  for (auto _ : state) {
    if (!memoized) ++seed;
    std::vector<size_t> perm = plan->RandomPermutation(seed);
    benchmark::DoNotOptimize(perm.data());
  }
  state.SetItemsProcessed(state.iterations() * plan->size());
}
BENCHMARK(BM_PlanRandomPermutation)
    ->Arg(0)->Arg(1)
    ->ArgNames({"memoized"})
    ->Unit(benchmark::kMicrosecond);

void BM_PlanCacheHit(benchmark::State& state) {
  // The repeated-dashboard case: an identical batch arrives again and the
  // cache hands back the shared plan. Compare against BM_PlanBuild at the
  // same grid size for the hit-vs-replan ratio.
  TemperatureDatasetOptions options;
  options.lat_size = 32;
  options.lon_size = 32;
  options.alt_size = 4;
  options.time_size = 8;
  options.temp_size = 16;
  options.num_records = 100000;
  DenseCube cube = MakeTemperatureCube(options);
  const size_t grid = static_cast<size_t>(state.range(0));
  const std::vector<size_t> parts = {grid, grid, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, 5);
  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  auto sse = std::make_shared<SsePenalty>();
  PlanCache cache(8);
  benchmark::DoNotOptimize(cache.GetOrBuild(w.batch, strategy, sse).ok());
  for (auto _ : state) {
    Result<std::shared_ptr<const EvalPlan>> plan =
        cache.GetOrBuild(w.batch, strategy, sse);
    benchmark::DoNotOptimize(plan.ok());
  }
  state.SetItemsProcessed(state.iterations() * w.batch.size());
}
BENCHMARK(BM_PlanCacheHit)->Arg(4)->Arg(8)->Arg(16)
    ->Unit(benchmark::kMicrosecond);

void BM_MasterListBuild(benchmark::State& state) {
  TemperatureDatasetOptions options;
  options.lat_size = 32;
  options.lon_size = 32;
  options.alt_size = 4;
  options.time_size = 8;
  options.temp_size = 16;
  options.num_records = 100000;
  DenseCube cube = MakeTemperatureCube(options);
  const size_t grid = static_cast<size_t>(state.range(0));
  const std::vector<size_t> parts = {grid, grid, 1, 1, 1};
  PartitionWorkload w = MakePartitionWorkload(
      cube.schema(), parts, CellAggregate::kSum, kTemp, 5);
  WaveletStrategy strategy(cube.schema(), WaveletKind::kDb4);
  const BuildParallelism parallelism = state.range(1) != 0
                                           ? BuildParallelism::kParallel
                                           : BuildParallelism::kSerial;
  size_t master_entries = 0;
  for (auto _ : state) {
    Result<MasterList> list =
        MasterList::Build(w.batch, strategy, parallelism);
    benchmark::DoNotOptimize(list.ok());
    master_entries = list->size();
  }
  state.SetItemsProcessed(state.iterations() * w.batch.size());
  // Deterministic function of the workload — the machine-independent
  // counter tools/bench_compare gates on.
  state.counters["master_entries"] =
      static_cast<double>(master_entries * state.iterations());
}
BENCHMARK(BM_MasterListBuild)
    ->ArgsProduct({{4, 8, 16}, {0, 1}})
    ->ArgNames({"grid", "parallel"})
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Scalar Fetch loop vs FetchBatch — the batched retrieval plane's payoff.
// Keys are a scattered-but-clustered pattern (golden-ratio stride) so a
// batch mixes runs of nearby keys with singletons.

constexpr uint64_t kFetchBenchCapacity = 1 << 16;

// Clustered-run key pattern: runs of 8 near-consecutive keys scattered
// across the key space. This is the shape a master list produces —
// coarse-level wavelet coefficients for overlapping ranges land in the same
// neighborhood — so BM_BlockStoreFetch reads most runs from one simulated
// block.
std::vector<uint64_t> MakeFetchKeys(size_t batch_size) {
  std::vector<uint64_t> keys(batch_size);
  for (size_t i = 0; i < batch_size; ++i) {
    const uint64_t cluster = i / 8;
    const uint64_t base = (cluster * 2654435761u) % (kFetchBenchCapacity - 8);
    keys[i] = base + (i % 8);
  }
  return keys;
}

void BM_BlockStoreFetch(benchmark::State& state) {
  const size_t batch_size = static_cast<size_t>(state.range(0));
  const bool batched = state.range(1) != 0;
  Rng rng(43);
  auto dense = std::make_unique<DenseStore>(kFetchBenchCapacity);
  for (uint64_t k = 0; k < kFetchBenchCapacity; ++k) {
    dense->Add(k, rng.Gaussian());
  }
  BlockStore store(std::move(dense), /*block_size=*/64, /*cache_blocks=*/32);
  const std::vector<uint64_t> keys = MakeFetchKeys(batch_size);
  std::vector<double> out(batch_size);
  IoStats io;
  const auto pass = [&] {
    if (batched) {
      WB_CHECK_OK(store.FetchBatch(keys, out, &io));
    } else {
      for (size_t i = 0; i < batch_size; ++i) {
        out[i] = store.Fetch(keys[i], &io).value();
      }
    }
  };
  // One untimed pass warms the LRU, so every timed pass starts from the
  // same LRU state and block_reads per iteration is exact (bench_compare
  // divides the whole-run total by the iteration count).
  pass();
  io.Reset();
  for (auto _ : state) {
    pass();
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * batch_size);
  state.counters["block_reads"] = static_cast<double>(io.block_reads);
}
BENCHMARK(BM_BlockStoreFetch)
    ->ArgsProduct({{1, 16, 256, 4096}, {0, 1}})
    ->ArgNames({"batch", "batched"})
    ->Unit(benchmark::kMicrosecond);

// Zipf(s=1.1) ranks scrambled with a Knuth-style multiplier so the popular
// head spreads across the key range instead of piling onto one corner.
std::vector<uint64_t> MakeZipfKeys(size_t batch_size) {
  Rng rng(53);
  std::vector<uint64_t> keys(batch_size);
  for (uint64_t& key : keys) {
    const uint64_t rank = rng.Zipf(kFetchBenchCapacity, /*s=*/1.1);
    key = (rank * 2654435761u) % kFetchBenchCapacity;
  }
  return keys;
}

void BM_BlockStoreFetchZipf(benchmark::State& state) {
  // Block reads and backend bytes per fetch under a skewed (Zipf) key
  // workload through a 32-block LRU: a read transfers the full-width block,
  // block_size × 8 bytes. bench_compare gates both counters.
  Rng rng(43);
  auto dense = std::make_unique<DenseStore>(kFetchBenchCapacity);
  for (uint64_t k = 0; k < kFetchBenchCapacity; ++k) {
    dense->Add(k, rng.Gaussian());
  }
  BlockStore store(std::move(dense), /*block_size=*/64, /*cache_blocks=*/32);
  const std::vector<uint64_t> keys = MakeZipfKeys(256);
  std::vector<double> out(keys.size());
  IoStats io;
  // Untimed warm pass: per-iteration block counts are exact (see
  // BM_BlockStoreFetch).
  WB_CHECK_OK(store.FetchBatch(keys, out, &io));
  io.Reset();
  for (auto _ : state) {
    WB_CHECK_OK(store.FetchBatch(keys, out, &io));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * keys.size());
  state.counters["block_reads"] = static_cast<double>(io.block_reads);
  state.counters["bytes_fetched"] = static_cast<double>(io.bytes_fetched);
}
BENCHMARK(BM_BlockStoreFetchZipf)->Unit(benchmark::kMicrosecond);

void BM_IngestThroughput(benchmark::State& state) {
  // The full streaming write path: tuple -> TransformUpdate delta ->
  // versioned-plane apply. One iteration ingests a fixed 64-tuple pool and
  // publishes an epoch; update_entries counts coefficient entries applied,
  // an exact function of the schema, filter, and tuple pool (the paper's
  // O((2δ+2)^d log^d N) per-tuple update cost), so bench_compare gates it.
  const size_t d = static_cast<size_t>(state.range(0));
  const WaveletKind kind =
      state.range(1) == 0 ? WaveletKind::kHaar : WaveletKind::kDb4;
  Schema schema = Schema::Uniform(d, d == 3 ? 16 : 64);
  WaveletStrategy strategy(schema, kind);
  Relation seed_rel = MakeUniformRelation(schema, 400, 3);
  VersionedStore store(strategy.BuildStore(seed_rel.FrequencyDistribution()));
  const Relation pool = MakeUniformRelation(schema, 64, 29);
  uint64_t entries = 0;
  for (auto _ : state) {
    for (const Tuple& t : pool.tuples()) {
      Result<SparseVec> delta = strategy.TransformUpdate(t, 1.0);
      entries += delta.value().size();
      store.Ingest(*delta);
    }
    store.Publish();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(pool.tuples().size()));
  state.counters["update_entries"] = static_cast<double>(entries);
}
BENCHMARK(BM_IngestThroughput)
    ->ArgsProduct({{2, 3}, {0, 1}})
    ->ArgNames({"d", "db4"})
    ->Unit(benchmark::kMicrosecond);

void BM_FetchUnderIngest(benchmark::State& state) {
  // Read latency with a live writer: a background thread ingests,
  // publishes every 32 tuples, and folds every 1024 while the timed loop
  // runs batched reads through the epoch-pinned snapshot path. Real time —
  // the quantity under test is wall-clock interference, not CPU work.
  // writer:0 is the control (same store, no concurrent writes).
  const bool writer_on = state.range(0) != 0;
  Schema schema = Schema::Uniform(2, 64);
  WaveletStrategy strategy(schema, WaveletKind::kHaar);
  Relation rel = MakeUniformRelation(schema, 2000, 3);
  VersionedStore store(strategy.BuildStore(rel.FrequencyDistribution()));

  std::vector<uint64_t> keys;
  store.ForEachNonZero([&](uint64_t key, double) {
    if (keys.size() < 256) keys.push_back(key);
  });
  std::vector<double> out(keys.size());

  const Relation stream = MakeUniformRelation(schema, 256, 31);
  std::vector<SparseVec> deltas;
  for (const Tuple& t : stream.tuples()) {
    deltas.push_back(strategy.TransformUpdate(t, 1.0).value());
  }
  std::atomic<bool> stop{false};
  std::thread writer;
  if (writer_on) {
    writer = std::thread([&] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        store.Ingest(deltas[i % deltas.size()]);
        if (++i % 32 == 0) store.Publish();
        if (i % 1024 == 0) store.Merge();
      }
    });
  }
  for (auto _ : state) {
    IoStats io;
    WB_CHECK_OK(store.FetchBatch(keys, out, &io));
    benchmark::DoNotOptimize(out.data());
  }
  stop.store(true);
  if (writer.joinable()) writer.join();
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(keys.size()));
}
BENCHMARK(BM_FetchUnderIngest)
    ->Arg(0)->Arg(1)
    ->ArgNames({"writer"})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace wavebatch

// BENCHMARK_MAIN plus a default machine-readable report: unless the caller
// passes their own --benchmark_out, results land in BENCH_micro.json
// (google-benchmark's JSON schema: per-benchmark name, args, real/cpu time,
// and counters such as block_reads). --metrics_out=path additionally dumps
// the telemetry registry as Prometheus text after the run (the flag is
// consumed here; google-benchmark never sees it).
int main(int argc, char** argv) {
  std::string metrics_out;
  std::vector<char*> args;
  args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--metrics_out=", 0) == 0) {
      metrics_out = arg.substr(std::string("--metrics_out=").size());
    } else {
      args.push_back(argv[i]);
    }
  }
  bool has_out = false;
  for (size_t i = 1; i < args.size(); ++i) {
    if (std::string(args[i]).rfind("--benchmark_out", 0) == 0) has_out = true;
  }
  std::string out_flag = "--benchmark_out=BENCH_micro.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int new_argc = static_cast<int>(args.size());
  benchmark::Initialize(&new_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) return 1;
  // Stamp the report with how THIS project was compiled. The stock
  // "library_build_type" context key reflects the installed benchmark
  // library's NDEBUG, not ours — on distro packages it reads "debug"
  // forever, which is useless for rejecting debug-built baselines.
  // bench_compare prefers this key and refuses reports where it says
  // "debug".
#ifdef NDEBUG
  benchmark::AddCustomContext("wavebatch_build_type", "release");
#else
  benchmark::AddCustomContext("wavebatch_build_type", "debug");
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!metrics_out.empty()) {
    const std::string text = wavebatch::telemetry::ExportPrometheus();
    FILE* f = std::fopen(metrics_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "failed to open --metrics_out=%s\n",
                   metrics_out.c_str());
      return 1;
    }
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", metrics_out.c_str());
  }
  return 0;
}
