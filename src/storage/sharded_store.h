#ifndef WAVEBATCH_STORAGE_SHARDED_STORE_H_
#define WAVEBATCH_STORAGE_SHARDED_STORE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/coefficient_store.h"
#include "storage/key_router.h"
#include "util/thread_pool.h"

namespace wavebatch {

/// Knobs for the sharded coefficient plane.
struct ShardedStoreOptions {
  /// Dedicated worker threads per shard. With N >= 1 every shard owns a
  /// private ThreadPool and scatter-gather fans sub-batches out to those
  /// pools (thread affinity: shard s's I/O always runs on shard s's
  /// workers, modeling one device queue per shard). 0 disables the fan-out:
  /// sub-batches run serially on the calling thread, in shard order — the
  /// deterministic mode for accounting tests.
  size_t threads_per_shard = 1;
};

/// The sharded coefficient plane: a CoefficientStore that range-partitions
/// the wavelet-key space across S independent backend stores (KeyRouter
/// decides ownership) and serves batches by scatter-gather — partition the
/// key batch per shard, fan the sub-batches out to per-shard thread pools,
/// merge the results. Identical contract to any other store: same values a
/// scalar Fetch loop would produce, all-or-nothing batches, per-call
/// IoStats sinks (a merged sink receives the *sum* of the per-shard
/// sub-model counters, so sharding never changes the cost model — enforced
/// by sharded_store_test against the unsharded plane).
///
/// Every shard is a full store over the global key space; the router alone
/// decides which shard serves a key. That keeps shard backends oblivious
/// to sharding (no key rebasing) and lets any backend mix serve as a
/// shard, including decorator-wrapped ones: wrapping one shard in a
/// FaultInjectionStore composes per-shard — a failed shard fails exactly
/// the batches that touch its keys, which the engine's FaultPolicy::kSkip
/// then degrades to scalar fetches, skipping only that shard's mass.
///
/// Writes: Add routes to the owning shard. Load or maintain the plane
/// first, then share it read-only, exactly like every other store.
class ShardedStore : public CoefficientStore {
 public:
  /// Takes ownership of `shards`; requires shards.size() ==
  /// router.num_shards() >= 1.
  ShardedStore(std::vector<std::unique_ptr<CoefficientStore>> shards,
               KeyRouter router,
               ShardedStoreOptions options = ShardedStoreOptions());
  ~ShardedStore() override;

  double Peek(uint64_t key) const override;
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override;
  const KeyRouter* router() const override { return &router_; }

  /// Routes to the owning shard.
  double PeekErrorBound(uint64_t key) const override {
    return shards_[router_.ShardOf(key)]->PeekErrorBound(key);
  }
  /// True when ANY shard's read path can be lossy.
  bool Lossy() const override {
    for (const auto& shard : shards_) {
      if (shard->Lossy()) return true;
    }
    return false;
  }

  size_t num_shards() const { return shards_.size(); }
  const CoefficientStore& shard(size_t s) const { return *shards_[s]; }
  const ShardedStoreOptions& options() const { return options_; }

  /// Counted keys served by shard s's backend.
  uint64_t shard_keys_fetched(size_t s) const;
  /// Per-shard sub-batches issued by batch scatter-gather; a one-key read
  /// (every scalar Fetch) is one. Deterministic for a fixed workload and
  /// shard count — the machine-independent routing counter the bench
  /// baseline gates on.
  uint64_t subbatches_issued() const {
    return subbatches_.load(std::memory_order_relaxed);
  }

 protected:
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;
  Status DoFetchBatchRouted(std::span<const uint64_t> keys,
                            std::span<const uint32_t> shards,
                            std::span<double> out, IoStats* io) const override;

 private:
  struct alignas(64) ShardCounters {
    std::atomic<uint64_t> keys_fetched{0};
  };

  /// The scatter-gather core shared by both batch hooks. `shards_of` has
  /// one shard id per key (precomputed hints or this call's routing pass).
  Status FetchScatterGather(std::span<const uint64_t> keys,
                            std::span<const uint32_t> shards_of,
                            std::span<double> out, IoStats* io) const;

  KeyRouter router_;
  std::vector<std::unique_ptr<CoefficientStore>> shards_;
  ShardedStoreOptions options_;

  /// Declared after shards_ so pools join (and drop their last references
  /// to shard backends) before any shard is destroyed.
  std::vector<std::unique_ptr<ThreadPool>> pools_;

  std::unique_ptr<ShardCounters[]> shard_counters_;
  mutable std::atomic<uint64_t> subbatches_{0};

  /// Process-wide shard telemetry, labeled by store name (and shard
  /// ordinal where applicable); bound in the constructor body.
  std::vector<telemetry::Counter*> shard_keys_metric_;
  telemetry::Counter* subbatches_metric_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_SHARDED_STORE_H_
