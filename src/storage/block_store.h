#ifndef WAVEBATCH_STORAGE_BLOCK_STORE_H_
#define WAVEBATCH_STORAGE_BLOCK_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "storage/coefficient_store.h"

namespace wavebatch {

/// Block-granularity I/O simulation on top of any coefficient store — the
/// extension the paper's conclusion calls for ("generalize importance
/// functions to disk blocks rather than individual tuples"). Coefficients
/// with the same `key / block_size` live on one simulated disk block; a
/// fetch whose block is not in the LRU buffer costs one block read of
/// block_size × sizeof(double) bytes.
///
/// Per-call IoStats sinks receive the coefficient retrievals, the
/// block-level counters (block_reads / block_hits), and the simulated bytes
/// (bytes_fetched), which bench_ablation_blocks sweeps against block size
/// and key layout and tools/bench_compare gates. This is a cost-model
/// simulator, not a cache: the LRU holds block ids, never values, and every
/// key is read through the inner store, so a counted block hit saves no
/// inner read (ROADMAP item 4 closed the value cache: no workload reads a
/// store slow enough to need one). The LRU is shared store state guarded
/// by a mutex, so concurrent readers are safe; with multiple concurrent
/// sessions the hit/miss split of an individual session depends on
/// interleaving — run with cache_blocks = 0 (unbuffered) when per-session
/// block counts must be deterministic.
///
/// PinVersion() forwards: over a versioned inner store it returns a new
/// BlockStore wrapping the pinned inner snapshot, *sharing this store's
/// simulated buffer pool* — the simulated blocks belong to the medium, not
/// to one epoch view, so reads through any pinned view count against the
/// same LRU. Pinned views are read-only: Add() on one aborts.
class BlockStore : public CoefficientStore {
 public:
  /// `block_size` coefficients per simulated disk block (power of two
  /// recommended); `cache_blocks` is the LRU buffer capacity in blocks
  /// (0 = unbuffered: every fetch from a new block is a read).
  BlockStore(std::unique_ptr<CoefficientStore> inner, uint64_t block_size,
             uint64_t cache_blocks);

  double Peek(uint64_t key) const override;
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override;

  /// Pins the inner store's current epoch and returns a BlockStore over
  /// that snapshot, sharing this store's LRU buffer pool (see class
  /// comment). Null when the inner store is its own snapshot — then this
  /// wrapper is stable too and callers use it directly.
  std::shared_ptr<const CoefficientStore> PinVersion() const override;
  uint64_t epoch() const override { return inner_->epoch(); }

  uint64_t block_size() const { return block_size_; }

 protected:
  /// Reads through the inner backend first and touches the LRU only on
  /// success, so a failed batch neither warms the buffer nor counts a
  /// block read — the inner store's errors propagate.
  /// Touches each distinct block of the batch exactly once (in
  /// first-appearance order): one batched call reads a block at most once
  /// no matter how many of its coefficients the batch wants — the whole
  /// point of block-granularity batching. Values are identical to one-key
  /// reads; block_reads can only be lower.
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  /// The simulated buffer pool, shared between a store and every pinned
  /// view it hands out (one medium, one pool). The LRU holds block ids, not
  /// data: reads mutate it under `mu` so the counted read path stays const
  /// and thread-safe.
  struct BufferPool {
    mutable std::mutex mu;
    // LRU: most recent at front.
    std::list<uint64_t> lru;
    std::unordered_map<uint64_t, std::list<uint64_t>::iterator> in_cache;
  };

  /// Pinned-view constructor: wraps the pinned inner snapshot and shares
  /// the parent's buffer pool and metrics. Read-only (mutable_inner_ stays
  /// null).
  BlockStore(std::shared_ptr<const CoefficientStore> pinned,
             const BlockStore& parent);

  /// Records the block access; returns true on cache hit. Caller must hold
  /// pool_->mu.
  bool TouchLocked(uint64_t block) const;

  /// Post-success block accounting: touches each distinct block of `keys`
  /// once, in first-appearance order. A one-key batch skips the
  /// distinct-block set.
  void TouchBatch(std::span<const uint64_t> keys, IoStats* io) const;

  std::unique_ptr<CoefficientStore> owned_;
  /// Keeps a pinned inner snapshot alive for a pinned view.
  std::shared_ptr<const CoefficientStore> pinned_inner_;
  /// The store every read path delegates to; never null.
  const CoefficientStore* inner_;
  /// Non-const alias of inner_ for Add(); null for a pinned (read-only)
  /// view.
  CoefficientStore* mutable_inner_ = nullptr;

  uint64_t block_size_;
  uint64_t cache_blocks_;
  std::shared_ptr<BufferPool> pool_;

  /// Process-wide twins of the per-session block counters, labeled by store
  /// name; bound in the constructor body (name() is virtual). Pinned views
  /// share the parent's handles — one pool, one metric stream.
  telemetry::Counter* block_reads_metric_;
  telemetry::Counter* block_hits_metric_;
  /// Cache-pressure gauge pair: blocks currently buffered vs. the buffer's
  /// capacity. Operators read the ratio to see how full the simulated
  /// buffer pool runs.
  telemetry::Gauge* lru_occupancy_gauge_;
  telemetry::Gauge* lru_capacity_gauge_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_BLOCK_STORE_H_
