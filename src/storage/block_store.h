#ifndef WAVEBATCH_STORAGE_BLOCK_STORE_H_
#define WAVEBATCH_STORAGE_BLOCK_STORE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "storage/coefficient_store.h"
#include "storage/compressed_block.h"

namespace wavebatch {

/// Configuration for a BlockStore (see class comment).
struct BlockStoreOptions {
  /// Coefficients per simulated disk block (power of two recommended).
  uint64_t block_size = 64;
  /// LRU buffer capacity in blocks (0 = unbuffered: every fetch from a new
  /// block is a read).
  uint64_t cache_blocks = 0;
  /// Compressed-page mode: at construction the inner store's nonzero
  /// coefficients are sealed into one CompressedPage per block (delta +
  /// bit-packed keys; optionally quantized values per `page`), and every
  /// read is served from the pages — the inner backend is never touched
  /// again. The store becomes read-only (Add aborts) and is its own epoch
  /// snapshot. Block reads charge the encoded page size to
  /// IoStats::bytes_fetched instead of the full-width block.
  bool compress_pages = false;
  /// Value codec for compressed pages. With `page.quantize` set the store
  /// is lossy: reads return decoded values, PeekErrorBound(key) reports the
  /// owning page's exact max decode error, and Lossy() is true so the
  /// engine widens Theorem-1 bounds accordingly.
  CompressedPageOptions page;
};

/// Block-granularity I/O simulation on top of any coefficient store — the
/// extension the paper's conclusion calls for ("generalize importance
/// functions to disk blocks rather than individual tuples"). Coefficients
/// with the same `key / block_size` live on one simulated disk block; a
/// fetch whose block is not in the LRU buffer costs one block read of
/// block_size × sizeof(double) bytes — or, in compressed-page mode, of the
/// block's encoded page size.
///
/// Per-call IoStats sinks receive the coefficient retrievals, the
/// block-level counters (block_reads / block_hits), and the simulated bytes
/// (bytes_fetched), which bench_ablation_blocks sweeps against block size
/// and key layout and tools/bench_compare gates. The LRU buffer is shared
/// store state (like a real buffer pool) guarded by a mutex, so concurrent
/// readers are safe; with multiple concurrent sessions the hit/miss split
/// of an individual session depends on interleaving — run with
/// cache_blocks = 0 (unbuffered) when per-session block counts must be
/// deterministic.
///
/// Compressed-page mode (BlockStoreOptions::compress_pages) seals the inner
/// store's contents at construction: pages serve every read, keys absent
/// from a page decode to an exact 0.0, and block_reads/block_hits count
/// exactly as in plain mode (the block model is unchanged; only the bytes
/// per read shrink). The logical *scan* surface — SumAbs, NumNonZero,
/// ForEachNonZero — still reflects the exact inner coefficients: SumAbs is
/// Theorem 1's K over the true Δ̂, and quantization error is accounted
/// separately through PeekErrorBound, never double-counted into K.
///
/// PinVersion() forwards: over a versioned inner store it returns a new
/// BlockStore wrapping the pinned inner snapshot, *sharing this store's
/// buffer pool* — a real buffer pool caches blocks of the medium, not of
/// one epoch view, so reads through any pinned view warm the same LRU.
/// Pinned views are read-only: Add() on one aborts. A compressed store is
/// its own snapshot (contents sealed at construction) and returns null.
class BlockStore : public CoefficientStore {
 public:
  BlockStore(std::unique_ptr<CoefficientStore> inner,
             BlockStoreOptions options);

  /// Legacy plain-mode constructor.
  BlockStore(std::unique_ptr<CoefficientStore> inner, uint64_t block_size,
             uint64_t cache_blocks);

  double Peek(uint64_t key) const override;
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override;

  /// Forwards the inner store's partition so routing hints survive the
  /// block-granularity wrapper (a sharded plane is often block-simulated
  /// per shard or wrapped whole).
  const KeyRouter* router() const override { return inner_->router(); }

  /// Compressed mode: the owning page's exact max decode error when `key`
  /// is stored (absent keys are exact zeros). Plain mode: forwards inner.
  double PeekErrorBound(uint64_t key) const override;
  bool Lossy() const override;

  /// Pins the inner store's current epoch and returns a BlockStore over
  /// that snapshot, sharing this store's LRU buffer pool (see class
  /// comment). Null when the inner store is its own snapshot — then this
  /// wrapper is stable too and callers use it directly.
  std::shared_ptr<const CoefficientStore> PinVersion() const override;

  uint64_t block_size() const { return block_size_; }
  bool compressed() const { return compress_; }
  /// Total encoded bytes across all pages (0 in plain mode) — the numerator
  /// of the compression-ratio tables in EXPERIMENTS.md.
  uint64_t total_page_bytes() const;
  /// Max page decode error across all pages (0 unless quantized).
  double max_quantization_error() const { return max_quantization_error_; }

 protected:
  /// Reads through the inner backend first and touches the LRU only on
  /// success, so a failed fetch neither warms the buffer nor counts a
  /// block read — errors (e.g. from a file-backed inner store) propagate.
  /// Compressed mode serves the page directly and cannot fail.
  Result<double> DoFetch(uint64_t key, IoStats* io) const override;

  /// Groups the batch by block id and touches each distinct block exactly
  /// once (in first-appearance order): one batched call reads a block at
  /// most once no matter how many of its coefficients the batch wants —
  /// the whole point of block-granularity batching. Values are identical
  /// to a scalar Fetch loop; block_reads can only be lower.
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

  /// Same distinct-block-once batching, with the routing hints forwarded to
  /// the inner backend (the block model is orthogonal to routing; the hints
  /// are moot in compressed mode, which never reaches the inner store).
  Status DoFetchBatchRouted(std::span<const uint64_t> keys,
                            std::span<const uint32_t> shards,
                            std::span<double> out, IoStats* io) const override;

 private:
  /// The simulated buffer pool, shared between a store and every pinned
  /// view it hands out (one medium, one pool). The LRU is logically cache
  /// state, not data: reads mutate it under `mu` so the counted read path
  /// stays const and thread-safe.
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

  /// Shared constructor tail: telemetry binding.
  void BindMetrics();

  /// Compressed mode: encode one page per block from the sealed inner view.
  void BuildPages();

  /// Records the block access; returns true on cache hit. Caller must hold
  /// pool_->mu.
  bool TouchLocked(uint64_t block) const;

  /// Simulated bytes one read of `block` transfers.
  uint64_t BytesOfBlock(uint64_t block) const;

  /// Post-success block accounting shared by both batch hooks: touches each
  /// distinct block of `keys` once, in first-appearance order.
  void TouchBatch(std::span<const uint64_t> keys, IoStats* io) const;

  /// Compressed-mode value lookup (uncounted).
  double PageValue(uint64_t key) const;

  std::unique_ptr<CoefficientStore> owned_;
  /// Keeps a pinned inner snapshot alive for a pinned view.
  std::shared_ptr<const CoefficientStore> pinned_inner_;
  /// The store every read path delegates to; never null.
  const CoefficientStore* inner_;
  /// Non-const alias of inner_ for Add(); null for a pinned (read-only)
  /// view and in compressed mode (contents sealed).
  CoefficientStore* mutable_inner_ = nullptr;

  uint64_t block_size_;
  uint64_t cache_blocks_;
  bool compress_ = false;
  CompressedPageOptions page_options_;
  /// Compressed mode only: block id -> encoded page. Immutable once built,
  /// so the counted read path shares it lock-free.
  std::unordered_map<uint64_t, CompressedPage> pages_;
  double max_quantization_error_ = 0.0;
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
