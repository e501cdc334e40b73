#ifndef WAVEBATCH_STORAGE_VERSIONED_STORE_H_
#define WAVEBATCH_STORAGE_VERSIONED_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

#include "storage/coefficient_store.h"
#include "storage/delta_store.h"
#include "util/epoch_ptr.h"
#include "util/thread_pool.h"
#include "wavelet/sparse_vec.h"

namespace wavebatch {

/// One published epoch of the versioned coefficient plane: an immutable
/// `base ⊕ overlay` view. Reads delegate to the base store (preserving its
/// batch strategy, router, and sub-model I/O counters) and then add the
/// overlay's consolidated per-key delta — one floating-point addition per
/// key that streaming ingestion has touched, zero work per untouched key.
/// With a null overlay every read path is pure delegation, so the static
/// (no-ingest) plane is byte-identical to reading the base directly.
///
/// A SnapshotStore never changes after construction: any number of
/// concurrent readers may fetch from it while the owning VersionedStore
/// ingests and merges. It is the object PinVersion() hands to sessions.
///
/// Decorated epoch views come from pinning *through* the decorator:
/// FaultInjectionStore/BlockStore forward PinVersion by re-wrapping the
/// pinned SnapshotStore, so sessions over a decorated versioned plane stay
/// both pinned and decorated. SnapshotStore itself inherits the base-class
/// PinVersion (null: a snapshot is its own snapshot).
class SnapshotStore : public CoefficientStore {
 public:
  /// `base` must be non-null; `overlay` may be null (pure delegation).
  SnapshotStore(uint64_t epoch, std::shared_ptr<const CoefficientStore> base,
                std::shared_ptr<const DeltaOverlay> overlay);

  double Peek(uint64_t key) const override;
  /// Snapshots are immutable; writing aborts. Write through the owning
  /// VersionedStore instead.
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override { return name_; }
  /// The base store's router: valid because this snapshot keeps its exact
  /// base alive, so hints computed against it stay correct for the
  /// snapshot's lifetime even after the owning VersionedStore merges.
  const KeyRouter* router() const override { return base_->router(); }

  /// The overlay's per-key deltas are exact, so the base's decode error is
  /// the snapshot's decode error.
  double PeekErrorBound(uint64_t key) const override {
    return base_->PeekErrorBound(key);
  }
  bool Lossy() const override { return base_->Lossy(); }

  uint64_t epoch() const { return epoch_; }
  const CoefficientStore& base() const { return *base_; }
  /// Null when this epoch has no unmerged deltas.
  const DeltaOverlay* overlay() const { return overlay_.get(); }

 protected:
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;
  Status DoFetchBatchRouted(std::span<const uint64_t> keys,
                            std::span<const uint32_t> shards,
                            std::span<double> out, IoStats* io) const override;

 private:
  const uint64_t epoch_;
  const std::shared_ptr<const CoefficientStore> base_;
  const std::shared_ptr<const DeltaOverlay> overlay_;
  const std::string name_;
};

struct VersionedStoreOptions {
  /// Folds a sealed overlay into a base store, producing the NEW base for
  /// subsequent epochs. Runs off the writer lock (possibly on a background
  /// thread); it must not mutate `base`, only read it. The default builds a
  /// HashStore: a copy of base with each overlay add folded in by one
  /// addition per key — the same single addition a snapshot read performs,
  /// so the merge is value-preserving bit for bit.
  ///
  /// Sharded planes supply their own merge_fn that rebuilds a ShardedStore
  /// around the same KeyRouter (see versioned_store_test).
  std::function<std::unique_ptr<CoefficientStore>(const CoefficientStore& base,
                                                  const DeltaOverlay& overlay)>
      merge_fn;

  /// Auto-publish a new epoch after this many ingests (Ingest/Add calls)
  /// since the last publish. 0 = publish only when asked. Auto-publishing
  /// bounds the staleness of PinVersion() without a maintenance thread.
  uint64_t publish_every = 0;

  /// Invoked with the new epoch number after every publish — explicit
  /// Publish(), auto-publish (publish_every), and the republish that
  /// completes a merge. Called OUTSIDE the writer lock (the epoch is
  /// already visible to readers), so the callback may call back into the
  /// store; it must be thread-safe, since background merges publish from
  /// pool threads, and must not block on Merge()/WaitForMerge() — a
  /// merge-completion callback fires before its merge is marked complete
  /// (so the store cannot be destroyed mid-callback) and would
  /// self-deadlock. Typical use: `QueryService::RefreshEpoch`, so new
  /// admissions serve the fresh epoch.
  std::function<void(uint64_t epoch)> on_publish;
};

/// The streaming coefficient plane: a read-optimized base store plus an
/// in-memory DeltaStore overlay absorbing tuple-insertion deltas
/// (LinearStrategy::TransformUpdate output), published to readers as
/// immutable epoch snapshots.
///
/// Concurrency contract — the one departure from the base class's
/// "load first, then share read-only" rule:
///   * Any number of reader threads may Fetch/FetchBatch (or pin a
///     snapshot via PinVersion() and read that) concurrently with one or
///     more writer threads calling Ingest/Add/Publish/Merge. Writers are
///     serialized on an internal mutex; readers are wait-free against
///     writers except for the one mutex-guarded pointer pin.
///   * Reads served by this store pin the current published snapshot per
///     call; a session that must see ONE epoch across many calls pins once
///     via PinVersion() (EvalSession does this at construction).
///
/// Epoch lifecycle: ingests accumulate invisibly in the active DeltaStore;
/// Publish() seals `merging ⊕ active` into a fresh SnapshotStore and swaps
/// it in (readers advance at the next pin); Merge() additionally folds the
/// sealed overlay into a NEW base store — built off-lock so readers are
/// never blocked — then swaps the base and republishes. Ingests landing
/// during a merge go to the active overlay and are carried into the
/// post-merge epoch.
///
/// Determinism: each published epoch is a pure function of the event log
/// (the sequence of ingests and publish/merge points). Replaying the same
/// log against a rebuilt plane reproduces every epoch bit for bit — the
/// golden tests rely on exactly this.
class VersionedStore : public CoefficientStore {
 public:
  explicit VersionedStore(std::unique_ptr<CoefficientStore> base,
                          VersionedStoreOptions options = {});
  /// Blocks until any in-flight background merge completes.
  ~VersionedStore() override;

  /// Absorbs one sparse coefficient delta (one tuple insertion as
  /// transformed by a LinearStrategy). Invisible to readers until the next
  /// Publish/Merge. Thread-safe against readers and other writers.
  void Ingest(const SparseVec& delta);

  /// Single-coefficient ingest (the CoefficientStore write seam).
  void Add(uint64_t key, double delta) override;

  /// Seals all unmerged deltas into a new published epoch and returns its
  /// number. Cheap: proportional to the number of distinct unmerged keys.
  uint64_t Publish();

  /// Synchronous merge: seals all unmerged deltas, folds them into a new
  /// base via options.merge_fn, swaps the base, and publishes the
  /// post-merge epoch. Returns the published epoch (the current epoch
  /// unchanged if there was nothing to merge). Readers are never blocked:
  /// the fold runs off the writer lock. Blocks if another merge is already
  /// in flight.
  uint64_t Merge();

  /// Starts Merge()'s fold on `pool` (ThreadPool::Shared() when null) and
  /// returns immediately. Returns false without scheduling anything if a
  /// merge is already in flight or there is nothing to merge. The sealed
  /// cut is taken synchronously, so every ingest before this call is in
  /// the merge and every ingest after it is not.
  bool StartBackgroundMerge(ThreadPool* pool = nullptr);

  /// Blocks until no merge is in flight.
  void WaitForMerge();

  /// The current published epoch's immutable snapshot.
  std::shared_ptr<const SnapshotStore> Snapshot() const {
    return snapshot_.Pin();
  }

  std::shared_ptr<const CoefficientStore> PinVersion() const override {
    return snapshot_.Pin();
  }

  /// Published epoch number (0 = the pristine base, before any publish).
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Distinct unmerged coefficient keys overlaying the base right now
  /// (active plus merging). Takes the writer lock; observability only.
  size_t delta_entries() const;

  /// Authoritative uncounted read: base plus ALL deltas, including
  /// unpublished ones. Takes the writer lock; meant for tests and
  /// maintenance, not hot paths.
  double Peek(uint64_t key) const override;

  /// Aggregates of the current PUBLISHED epoch (unpublished ingests are
  /// not visible here, matching what readers can observe).
  uint64_t NumNonZero() const override;
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;

  std::string name() const override { return name_; }
  /// Null on purpose: the base store (and with it any router) may be
  /// replaced by a merge, so hints computed against this store could not
  /// honor the router-stability promise. Pin a snapshot and use ITS router
  /// for stable hints.
  const KeyRouter* router() const override { return nullptr; }

  /// Forwarded to the current published snapshot — same view counted reads
  /// pin. Sessions that must see one epoch pin first and ask the snapshot.
  double PeekErrorBound(uint64_t key) const override {
    return snapshot_.Pin()->PeekErrorBound(key);
  }
  bool Lossy() const override { return snapshot_.Pin()->Lossy(); }

 protected:
  /// Counted reads pin the current published snapshot per call and
  /// delegate to it (uncounted inner read; this store's wrapper already
  /// charged the retrievals). Routed hints are NOT forwarded — router() is
  /// null, so hints cannot have been computed against this store; the
  /// inherited DoFetchBatchRouted discards them into DoFetchBatch.
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  /// Seals merging ⊕ active, bumps the epoch, swaps in the new snapshot,
  /// and resets the auto-publish countdown. Caller holds write_mu_.
  uint64_t PublishLocked();
  /// The off-lock fold + locked swap/republish tail shared by Merge and
  /// StartBackgroundMerge.
  void FoldAndSwap(std::shared_ptr<const CoefficientStore> old_base,
                   std::shared_ptr<const DeltaOverlay> overlay);
  /// Returns the epoch it published, or 0 if the auto-publish threshold was
  /// not reached (PublishLocked never returns 0, so 0 is unambiguous).
  uint64_t MaybeAutoPublishLocked();
  /// Fires options_.on_publish for a nonzero epoch. Must be called with
  /// write_mu_ released — the callback may re-enter the store.
  void NotifyPublished(uint64_t epoch) const;

  static std::unique_ptr<CoefficientStore> HashMerge(
      const CoefficientStore& base, const DeltaOverlay& overlay);

  const VersionedStoreOptions options_;
  const std::string name_;

  /// Serializes writers (ingest/publish/merge bookkeeping) and guards
  /// base_, active_, merging_, merge_in_flight_, pending_since_publish_.
  mutable std::mutex write_mu_;
  std::condition_variable merge_cv_;
  std::shared_ptr<const CoefficientStore> base_;
  DeltaStore active_;
  /// Sealed overlay currently being folded into the base, or null. Still
  /// part of every published view until the merge swaps the base.
  std::shared_ptr<const DeltaOverlay> merging_;
  bool merge_in_flight_ = false;
  uint64_t pending_since_publish_ = 0;

  /// The published epoch snapshot readers pin. Swapped atomically by
  /// PublishLocked; never null.
  EpochPtr<SnapshotStore> snapshot_;
  std::atomic<uint64_t> epoch_{0};

  telemetry::Counter* ingests_metric_;
  telemetry::Counter* ingested_entries_metric_;
  telemetry::Counter* publishes_metric_;
  telemetry::Counter* merges_metric_;
  telemetry::Gauge* epoch_gauge_;
  telemetry::Gauge* delta_entries_gauge_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_VERSIONED_STORE_H_
