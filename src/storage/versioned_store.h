#ifndef WAVEBATCH_STORAGE_VERSIONED_STORE_H_
#define WAVEBATCH_STORAGE_VERSIONED_STORE_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "storage/coefficient_store.h"
#include "util/thread_pool.h"
#include "wavelet/sparse_vec.h"

namespace wavebatch {

/// One sealed, immutable slice of the delta plane: the consolidated
/// per-coefficient adds accumulated by streaming ingestion since the base
/// store was last merged. `base value + adds[key]` is the versioned plane's
/// read equation (SnapshotStore applies it on the counted fetch path).
///
/// Consolidation is per key: however many tuple deltas touched a key, the
/// overlay holds ONE summed add for it, so applying the overlay costs one
/// floating-point addition per fetched key, and folding it into the base
/// store (the merge) is exactly that same single addition — which is why a
/// merge is bitwise invisible to readers (versioned_store_test proves it).
///
/// Exact zeros are kept, not dropped: a key whose adds cancelled to 0.0
/// still records "this key was written", and `base + 0.0` is not a bitwise
/// no-op for a -0.0 base value. Keeping them makes the plane a
/// deterministic function of the ingest log alone.
struct DeltaOverlay {
  std::unordered_map<uint64_t, double> adds;

  size_t size() const { return adds.size(); }
  bool empty() const { return adds.empty(); }
};

/// One published epoch of the versioned coefficient plane: an immutable
/// `base ⊕ overlay` view. Reads delegate to the base store (preserving its
/// batch strategy and sub-model I/O counters) and then add the
/// overlay's consolidated per-key delta — one floating-point addition per
/// key that streaming ingestion has touched, zero work per untouched key.
/// With a null overlay every read path is pure delegation, so the static
/// (no-ingest) plane is byte-identical to reading the base directly.
///
/// A SnapshotStore never changes after construction: any number of
/// concurrent readers may fetch from it while the owning VersionedStore
/// ingests and merges. It is the object PinVersion() hands to sessions.
///
/// Its K is derived once, in O(overlay): the base's K plus, per overlay
/// key, |b + δ| − |b|, where b is the base's Peek and b + δ the same single
/// addition the read path performs. With a null overlay it is the base's
/// K bit for bit.
///
/// Decorated epoch views come from pinning *through* the decorator:
/// FaultInjectionStore/BlockStore forward PinVersion by re-wrapping the
/// pinned SnapshotStore, and forward epoch() to it, so sessions over a
/// decorated versioned plane stay both pinned and decorated and report the
/// snapshot's epoch. SnapshotStore itself inherits the base-class
/// PinVersion (null: a snapshot is its own snapshot).
class SnapshotStore : public CoefficientStore {
 public:
  /// `base` must be non-null; `overlay` may be null (pure delegation).
  /// Peeks the base once per overlay key to derive K.
  SnapshotStore(uint64_t epoch, std::shared_ptr<const CoefficientStore> base,
                std::shared_ptr<const DeltaOverlay> overlay);

  double Peek(uint64_t key) const override;
  /// Snapshots are immutable; writing aborts. Write through the owning
  /// VersionedStore instead.
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override { return sum_abs_; }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override { return name_; }

  uint64_t epoch() const override { return epoch_; }
  const CoefficientStore& base() const { return *base_; }
  /// Null when this epoch has no unmerged deltas.
  const DeltaOverlay* overlay() const { return overlay_.get(); }

 protected:
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  const uint64_t epoch_;
  const std::shared_ptr<const CoefficientStore> base_;
  const std::shared_ptr<const DeltaOverlay> overlay_;
  const std::string name_;
  const double sum_abs_;
};

struct VersionedStoreOptions {
  /// Folds a sealed overlay into a base store, producing the NEW base for
  /// subsequent epochs. Runs off the writer lock (possibly on a background
  /// thread); it must not mutate `base`, only read it. The default builds a
  /// HashStore: a copy of base with each overlay add folded in by one
  /// addition per key — the same single addition a snapshot read performs,
  /// so the merge is value-preserving bit for bit.
  std::function<std::unique_ptr<CoefficientStore>(const CoefficientStore& base,
                                                  const DeltaOverlay& overlay)>
      merge_fn;
};

/// The streaming coefficient plane: a read-optimized base store plus an
/// in-memory per-key overlay absorbing tuple-insertion deltas
/// (LinearStrategy::TransformUpdate output), published to readers as
/// immutable epoch snapshots. It publishes only when asked and calls
/// nothing back: a reader sees a new epoch at its next pin.
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
/// Epoch lifecycle: ingests accumulate invisibly in the active overlay;
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
  /// number. Cheap: proportional to the number of distinct unmerged keys,
  /// which is also what deriving the snapshot's K costs (no scan).
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
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    return snapshot_;
  }

  std::shared_ptr<const CoefficientStore> PinVersion() const override {
    return Snapshot();
  }

  /// Published epoch number (0 = the pristine base, before any publish).
  /// Never ahead of PinVersion(): a publish stores it only after its
  /// snapshot is swapped in.
  uint64_t epoch() const override {
    return epoch_.load(std::memory_order_acquire);
  }

  /// Distinct unmerged coefficient keys overlaying the base right now
  /// (active plus merging). Takes the writer lock; observability only.
  size_t delta_entries() const;

  /// Authoritative uncounted read: base plus ALL deltas, including
  /// unpublished ones. Takes the writer lock; meant for tests and
  /// maintenance, not hot paths.
  double Peek(uint64_t key) const override;

  /// Aggregates of the current PUBLISHED epoch (unpublished ingests are
  /// not visible here, matching what readers can observe). SumAbs() reads
  /// the published snapshot's K.
  uint64_t NumNonZero() const override;
  double SumAbs() const override;
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;

  std::string name() const override { return name_; }

 protected:
  /// Counted reads pin the current published snapshot per call and
  /// delegate to it (uncounted inner read; this store's wrapper already
  /// charged the retrievals).
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  /// merging ⊕ active as one immutable overlay (null when both are empty):
  /// a copy of the merging overlay's adds with the active adds folded in,
  /// the same per-key consolidation one uninterrupted overlay would hold.
  /// Caller holds write_mu_.
  std::shared_ptr<const DeltaOverlay> SealLocked() const;
  /// Seals merging ⊕ active into the next epoch's snapshot, swaps it in,
  /// then bumps the epoch. Caller holds write_mu_.
  uint64_t PublishLocked();
  /// The sealing step of Merge and StartBackgroundMerge: seals all unmerged
  /// deltas into merging_, drains the active overlay and marks a merge in
  /// flight. Returns the fold to run off the lock, or null when there is
  /// nothing to merge. Caller holds write_mu_ with no merge in flight.
  std::function<void()> SealForMergeLocked();
  /// The off-lock fold + locked swap/republish tail of every merge.
  void FoldAndSwap(std::shared_ptr<const CoefficientStore> old_base,
                   std::shared_ptr<const DeltaOverlay> overlay);

  static std::unique_ptr<CoefficientStore> HashMerge(
      const CoefficientStore& base, const DeltaOverlay& overlay);

  const VersionedStoreOptions options_;
  const std::string name_;

  /// Serializes writers (ingest/publish/merge bookkeeping) and guards
  /// base_, active_, merging_ and merge_in_flight_.
  mutable std::mutex write_mu_;
  std::condition_variable merge_cv_;
  std::shared_ptr<const CoefficientStore> base_;
  /// Per-key summed adds since the last seal for a merge: adds[key] += v
  /// per ingested entry, in entry order.
  std::unordered_map<uint64_t, double> active_;
  /// Sealed overlay currently being folded into the base, or null. Still
  /// part of every published view until the merge swaps the base.
  std::shared_ptr<const DeltaOverlay> merging_;
  bool merge_in_flight_ = false;

  /// The published epoch snapshot readers pin; never null. Written by
  /// PublishLocked under both mutexes, copied by readers under
  /// snapshot_mu_ alone, so a pin never waits on a writer's bookkeeping.
  mutable std::mutex snapshot_mu_;
  std::shared_ptr<const SnapshotStore> snapshot_;
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
