#include "storage/versioned_store.h"

#include <utility>

#include "storage/memory_store.h"
#include "storage/sum_abs.h"
#include "telemetry/span.h"
#include "util/check.h"

namespace wavebatch {

// ---------------------------------------------------------------------------
// SnapshotStore

namespace {

/// K of base ⊕ overlay in O(overlay): see SnapshotStore.
double SnapshotSumAbs(const CoefficientStore& base,
                      const DeltaOverlay* overlay) {
  RunningSumAbs sum_abs(base.SumAbs());
  if (overlay != nullptr) {
    for (const auto& [key, delta] : overlay->adds) {
      const double before = base.Peek(key);
      sum_abs.Update(before, before + delta);
    }
  }
  return sum_abs.value();
}

}  // namespace

SnapshotStore::SnapshotStore(uint64_t epoch,
                             std::shared_ptr<const CoefficientStore> base,
                             std::shared_ptr<const DeltaOverlay> overlay)
    : epoch_(epoch),
      base_(std::move(base)),
      overlay_(std::move(overlay)),
      name_("snapshot(" + base_->name() + ")"),
      sum_abs_(SnapshotSumAbs(*base_, overlay_.get())) {
  WB_CHECK(base_ != nullptr);
}

double SnapshotStore::Peek(uint64_t key) const {
  double value = base_->Peek(key);
  if (overlay_ != nullptr) {
    const auto it = overlay_->adds.find(key);
    // Only add when the key was actually written: `x + 0.0` is not a
    // bitwise no-op for x = -0.0, and untouched keys must read exactly as
    // the base stores them.
    if (it != overlay_->adds.end()) value += it->second;
  }
  return value;
}

void SnapshotStore::Add(uint64_t key, double delta) {
  (void)key;
  (void)delta;
  WB_CHECK(false) << "SnapshotStore is an immutable epoch view; write "
                     "through the owning VersionedStore";
}

Status SnapshotStore::DoFetchBatch(std::span<const uint64_t> keys,
                                   std::span<double> out, IoStats* io) const {
  Status status = DelegateFetchBatch(*base_, keys, out, io);
  if (!status.ok() || overlay_ == nullptr) return status;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto it = overlay_->adds.find(keys[i]);
    if (it != overlay_->adds.end()) out[i] += it->second;
  }
  return Status::OK();
}

uint64_t SnapshotStore::NumNonZero() const {
  uint64_t count = 0;
  ForEachNonZero([&count](uint64_t, double) { ++count; });
  return count;
}

void SnapshotStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  if (overlay_ == nullptr) {
    base_->ForEachNonZero(fn);
    return;
  }
  // Base keys, overlay-adjusted; merged zeros are skipped to honor the
  // "stored nonzero" contract of the merged view.
  base_->ForEachNonZero([this, &fn](uint64_t key, double value) {
    const auto it = overlay_->adds.find(key);
    if (it != overlay_->adds.end()) value += it->second;
    if (value != 0.0) fn(key, value);
  });
  // Overlay-only keys (backends never store zeros, so base Peek == 0 means
  // "absent from base", not "stored zero").
  for (const auto& [key, value] : overlay_->adds) {
    if (value != 0.0 && base_->Peek(key) == 0.0) fn(key, value);
  }
}

// ---------------------------------------------------------------------------
// VersionedStore

std::unique_ptr<CoefficientStore> VersionedStore::HashMerge(
    const CoefficientStore& base, const DeltaOverlay& overlay) {
  auto merged = std::make_unique<HashStore>();
  base.ForEachNonZero(
      [&merged](uint64_t key, double value) { merged->Add(key, value); });
  // One addition per overlay key — the identical addition a snapshot read
  // performs, so post-merge reads are bitwise equal to pre-merge reads of
  // the same logical contents. Zero-sum overlay entries are dropped by
  // HashStore::Add, matching `x + 0.0 == x` for every value a backend can
  // store (backends never hold ±0.0).
  for (const auto& [key, value] : overlay.adds) merged->Add(key, value);
  return merged;
}

VersionedStore::VersionedStore(std::unique_ptr<CoefficientStore> base,
                               VersionedStoreOptions options)
    : options_(std::move(options)),
      name_("versioned(" + (base != nullptr ? base->name() : "") + ")"),
      base_(std::move(base)) {
  WB_CHECK(base_ != nullptr);
  snapshot_ = std::make_shared<SnapshotStore>(0, base_, nullptr);

  auto& registry = telemetry::MetricsRegistry::Default();
  const std::string store = name();
  ingests_metric_ = registry.GetCounter(
      "wavebatch_versioned_ingests_total", {{"store", store}},
      "Streaming ingest calls absorbed by the delta plane.");
  ingested_entries_metric_ = registry.GetCounter(
      "wavebatch_versioned_ingested_entries_total", {{"store", store}},
      "Sparse coefficient entries absorbed by the delta plane.");
  publishes_metric_ =
      registry.GetCounter("wavebatch_versioned_publishes_total",
                          {{"store", store}}, "Epoch snapshots published.");
  merges_metric_ = registry.GetCounter(
      "wavebatch_versioned_merges_total", {{"store", store}},
      "Delta-into-base merges completed.");
  epoch_gauge_ =
      registry.GetGauge("wavebatch_versioned_epoch", {{"store", store}},
                        "Current published epoch.");
  delta_entries_gauge_ = registry.GetGauge(
      "wavebatch_versioned_delta_entries", {{"store", store}},
      "Distinct unmerged coefficient keys (active + merging overlays).");
}

VersionedStore::~VersionedStore() { WaitForMerge(); }

void VersionedStore::Ingest(const SparseVec& delta) {
  std::lock_guard<std::mutex> lock(write_mu_);
  for (const SparseEntry& e : delta) active_[e.key] += e.value;
  ingests_metric_->Add(1);
  ingested_entries_metric_->Add(delta.size());
}

void VersionedStore::Add(uint64_t key, double delta) {
  std::lock_guard<std::mutex> lock(write_mu_);
  active_[key] += delta;
  ingests_metric_->Add(1);
  ingested_entries_metric_->Add(1);
}

std::shared_ptr<const DeltaOverlay> VersionedStore::SealLocked() const {
  if (active_.empty() && merging_ == nullptr) return nullptr;
  auto overlay = std::make_shared<DeltaOverlay>();
  if (merging_ != nullptr) overlay->adds = merging_->adds;
  for (const auto& [key, value] : active_) overlay->adds[key] += value;
  return overlay;
}

uint64_t VersionedStore::PublishLocked() {
  // Writers hold write_mu_, so the next epoch is ours. It becomes visible
  // through epoch() only after PinVersion() serves it: a reader that sees
  // epoch e can pin a snapshot of epoch e or later.
  const uint64_t epoch = epoch_.load(std::memory_order_relaxed) + 1;
  auto snapshot = std::make_shared<SnapshotStore>(epoch, base_, SealLocked());
  {
    std::lock_guard<std::mutex> lock(snapshot_mu_);
    snapshot_ = std::move(snapshot);
  }
  epoch_.store(epoch, std::memory_order_release);
  publishes_metric_->Add(1);
  epoch_gauge_->Set(static_cast<double>(epoch));
  delta_entries_gauge_->Set(static_cast<double>(
      active_.size() + (merging_ != nullptr ? merging_->size() : 0)));
  return epoch;
}

uint64_t VersionedStore::Publish() {
  std::lock_guard<std::mutex> lock(write_mu_);
  return PublishLocked();
}

std::function<void()> VersionedStore::SealForMergeLocked() {
  std::shared_ptr<const DeltaOverlay> overlay = SealLocked();
  if (overlay == nullptr) return nullptr;
  merging_ = overlay;
  active_.clear();
  merge_in_flight_ = true;
  return [this, base = base_, delta = std::move(overlay)]() mutable {
    FoldAndSwap(std::move(base), std::move(delta));
  };
}

uint64_t VersionedStore::Merge() {
  std::function<void()> fold;
  {
    std::unique_lock<std::mutex> lock(write_mu_);
    merge_cv_.wait(lock, [this] { return !merge_in_flight_; });
    fold = SealForMergeLocked();
  }
  if (fold != nullptr) fold();
  return epoch_.load(std::memory_order_acquire);
}

bool VersionedStore::StartBackgroundMerge(ThreadPool* pool) {
  std::function<void()> fold;
  {
    std::lock_guard<std::mutex> lock(write_mu_);
    if (merge_in_flight_) return false;
    fold = SealForMergeLocked();
  }
  if (fold == nullptr) return false;
  ThreadPool& runner = pool != nullptr ? *pool : ThreadPool::Shared();
  runner.Submit(std::move(fold));
  return true;
}

void VersionedStore::FoldAndSwap(
    std::shared_ptr<const CoefficientStore> old_base,
    std::shared_ptr<const DeltaOverlay> overlay) {
  std::shared_ptr<const CoefficientStore> new_base;
  {
    telemetry::ScopedSpan span("versioned_merge");
    new_base = options_.merge_fn != nullptr
                   ? options_.merge_fn(*old_base, *overlay)
                   : HashMerge(*old_base, *overlay);
    WB_CHECK(new_base != nullptr) << "merge_fn returned null";
  }
  std::lock_guard<std::mutex> lock(write_mu_);
  base_ = std::move(new_base);
  merging_ = nullptr;
  // Republish on the new base: the post-merge epoch carries exactly the
  // ingests that landed while the fold ran (they stayed in active_).
  PublishLocked();
  merges_metric_->Add(1);
  merge_in_flight_ = false;
  // Notify under the lock: a WaitForMerge caller (the destructor) may
  // otherwise observe the cleared flag and destroy merge_cv_ while this
  // thread is still inside notify_all.
  merge_cv_.notify_all();
}

void VersionedStore::WaitForMerge() {
  std::unique_lock<std::mutex> lock(write_mu_);
  merge_cv_.wait(lock, [this] { return !merge_in_flight_; });
}

size_t VersionedStore::delta_entries() const {
  std::lock_guard<std::mutex> lock(write_mu_);
  return active_.size() + (merging_ != nullptr ? merging_->size() : 0);
}

double VersionedStore::Peek(uint64_t key) const {
  std::lock_guard<std::mutex> lock(write_mu_);
  // Associate the overlays first — (merging + active) — then add the base,
  // mirroring how SealLocked() composes overlays and SnapshotStore applies them.
  // Grouping as (base + merging) + active instead would make the
  // authoritative view drift from a just-published snapshot by a last bit.
  bool present = false;
  double delta = 0.0;
  if (merging_ != nullptr) {
    const auto it = merging_->adds.find(key);
    if (it != merging_->adds.end()) {
      present = true;
      delta = it->second;
    }
  }
  const auto it = active_.find(key);
  if (it != active_.end()) {
    present = true;
    delta += it->second;
  }
  const double value = base_->Peek(key);
  return present ? value + delta : value;
}

uint64_t VersionedStore::NumNonZero() const { return Snapshot()->NumNonZero(); }

double VersionedStore::SumAbs() const { return Snapshot()->SumAbs(); }

void VersionedStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  Snapshot()->ForEachNonZero(fn);
}

Status VersionedStore::DoFetchBatch(std::span<const uint64_t> keys,
                                    std::span<double> out, IoStats* io) const {
  const std::shared_ptr<const SnapshotStore> snap = Snapshot();
  return DelegateFetchBatch(*snap, keys, out, io);
}

}  // namespace wavebatch
