#include "storage/block_store.h"

#include <algorithm>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/check.h"

namespace wavebatch {

BlockStore::BlockStore(std::unique_ptr<CoefficientStore> inner,
                       BlockStoreOptions options)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      mutable_inner_(owned_.get()),
      block_size_(options.block_size),
      cache_blocks_(options.cache_blocks),
      compress_(options.compress_pages),
      page_options_(options.page),
      pool_(std::make_shared<BufferPool>()) {
  WB_CHECK(inner_ != nullptr);
  WB_CHECK_GT(block_size_, 0u);
  if (compress_) {
    // Seal the contents. Over a versioned inner store, pin the current epoch
    // so later ingests cannot drift away from the encoded pages; either way
    // the store becomes read-only from here on.
    mutable_inner_ = nullptr;
    pinned_inner_ = owned_->PinVersion();
    if (pinned_inner_ != nullptr) inner_ = pinned_inner_.get();
    BuildPages();
  }
  BindMetrics();
}

BlockStore::BlockStore(std::unique_ptr<CoefficientStore> inner,
                       uint64_t block_size, uint64_t cache_blocks)
    : BlockStore(std::move(inner),
                 BlockStoreOptions{.block_size = block_size,
                                   .cache_blocks = cache_blocks}) {}

BlockStore::BlockStore(std::shared_ptr<const CoefficientStore> pinned,
                       const BlockStore& parent)
    : pinned_inner_(std::move(pinned)),
      inner_(pinned_inner_.get()),
      block_size_(parent.block_size_),
      cache_blocks_(parent.cache_blocks_),
      pool_(parent.pool_),
      block_reads_metric_(parent.block_reads_metric_),
      block_hits_metric_(parent.block_hits_metric_),
      lru_occupancy_gauge_(parent.lru_occupancy_gauge_),
      lru_capacity_gauge_(parent.lru_capacity_gauge_) {
  // Only plain-mode stores hand out pinned views (a compressed store is its
  // own snapshot), so pages never need copying here.
  WB_CHECK(inner_ != nullptr);
  WB_CHECK(!parent.compress_);
}

void BlockStore::BindMetrics() {
  auto& registry = telemetry::MetricsRegistry::Default();
  block_reads_metric_ = registry.GetCounter(
      "wavebatch_block_store_block_reads_total", {{"store", name()}},
      "Simulated disk-block reads (LRU misses).");
  block_hits_metric_ = registry.GetCounter(
      "wavebatch_block_store_block_hits_total", {{"store", name()}},
      "Block-cache hits in the LRU buffer.");
  lru_occupancy_gauge_ = registry.GetGauge(
      "wavebatch_block_store_lru_occupancy_blocks", {{"store", name()}},
      "Blocks currently resident in the LRU buffer.");
  lru_capacity_gauge_ = registry.GetGauge(
      "wavebatch_block_store_lru_capacity_blocks", {{"store", name()}},
      "LRU buffer capacity in blocks (0 = unbuffered).");
  lru_capacity_gauge_->Set(static_cast<double>(cache_blocks_));
}

void BlockStore::BuildPages() {
  std::vector<std::pair<uint64_t, double>> entries;
  entries.reserve(inner_->NumNonZero());
  inner_->ForEachNonZero([&entries](uint64_t key, double value) {
    entries.emplace_back(key, value);
  });
  std::sort(entries.begin(), entries.end());
  std::vector<uint64_t> keys;
  std::vector<double> values;
  size_t i = 0;
  while (i < entries.size()) {
    const uint64_t block = entries[i].first / block_size_;
    keys.clear();
    values.clear();
    while (i < entries.size() && entries[i].first / block_size_ == block) {
      keys.push_back(entries[i].first);
      values.push_back(entries[i].second);
      ++i;
    }
    CompressedPage page = CompressedPage::Encode(keys, values, page_options_);
    max_quantization_error_ =
        std::max(max_quantization_error_, page.max_abs_error());
    pages_.emplace(block, std::move(page));
  }
}

std::shared_ptr<const CoefficientStore> BlockStore::PinVersion() const {
  // A compressed store sealed its contents at construction: it is its own
  // snapshot, like the base-class default.
  if (compress_) return nullptr;
  std::shared_ptr<const CoefficientStore> pinned = inner_->PinVersion();
  if (pinned == nullptr) return nullptr;  // inner is its own snapshot
  return std::shared_ptr<const CoefficientStore>(
      new BlockStore(std::move(pinned), *this));
}

double BlockStore::PageValue(uint64_t key) const {
  auto it = pages_.find(key / block_size_);
  if (it == pages_.end()) return 0.0;
  return it->second.ValueOr(key, 0.0);
}

double BlockStore::Peek(uint64_t key) const {
  // Compressed reads always see the decoded page value — Peek and Fetch must
  // agree, or uncounted plumbing (bounds, tests) would diverge from what
  // sessions actually retrieve.
  if (compress_) return PageValue(key);
  return inner_->Peek(key);
}

double BlockStore::PeekErrorBound(uint64_t key) const {
  if (!compress_) return inner_->PeekErrorBound(key);
  auto it = pages_.find(key / block_size_);
  if (it == pages_.end()) return 0.0;
  return it->second.Contains(key) ? it->second.max_abs_error() : 0.0;
}

bool BlockStore::Lossy() const {
  if (!compress_) return inner_->Lossy();
  return max_quantization_error_ > 0.0;
}

uint64_t BlockStore::total_page_bytes() const {
  uint64_t bytes = 0;
  for (const auto& [block, page] : pages_) bytes += page.size_bytes();
  return bytes;
}

uint64_t BlockStore::BytesOfBlock(uint64_t block) const {
  if (!compress_) return block_size_ * sizeof(double);
  auto it = pages_.find(block);
  // A block with no page stores nothing: reading it transfers nothing.
  return it == pages_.end() ? 0 : it->second.size_bytes();
}

bool BlockStore::TouchLocked(uint64_t block) const {
  auto it = pool_->in_cache.find(block);
  if (it != pool_->in_cache.end()) {
    pool_->lru.splice(pool_->lru.begin(), pool_->lru, it->second);
    return true;
  }
  if (cache_blocks_ > 0) {
    pool_->lru.push_front(block);
    pool_->in_cache[block] = pool_->lru.begin();
    if (pool_->lru.size() > cache_blocks_) {
      pool_->in_cache.erase(pool_->lru.back());
      pool_->lru.pop_back();
    }
  }
  return false;
}

void BlockStore::TouchBatch(std::span<const uint64_t> keys,
                            IoStats* io) const {
  const auto touch = [&](uint64_t block) {
    if (TouchLocked(block)) {
      if (io != nullptr) ++io->block_hits;
      block_hits_metric_->Add();
    } else {
      if (io != nullptr) {
        ++io->block_reads;
        io->bytes_fetched += BytesOfBlock(block);
      }
      block_reads_metric_->Add();
    }
  };
  if (keys.size() == 1) {  // no distinct-block set to build and destroy
    std::lock_guard<std::mutex> lock(pool_->mu);
    touch(keys[0] / block_size_);
    lru_occupancy_gauge_->Set(static_cast<double>(pool_->lru.size()));
    return;
  }
  // Touch each distinct block once, in first-appearance order (so the LRU
  // state after the call matches a one-key loop's up to refresh order). One
  // lock acquisition per batch, not per key.
  std::unordered_set<uint64_t> seen;
  seen.reserve(keys.size());
  std::lock_guard<std::mutex> lock(pool_->mu);
  for (uint64_t key : keys) {
    const uint64_t block = key / block_size_;
    if (seen.insert(block).second) touch(block);
  }
  lru_occupancy_gauge_->Set(static_cast<double>(pool_->lru.size()));
}

Status BlockStore::DoFetchBatch(std::span<const uint64_t> keys,
                                std::span<double> out, IoStats* io) const {
  if (compress_) {
    for (size_t i = 0; i < keys.size(); ++i) out[i] = PageValue(keys[i]);
    TouchBatch(keys, io);
    return Status::OK();
  }
  // Read through the inner backend first: a failed batch must leave both
  // counters and the LRU untouched (all-or-nothing).
  Status status = DelegateFetchBatch(*inner_, keys, out, io);
  if (!status.ok()) return status;
  TouchBatch(keys, io);
  return Status::OK();
}

Status BlockStore::DoFetchBatchRouted(std::span<const uint64_t> keys,
                                      std::span<const uint32_t> shards,
                                      std::span<double> out,
                                      IoStats* io) const {
  if (compress_) {
    // The pages are the backend here — routing hints have nowhere to go.
    return DoFetchBatch(keys, out, io);
  }
  Status status = DelegateFetchBatchRouted(*inner_, keys, shards, out, io);
  if (!status.ok()) return status;
  TouchBatch(keys, io);
  return Status::OK();
}

void BlockStore::Add(uint64_t key, double delta) {
  WB_CHECK(mutable_inner_ != nullptr)
      << "Add() on a read-only BlockStore (pinned epoch view, or compressed "
         "pages sealed at construction)";
  mutable_inner_->Add(key, delta);
}

uint64_t BlockStore::NumNonZero() const { return inner_->NumNonZero(); }

double BlockStore::SumAbs() const { return inner_->SumAbs(); }

void BlockStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  inner_->ForEachNonZero(fn);
}

std::string BlockStore::name() const {
  return (compress_ ? "blocked-compressed(" : "blocked(") + inner_->name() +
         ")";
}

}  // namespace wavebatch
