#include "storage/block_store.h"

#include <unordered_set>
#include <utility>

#include "util/check.h"

namespace wavebatch {

BlockStore::BlockStore(std::unique_ptr<CoefficientStore> inner,
                       uint64_t block_size, uint64_t cache_blocks)
    : owned_(std::move(inner)),
      inner_(owned_.get()),
      mutable_inner_(owned_.get()),
      block_size_(block_size),
      cache_blocks_(cache_blocks),
      pool_(std::make_shared<BufferPool>()) {
  WB_CHECK(inner_ != nullptr);
  WB_CHECK_GT(block_size_, 0u);
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
  WB_CHECK(inner_ != nullptr);
}

std::shared_ptr<const CoefficientStore> BlockStore::PinVersion() const {
  std::shared_ptr<const CoefficientStore> pinned = inner_->PinVersion();
  if (pinned == nullptr) return nullptr;  // inner is its own snapshot
  return std::shared_ptr<const CoefficientStore>(
      new BlockStore(std::move(pinned), *this));
}

double BlockStore::Peek(uint64_t key) const { return inner_->Peek(key); }

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
        io->bytes_fetched += block_size_ * sizeof(double);
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
  // Read through the inner backend first: a failed batch must leave both
  // counters and the LRU untouched (all-or-nothing).
  Status status = DelegateFetchBatch(*inner_, keys, out, io);
  if (!status.ok()) return status;
  TouchBatch(keys, io);
  return Status::OK();
}

void BlockStore::Add(uint64_t key, double delta) {
  WB_CHECK(mutable_inner_ != nullptr)
      << "Add() on a read-only BlockStore (pinned epoch view)";
  mutable_inner_->Add(key, delta);
}

uint64_t BlockStore::NumNonZero() const { return inner_->NumNonZero(); }

double BlockStore::SumAbs() const { return inner_->SumAbs(); }

void BlockStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  inner_->ForEachNonZero(fn);
}

std::string BlockStore::name() const {
  return "blocked(" + inner_->name() + ")";
}

}  // namespace wavebatch
