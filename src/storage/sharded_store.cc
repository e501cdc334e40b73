#include "storage/sharded_store.h"

#include <cmath>
#include <condition_variable>
#include <mutex>
#include <utility>

#include "telemetry/span.h"
#include "util/check.h"

namespace wavebatch {

ShardedStore::ShardedStore(
    std::vector<std::unique_ptr<CoefficientStore>> shards, KeyRouter router,
    ShardedStoreOptions options)
    : router_(std::move(router)),
      shards_(std::move(shards)),
      options_(options) {
  WB_CHECK(!shards_.empty());
  WB_CHECK_EQ(shards_.size(), router_.num_shards());
  for (const auto& shard : shards_) WB_CHECK(shard != nullptr);
  shard_counters_ = std::make_unique<ShardCounters[]>(shards_.size());
  if (options_.threads_per_shard > 0) {
    pools_.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      pools_.push_back(
          std::make_unique<ThreadPool>(options_.threads_per_shard));
    }
  }

  auto& registry = telemetry::MetricsRegistry::Default();
  const std::string store = name();
  shard_keys_metric_.reserve(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    shard_keys_metric_.push_back(registry.GetCounter(
        "wavebatch_sharded_shard_keys_total",
        {{"store", store}, {"shard", std::to_string(s)}},
        "Counted keys served by this shard's backend."));
  }
  subbatches_metric_ = registry.GetCounter(
      "wavebatch_sharded_subbatches_total", {{"store", store}},
      "Per-shard sub-batches issued by batch scatter-gather.");
}

ShardedStore::~ShardedStore() = default;

std::string ShardedStore::name() const {
  return "sharded[" + std::to_string(shards_.size()) + "](" +
         shards_[0]->name() + ")";
}

double ShardedStore::Peek(uint64_t key) const {
  return shards_[router_.ShardOf(key)]->Peek(key);
}

void ShardedStore::Add(uint64_t key, double delta) {
  shards_[router_.ShardOf(key)]->Add(key, delta);
}

uint64_t ShardedStore::NumNonZero() const {
  uint64_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->ForEachNonZero([&](uint64_t key, double) {
      if (router_.ShardOf(key) == s) ++total;
    });
  }
  return total;
}

double ShardedStore::SumAbs() const {
  double total = 0.0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->ForEachNonZero([&](uint64_t key, double value) {
      if (router_.ShardOf(key) == s) total += std::abs(value);
    });
  }
  return total;
}

void ShardedStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  // Shard order; within a shard, the backend's own order. Keys a shard
  // holds but does not own (possible when a backend spans the full key
  // space) are skipped — the router is the single source of ownership.
  for (size_t s = 0; s < shards_.size(); ++s) {
    shards_[s]->ForEachNonZero([&](uint64_t key, double value) {
      if (router_.ShardOf(key) == s) fn(key, value);
    });
  }
}

uint64_t ShardedStore::shard_keys_fetched(size_t s) const {
  WB_CHECK(s < shards_.size());
  return shard_counters_[s].keys_fetched.load(std::memory_order_relaxed);
}

Status ShardedStore::DoFetchBatch(std::span<const uint64_t> keys,
                                  std::span<double> out, IoStats* io) const {
  // No hints from the caller: one routing pass here, then the shared core.
  if (keys.size() == 1) {
    const uint32_t s = router_.ShardOf(keys[0]);
    return FetchScatterGather(keys, std::span<const uint32_t>(&s, 1), out, io);
  }
  std::vector<uint32_t> shards_of(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    shards_of[i] = router_.ShardOf(keys[i]);
  }
  return FetchScatterGather(keys, shards_of, out, io);
}

Status ShardedStore::DoFetchBatchRouted(std::span<const uint64_t> keys,
                                        std::span<const uint32_t> shards,
                                        std::span<double> out,
                                        IoStats* io) const {
  return FetchScatterGather(keys, shards, out, io);
}

Status ShardedStore::FetchScatterGather(std::span<const uint64_t> keys,
                                        std::span<const uint32_t> shards_of,
                                        std::span<double> out,
                                        IoStats* io) const {
  const size_t n = keys.size();
  if (n == 0) return Status::OK();
  const size_t num_shards = shards_.size();

  // Fast path: one shard or one key — forward the span untouched to the
  // owning shard, with no partition, fan-out or per-leg span. The S=1
  // plane is bit-identical to its backend by construction, and a one-key
  // read (every scalar Fetch) stays untimed and allocation-free.
  if (num_shards == 1 || n == 1) {
    const uint32_t s = shards_of[0];
    WB_CHECK(s < num_shards);
    Status status = DelegateFetchBatch(*shards_[s], keys, out, io);
    if (status.ok()) {
      shard_counters_[s].keys_fetched.fetch_add(n, std::memory_order_relaxed);
      shard_keys_metric_[s]->Add(n);
      subbatches_.fetch_add(1, std::memory_order_relaxed);
      subbatches_metric_->Add(1);
    }
    return status;
  }

  // Partition batch positions per owning shard, preserving batch order
  // within each group (so each sub-batch sees the same relative sequence
  // the unsharded backend would).
  std::vector<std::vector<size_t>> parts(num_shards);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t s = shards_of[i];
    WB_CHECK(s < num_shards);
    parts[s].push_back(i);
  }

  struct SubBatch {
    std::vector<uint64_t> keys;
    std::vector<double> values;
    IoStats io;
    Status status;
  };
  std::vector<SubBatch> subs(num_shards);
  std::vector<size_t> issued;
  for (size_t s = 0; s < num_shards; ++s) {
    if (parts[s].empty()) continue;
    subs[s].keys.reserve(parts[s].size());
    for (const size_t i : parts[s]) subs[s].keys.push_back(keys[i]);
    subs[s].values.resize(parts[s].size());
    issued.push_back(s);
  }

  // Fan out: shard s's sub-batch always runs on shard s's pool (thread
  // affinity — one device queue per shard). Each task writes only its own
  // SubBatch slot; the latch below is the only cross-task synchronization.
  const auto run_sub = [&](size_t s) {
    // One span per shard leg. On a pool worker the submitter's TraceContext
    // is installed around the task (ThreadPool::Submit captures it), so the
    // leg parents under the serving request's fetch span across threads.
    telemetry::ScopedSpan span("shard_subbatch");
    span.AddAttr("shard", static_cast<double>(s));
    span.AddAttr("keys", static_cast<double>(subs[s].keys.size()));
    subs[s].status = DelegateFetchBatch(*shards_[s], subs[s].keys,
                                        subs[s].values, &subs[s].io);
  };
  if (pools_.empty() || issued.size() <= 1) {
    for (const size_t s : issued) run_sub(s);
  } else {
    std::mutex done_mu;
    std::condition_variable done_cv;
    size_t remaining = issued.size();
    for (const size_t s : issued) {
      pools_[s]->Submit([&, s] {
        run_sub(s);
        std::lock_guard<std::mutex> lock(done_mu);
        if (--remaining == 0) done_cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] { return remaining == 0; });
  }

  // All-or-nothing: any failed shard fails the whole batch (the lowest
  // shard's Status, deterministically), nothing is merged, and the wrapper
  // charges nothing — exactly the unsharded batch contract.
  for (const size_t s : issued) {
    if (!subs[s].status.ok()) return subs[s].status;
  }

  for (const size_t s : issued) {
    const std::vector<size_t>& part = parts[s];
    for (size_t j = 0; j < part.size(); ++j) {
      out[part[j]] = subs[s].values[j];
    }
    if (io != nullptr) *io += subs[s].io;
    shard_counters_[s].keys_fetched.fetch_add(part.size(),
                                              std::memory_order_relaxed);
    shard_keys_metric_[s]->Add(part.size());
  }
  subbatches_.fetch_add(issued.size(), std::memory_order_relaxed);
  subbatches_metric_->Add(issued.size());
  return Status::OK();
}

}  // namespace wavebatch
