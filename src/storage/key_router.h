#ifndef WAVEBATCH_STORAGE_KEY_ROUTER_H_
#define WAVEBATCH_STORAGE_KEY_ROUTER_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace wavebatch {

/// Range partition of the 64-bit wavelet-key space across S shards.
///
/// Shard s owns the contiguous key interval [delims[s-1], delims[s])
/// (with delims[-1] = 0 and delims[S-1] = 2^64). Range partitioning — as
/// opposed to hashing — is deliberate: wavelet keys laid out in the
/// master-list order are fetched in sorted runs, so contiguous ownership
/// keeps each shard's sub-batch a sorted run too, which is exactly what
/// FileStore's coalescing and BlockStore's distinct-block batching want.
///
/// A router is immutable after construction and safe to share across any
/// number of threads.
class KeyRouter {
 public:
  /// Router with explicit ascending split points. `delims` holds S-1
  /// strictly increasing values; shard s owns keys in [delims[s-1],
  /// delims[s]). Empty delims means a single shard owning everything.
  explicit KeyRouter(std::vector<uint64_t> delims)
      : delims_(std::move(delims)) {
    for (size_t i = 1; i < delims_.size(); ++i) {
      WB_CHECK(delims_[i - 1] < delims_[i]);
    }
  }

  KeyRouter() = default;

  /// Even split of [0, key_space) into `num_shards` contiguous ranges.
  /// Keys >= key_space (legal: the router never bounds the key domain)
  /// route to the last shard.
  static KeyRouter Uniform(uint64_t key_space, size_t num_shards) {
    WB_CHECK(num_shards >= 1);
    std::vector<uint64_t> delims;
    delims.reserve(num_shards - 1);
    for (size_t s = 1; s < num_shards; ++s) {
      delims.push_back(key_space / num_shards * s);
    }
    return KeyRouter(std::move(delims));
  }

  size_t num_shards() const { return delims_.size() + 1; }

  /// Shard owning `key`: index of the first delimiter greater than key.
  uint32_t ShardOf(uint64_t key) const {
    return static_cast<uint32_t>(
        std::upper_bound(delims_.begin(), delims_.end(), key) -
        delims_.begin());
  }

  /// Inclusive lower bound of shard s's key range.
  uint64_t ShardBegin(uint32_t shard) const {
    return shard == 0 ? 0 : delims_[shard - 1];
  }

  const std::vector<uint64_t>& delims() const { return delims_; }

  friend bool operator==(const KeyRouter& a, const KeyRouter& b) {
    return a.delims_ == b.delims_;
  }

 private:
  std::vector<uint64_t> delims_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_KEY_ROUTER_H_
