#include "storage/dense_store.h"

#include <algorithm>

#include "util/check.h"
#include "util/prefetch.h"

namespace wavebatch {

namespace {
std::unique_ptr<double[]> CopyOf(std::span<const double> values) {
  auto copy = std::make_unique_for_overwrite<double[]>(values.size());
  std::copy(values.begin(), values.end(), copy.get());
  return copy;
}
}  // namespace

DenseStore::DenseStore(uint64_t capacity)
    : values_(std::make_unique<double[]>(capacity)), capacity_(capacity) {}

DenseStore::DenseStore(std::unique_ptr<double[]> values, uint64_t capacity)
    : values_(std::move(values)),
      capacity_(capacity),
      sum_abs_(ChunkedSumAbs({values_.get(), capacity_})) {}

DenseStore::DenseStore(std::span<const double> values)
    : DenseStore(CopyOf(values), values.size()) {}

double DenseStore::Peek(uint64_t key) const {
  WB_CHECK_LT(key, capacity_) << "key outside dense store capacity";
  return values_[key];
}

void DenseStore::Add(uint64_t key, double delta) {
  WB_CHECK_LT(key, capacity_) << "key outside dense store capacity";
  const double before = values_[key];
  values_[key] += delta;
  sum_abs_.Update(before, values_[key]);
}

namespace {
Status KeyOutOfRange(uint64_t key, size_t capacity) {
  return Status::OutOfRange("key " + std::to_string(key) +
                            " outside dense store capacity " +
                            std::to_string(capacity));
}
}  // namespace

Status DenseStore::DoFetchBatch(std::span<const uint64_t> keys,
                                std::span<double> out, IoStats*) const {
  const uint64_t capacity = capacity_;
  const double* values = values_.get();
  // Permuted gathers (biggest-B order) defeat the hardware stride
  // prefetcher, so the loop prefetches a few keys ahead. The lookahead key
  // is bounds-checked before its address is formed — an out-of-range key
  // must surface as OutOfRange at its own index, never as a wild prefetch.
  constexpr size_t kAhead = 8;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i + kAhead < keys.size() && keys[i + kAhead] < capacity) {
      WB_PREFETCH(&values[keys[i + kAhead]]);
    }
    if (keys[i] >= capacity) {
      return KeyOutOfRange(keys[i], capacity);
    }
    out[i] = values[keys[i]];
  }
  return Status::OK();
}

uint64_t DenseStore::NumNonZero() const {
  uint64_t n = 0;
  for (uint64_t key = 0; key < capacity_; ++key) {
    if (values_[key] != 0.0) ++n;
  }
  return n;
}

void DenseStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  for (uint64_t key = 0; key < capacity_; ++key) {
    if (values_[key] != 0.0) fn(key, values_[key]);
  }
}

}  // namespace wavebatch
