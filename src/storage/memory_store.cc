#include "storage/memory_store.h"

namespace wavebatch {

HashStore::HashStore(const SparseVec& coefficients)
    : sum_abs_(coefficients.SumAbs()) {
  map_.reserve(coefficients.size());
  for (const SparseEntry& e : coefficients) map_.emplace(e.key, e.value);
}

double HashStore::Peek(uint64_t key) const {
  auto it = map_.find(key);
  return it == map_.end() ? 0.0 : it->second;
}

void HashStore::Add(uint64_t key, double delta) {
  if (delta == 0.0) return;
  // A new key starts at 0.0, and 0.0 + delta is delta exactly.
  const auto it = map_.try_emplace(key, 0.0).first;
  const double before = it->second;
  it->second += delta;
  sum_abs_.Update(before, it->second);
  if (it->second == 0.0) map_.erase(it);
}

Status HashStore::DoFetchBatch(std::span<const uint64_t> keys,
                               std::span<double> out, IoStats*) const {
  for (size_t i = 0; i < keys.size(); ++i) {
    auto it = map_.find(keys[i]);
    out[i] = it == map_.end() ? 0.0 : it->second;
  }
  return Status::OK();
}

uint64_t HashStore::NumNonZero() const { return map_.size(); }

void HashStore::ForEachNonZero(
    const std::function<void(uint64_t, double)>& fn) const {
  for (const auto& [key, value] : map_) fn(key, value);
}

}  // namespace wavebatch
