#ifndef WAVEBATCH_STORAGE_MEMORY_STORE_H_
#define WAVEBATCH_STORAGE_MEMORY_STORE_H_

#include <unordered_map>

#include "storage/coefficient_store.h"
#include "storage/sum_abs.h"
#include "wavelet/sparse_vec.h"

namespace wavebatch {

/// Hash-based coefficient store — the paper's "hash-based storage that
/// allows constant-time access to any single value". Holds only nonzero
/// coefficients, so it is the right backend for sparse transformed data
/// over large domains and for incrementally maintained views.
class HashStore : public CoefficientStore {
 public:
  HashStore() = default;

  /// Bulk-loads from a sparse vector; K is the entries' Σ|v| in entry
  /// order.
  explicit HashStore(const SparseVec& coefficients);

  double Peek(uint64_t key) const override;
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override { return sum_abs_.value(); }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override { return "hash"; }

  const std::unordered_map<uint64_t, double>& map() const { return map_; }

 protected:
  /// Single-probe loop straight on the hash map (skips per-key virtual
  /// dispatch; constant-time probes don't benefit from reordering).
  /// Infallible: absent keys read as 0.
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  std::unordered_map<uint64_t, double> map_;
  RunningSumAbs sum_abs_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_MEMORY_STORE_H_
