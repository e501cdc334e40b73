#ifndef WAVEBATCH_STORAGE_DENSE_STORE_H_
#define WAVEBATCH_STORAGE_DENSE_STORE_H_

#include <vector>

#include "storage/coefficient_store.h"
#include "storage/sum_abs.h"

namespace wavebatch {

/// Array-based coefficient store — the paper's "array-based storage". Keys
/// must be dense cell ids in [0, capacity). Best for small/medium domains
/// where the transformed view is mostly nonzero anyway (e.g. prefix sums).
class DenseStore : public CoefficientStore {
 public:
  /// Zero-initialized store for keys in [0, capacity); K starts at 0.
  explicit DenseStore(uint64_t capacity) : values_(capacity, 0.0) {}

  /// Bulk-loads from a dense value array (e.g. a transformed DenseCube's
  /// backing values, whose packed cell id equals the linear index). K is
  /// summed in one ChunkedSumAbs pass on the shared pool.
  explicit DenseStore(std::vector<double> values);

  double Peek(uint64_t key) const override;
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override { return sum_abs_.value(); }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override { return "dense"; }

  uint64_t capacity() const { return values_.size(); }

 protected:
  /// Single-probe gather over the backing array. Out-of-capacity keys are
  /// a retrieval error, not an abort (Peek keeps the hard check — it is the
  /// trusted uncounted path).
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  std::vector<double> values_;
  RunningSumAbs sum_abs_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_DENSE_STORE_H_
