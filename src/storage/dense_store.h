#ifndef WAVEBATCH_STORAGE_DENSE_STORE_H_
#define WAVEBATCH_STORAGE_DENSE_STORE_H_

#include <cstdint>
#include <memory>
#include <span>

#include "storage/coefficient_store.h"
#include "storage/sum_abs.h"

namespace wavebatch {

/// Array-based coefficient store — the paper's "array-based storage". Keys
/// must be dense cell ids in [0, capacity). Best for small/medium domains
/// where the transformed view is mostly nonzero anyway (e.g. prefix sums).
/// The array is a plain owned buffer, not a std::vector, so that a build can
/// write it uninitialised, on the threads of its own pass, and hand it over.
class DenseStore : public CoefficientStore {
 public:
  /// Zero-initialized store for keys in [0, capacity); K starts at 0.
  explicit DenseStore(uint64_t capacity);

  /// Takes over `values`, the `capacity` values of keys 0 .. capacity - 1,
  /// without copying them: WaveletStrategy::BuildStore hands over the
  /// buffer ForwardDwtNd wrote the view into. K is summed in one
  /// ChunkedSumAbs pass on the shared pool.
  DenseStore(std::unique_ptr<double[]> values, uint64_t capacity);

  /// Bulk-loads a copy of a dense value array (key = index); K as above.
  explicit DenseStore(std::span<const double> values);

  double Peek(uint64_t key) const override;
  void Add(uint64_t key, double delta) override;
  uint64_t NumNonZero() const override;
  double SumAbs() const override { return sum_abs_.value(); }
  void ForEachNonZero(
      const std::function<void(uint64_t, double)>& fn) const override;
  std::string name() const override { return "dense"; }

  uint64_t capacity() const { return capacity_; }

 protected:
  /// Single-probe gather over the backing array. Out-of-capacity keys are
  /// a retrieval error, not an abort (Peek keeps the hard check — it is the
  /// trusted uncounted path).
  Status DoFetchBatch(std::span<const uint64_t> keys, std::span<double> out,
                      IoStats* io) const override;

 private:
  std::unique_ptr<double[]> values_;
  uint64_t capacity_;
  RunningSumAbs sum_abs_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_DENSE_STORE_H_
