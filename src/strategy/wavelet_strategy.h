#ifndef WAVEBATCH_STRATEGY_WAVELET_STRATEGY_H_
#define WAVEBATCH_STRATEGY_WAVELET_STRATEGY_H_

#include "strategy/linear_strategy.h"
#include "wavelet/filters.h"

namespace wavebatch {

/// The paper's primary strategy: the view is the standard d-dimensional
/// orthonormal DWT of Δ; query vectors are rewritten by transforming each
/// separable monomial factor per dimension and expanding the tensor
/// product. With a Daubechies filter of length 2δ+2 and per-variable
/// degree ≤ δ, the rewritten query has O((4δ+2)^d log^d N) nonzeros and a
/// tuple insertion touches O((2δ+2)^d log^d N) view coefficients.
///
/// Coefficient keys pack the per-dimension wavelet indices with the same
/// bit layout Schema::Pack uses for cells.
class WaveletStrategy : public LinearStrategy {
 public:
  WaveletStrategy(Schema schema, WaveletKind kind);

  const WaveletFilter& filter() const { return filter_; }

  /// The one-query TransformQueries.
  Result<SparseVec> TransformQuery(const RangeSumQuery& query) const override;

  /// Cascades each distinct (dimension, interval, degree) factor of the
  /// batch once, then expands, merges and sweeps every query over `pool`,
  /// one query per chunk. A query whose dimensionality does not match the
  /// schema fails in its own slot.
  std::vector<Result<SparseVec>> TransformQueries(
      std::span<const RangeSumQuery> queries,
      ThreadPool* pool) const override;

  /// Dense build: the tiled, parallel ForwardDwtNd reads Δ and writes the
  /// view into a fresh, uninitialised array, which becomes the DenseStore's
  /// (array-based storage; exact, memory ∝ domain cells). Δ is never
  /// copied. Two copies of the view are live at the peak: the caller's Δ
  /// and the store's array.
  std::unique_ptr<CoefficientStore> BuildStore(
      const DenseCube& delta) const override;

  /// The paper's poly-logarithmic maintenance path (Section 2.1): the
  /// per-dimension sparse impulse DWTs tensor-expanded into the packed key
  /// space. The entry count is checked against the O((2δ+2)^d log^d N)
  /// bound — at most Π_i (L·log2(n_i) + 1) entries for filter length
  /// L = 2δ+2.
  Result<SparseVec> TransformUpdate(const Tuple& tuple,
                                    double count) const override;

  std::string name() const override;

 protected:
  /// Empty HashStore: the streaming/sparse build path stores only nonzero
  /// coefficients, so memory ∝ wavelet support of the data, not the domain.
  std::unique_ptr<CoefficientStore> MakeEmptyStore() const override;

 private:
  const WaveletFilter& filter_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STRATEGY_WAVELET_STRATEGY_H_
