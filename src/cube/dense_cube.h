#ifndef WAVEBATCH_CUBE_DENSE_CUBE_H_
#define WAVEBATCH_CUBE_DENSE_CUBE_H_

#include <span>
#include <utility>
#include <vector>

#include "cube/schema.h"
#include "util/check.h"

namespace wavebatch {

/// A dense multidimensional array of doubles indexed by a Schema's domain —
/// the concrete representation of data frequency distributions, measure-
/// weighted distributions, and (in tests) query vectors. Storage is
/// row-major with dimension 0 slowest, matching Schema::Pack, so the packed
/// cell id is also the linear storage index.
class DenseCube {
 public:
  /// Zero-filled cube over `schema`.
  explicit DenseCube(Schema schema)
      : schema_(std::move(schema)), values_(schema_.cell_count(), 0.0) {}

  const Schema& schema() const { return schema_; }
  uint64_t size() const { return values_.size(); }

  double at(std::span<const uint32_t> coords) const {
    return values_[schema_.Pack(coords)];
  }
  double& at(std::span<const uint32_t> coords) {
    return values_[schema_.Pack(coords)];
  }

  double operator[](uint64_t cell) const {
    WB_DCHECK(cell < values_.size());
    return values_[cell];
  }
  double& operator[](uint64_t cell) {
    WB_DCHECK(cell < values_.size());
    return values_[cell];
  }

  std::span<double> values() { return values_; }
  std::span<const double> values() const { return values_; }

  /// Hands the backing values over without copying them and leaves the
  /// cube empty (size() == 0): a transformed cube becomes a store's array.
  std::vector<double> TakeValues() && { return std::move(values_); }

  /// Sum of all cell values.
  double Total() const;

  /// Sum of squared cell values (squared L2 norm).
  double SumSquares() const;

  /// Sum of absolute cell values (L1 norm); Theorem 1's constant K when
  /// applied to the transformed data vector.
  double SumAbs() const;

  /// Inner product with another cube over the same schema.
  double Dot(const DenseCube& other) const;

  /// Number of nonzero cells (|v| > eps).
  uint64_t CountNonZero(double eps = 0.0) const;

 private:
  Schema schema_;
  std::vector<double> values_;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_CUBE_DENSE_CUBE_H_
