#ifndef WAVEBATCH_STORAGE_SUM_ABS_H_
#define WAVEBATCH_STORAGE_SUM_ABS_H_

#include <cmath>
#include <cstddef>
#include <span>

namespace wavebatch {

// Theorem 1's K = Σ|v| as the stores keep it: computed once when a store is
// built, then kept current by every write, so CoefficientStore::SumAbs() is
// a read, never a scan.

/// Cells per chunk of a bulk K pass. Like kDwtChunkCells, the chunking
/// depends only on the number of values, so K's bits do too.
inline constexpr size_t kSumAbsChunkCells = size_t{1} << 16;

/// Σ|v| of a dense value array: each kSumAbsChunkCells chunk is summed left
/// to right (in parallel on ThreadPool::Shared()), then the chunk sums are
/// added in chunk order. The result is the same whatever the thread count,
/// and for at most one chunk it is the plain left-to-right loop bit for
/// bit.
double ChunkedSumAbs(std::span<const double> values);

/// K across writes: a Neumaier compensated running sum, so a long log of
/// writes (a merge folding a whole base through Add) does not drift by
/// n·ε. Starts at a bulk pass's K and reads it back bit for bit until the
/// first update.
class RunningSumAbs {
 public:
  explicit RunningSumAbs(double initial = 0.0) : sum_(initial) {}

  /// A stored value changed from `before` to `after`: K moves by
  /// |after| − |before|, added as two exact terms.
  void Update(double before, double after) {
    Add(std::abs(after));
    Add(-std::abs(before));
  }

  /// Never negative: cancellation down to an all-zero store may leave a
  /// residue of either sign, and K is a mass. (A NaN stays NaN.)
  double value() const {
    const double k = sum_ + compensation_;
    return k < 0.0 ? 0.0 : k;
  }

 private:
  void Add(double x) {
    const double t = sum_ + x;
    compensation_ +=
        std::abs(sum_) >= std::abs(x) ? (sum_ - t) + x : (x - t) + sum_;
    sum_ = t;
  }

  double sum_;
  double compensation_ = 0.0;
};

}  // namespace wavebatch

#endif  // WAVEBATCH_STORAGE_SUM_ABS_H_
