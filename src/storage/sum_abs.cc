#include "storage/sum_abs.h"

#include <algorithm>
#include <vector>

#include "util/thread_pool.h"

namespace wavebatch {

namespace {

/// Σ|v| of one chunk, left to right from 0.
double SumAbsOfChunk(std::span<const double> chunk) {
  double sum = 0.0;
  for (double v : chunk) sum += std::abs(v);
  return sum;
}

}  // namespace

double ChunkedSumAbs(std::span<const double> values) {
  // One chunk adds 0.0 + its sum, which is its sum: skip the pool.
  if (values.size() <= kSumAbsChunkCells) return SumAbsOfChunk(values);
  const size_t chunks =
      (values.size() + kSumAbsChunkCells - 1) / kSumAbsChunkCells;
  std::vector<double> partial(chunks);
  ThreadPool::Shared().ParallelFor(
      chunks, /*grain=*/1, [&values, &partial](size_t begin, size_t end) {
        for (size_t c = begin; c < end; ++c) {
          partial[c] = SumAbsOfChunk(values.subspan(
              c * kSumAbsChunkCells,
              std::min(kSumAbsChunkCells,
                       values.size() - c * kSumAbsChunkCells)));
        }
      });
  double sum = 0.0;
  for (double p : partial) sum += p;
  return sum;
}

}  // namespace wavebatch
