#include "wavelet/dwt_nd.h"

#include <algorithm>
#include <vector>

#include "util/thread_pool.h"

namespace wavebatch {

namespace {

// Lines per tile: each row of a tile is 8 doubles, a cache line's worth.
constexpr size_t kTileLanes = 8;

// Transforms every line of `values` along an axis of size `n`, kLanes
// adjacent lines at a time. `values` is viewed as [pre][n][post] with
// post % kLanes == 0. Tile i is the kLanes lines that start at
// base = p * n * post + q, ..., base + kLanes - 1; its row j is the kLanes
// contiguous doubles at base + j * post.
template <bool kForward, size_t kLanes>
void AxisPass(std::span<double> values, size_t n, uint64_t post,
              const WaveletFilter& filter) {
  const uint64_t tiles_per_block = post / kLanes;
  const uint64_t tiles = values.size() / (n * kLanes);
  const uint64_t grain = std::max<uint64_t>(1, kDwtChunkCells / (n * kLanes));
  ThreadPool::Shared().ParallelFor(tiles, grain, [&](size_t begin,
                                                     size_t end) {
    std::vector<double> tile(n * kLanes), scratch(n * kLanes);
    for (size_t i = begin; i < end; ++i) {
      double* base = values.data() + (i / tiles_per_block) * n * post +
                     (i % tiles_per_block) * kLanes;
      for (size_t j = 0; j < n; ++j) {
        std::copy_n(base + j * post, kLanes, &tile[j * kLanes]);
      }
      if constexpr (kForward) {
        ForwardDwtLanes<kLanes>(tile.data(), scratch.data(), n, filter);
      } else {
        InverseDwtLanes<kLanes>(tile.data(), scratch.data(), n, filter);
      }
      for (size_t j = 0; j < n; ++j) {
        std::copy_n(&tile[j * kLanes], kLanes, base + j * post);
      }
    }
  });
}

// One pass per axis, dimension 0 first: tiles of kTileLanes lines where
// the axis stride allows, single lines where it is below kTileLanes.
template <bool kForward>
void TransformAxes(DenseCube& cube, const WaveletFilter& filter) {
  const Schema& schema = cube.schema();
  uint64_t post = cube.size();
  for (size_t dim = 0; dim < schema.num_dims(); ++dim) {
    const size_t n = schema.dim(dim).size;
    post /= n;
    if (post % kTileLanes == 0) {
      AxisPass<kForward, kTileLanes>(cube.values(), n, post, filter);
    } else {
      AxisPass<kForward, 1>(cube.values(), n, post, filter);
    }
  }
}

}  // namespace

void ForwardDwtNd(DenseCube& cube, const WaveletFilter& filter) {
  TransformAxes<true>(cube, filter);
}

void InverseDwtNd(DenseCube& cube, const WaveletFilter& filter) {
  TransformAxes<false>(cube, filter);
}

}  // namespace wavebatch
