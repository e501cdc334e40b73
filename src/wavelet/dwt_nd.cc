#include "wavelet/dwt_nd.h"

#include <algorithm>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace wavebatch {

namespace {

// Lines per tile: each row of a tile is 8 doubles, a cache line's worth.
constexpr size_t kTileLanes = 8;

// Transforms every line along an axis of size `n` and stride `post`,
// reading `src` and writing `dst`, both `cells` doubles viewed as
// [pre][n][post]; they may be the same array. Line p * post + q starts at
// p * n * post + q, and tile i is lines 8i .. 8i + 7: lane l's element j
// is gathered into tile[j * 8 + l], transformed, and scattered to the same
// cell of `dst`. Where post is a multiple of 8 the lanes are adjacent, so
// row j of a tile is 8 contiguous doubles; below 8 the lanes' lines are
// transposed into the tile and back. An axis of fewer than 8 lines pads
// its one tile with zero lanes, which are transformed and dropped.
template <bool kForward>
void AxisPass(const double* src, double* dst, uint64_t cells, size_t n,
              uint64_t post, const WaveletFilter& filter) {
  const uint64_t lines = cells / n;
  const uint64_t tiles = (lines + kTileLanes - 1) / kTileLanes;
  const uint64_t grain =
      std::max<uint64_t>(1, kDwtChunkCells / (n * kTileLanes));
  ThreadPool::Shared().ParallelFor(tiles, grain, [&](size_t begin,
                                                     size_t end) {
    std::vector<double> tile(n * kTileLanes, 0.0), scratch(n * kTileLanes);
    uint64_t start[kTileLanes] = {};
    for (size_t i = begin; i < end; ++i) {
      const uint64_t first = i * kTileLanes;
      const size_t lanes = std::min<uint64_t>(kTileLanes, lines - first);
      for (size_t l = 0; l < lanes; ++l) {
        start[l] = (first + l) / post * n * post + (first + l) % post;
      }
      for (size_t j = 0; j < n; ++j) {
        for (size_t l = 0; l < lanes; ++l) {
          tile[j * kTileLanes + l] = src[start[l] + j * post];
        }
      }
      if constexpr (kForward) {
        ForwardDwtLanes<kTileLanes>(tile.data(), scratch.data(), n, filter);
      } else {
        InverseDwtLanes<kTileLanes>(tile.data(), scratch.data(), n, filter);
      }
      for (size_t j = 0; j < n; ++j) {
        for (size_t l = 0; l < lanes; ++l) {
          dst[start[l] + j * post] = tile[j * kTileLanes + l];
        }
      }
    }
  });
}

// One pass per axis, dimension 0 first: the first reads `src` and writes
// every cell of `dst`, the later ones transform `dst` in place.
template <bool kForward>
void TransformAxes(const Schema& schema, const double* src, double* dst,
                   const WaveletFilter& filter) {
  const uint64_t cells = schema.cell_count();
  uint64_t post = cells;
  for (size_t dim = 0; dim < schema.num_dims(); ++dim) {
    const size_t n = schema.dim(dim).size;
    post /= n;
    AxisPass<kForward>(dim == 0 ? src : dst, dst, cells, n, post, filter);
  }
}

}  // namespace

void ForwardDwtNd(const DenseCube& cube, std::span<double> out,
                  const WaveletFilter& filter) {
  WB_CHECK_EQ(out.size(), cube.size());
  TransformAxes<true>(cube.schema(), cube.values().data(), out.data(),
                      filter);
}

void ForwardDwtNd(DenseCube& cube, const WaveletFilter& filter) {
  ForwardDwtNd(cube, cube.values(), filter);
}

void InverseDwtNd(DenseCube& cube, const WaveletFilter& filter) {
  TransformAxes<false>(cube.schema(), cube.values().data(),
                       cube.values().data(), filter);
}

}  // namespace wavebatch
