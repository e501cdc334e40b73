#ifndef WAVEBATCH_WAVELET_DWT_ND_H_
#define WAVEBATCH_WAVELET_DWT_ND_H_

#include <cstdint>

#include "cube/dense_cube.h"
#include "wavelet/dwt1d.h"
#include "wavelet/filters.h"

namespace wavebatch {

/// Cells one ParallelFor chunk of an axis pass covers (at least one tile).
/// The chunking depends only on the cube's shape, never on the thread count.
inline constexpr uint64_t kDwtChunkCells = uint64_t{1} << 16;

/// In-place standard (tensor-product) d-dimensional DWT of `cube`: the full
/// 1-D transform of ForwardDwt1D is applied along every axis in turn. The
/// resulting basis is the tensor product of 1-D wavelet bases, which is what
/// makes the transform of a separable query vector factor into per-dimension
/// transforms (Section 3's sparsity bounds rely on this decomposition).
///
/// Each axis is one pass over the cube. Lines that are adjacent in memory
/// are transformed 8 at a time (a tile: each row of the tile is 8 adjacent
/// doubles, a cache line's worth) by ForwardDwtLanes, or one at a time
/// when the axis stride is below 8. Tiles run on ThreadPool::Shared() in
/// chunks of about kDwtChunkCells cells, each chunk with its own buffers.
/// Every line is transformed by exactly one task with ForwardDwt1D's
/// sequence of IEEE operations, so the result is bit-identical to
/// ForwardDwt1D applied line by line, whatever the thread count.
void ForwardDwtNd(DenseCube& cube, const WaveletFilter& filter);

/// Inverse of ForwardDwtNd, by the same tiled, parallel passes over the
/// axes in the same order, bit-identical to InverseDwt1D line by line.
void InverseDwtNd(DenseCube& cube, const WaveletFilter& filter);

}  // namespace wavebatch

#endif  // WAVEBATCH_WAVELET_DWT_ND_H_
