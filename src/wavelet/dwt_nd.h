#ifndef WAVEBATCH_WAVELET_DWT_ND_H_
#define WAVEBATCH_WAVELET_DWT_ND_H_

#include <cstdint>
#include <span>

#include "cube/dense_cube.h"
#include "wavelet/dwt1d.h"
#include "wavelet/filters.h"

namespace wavebatch {

/// Cells one ParallelFor chunk of an axis pass covers (at least one tile).
/// The chunking depends only on the cube's shape, never on the thread count.
inline constexpr uint64_t kDwtChunkCells = uint64_t{1} << 16;

/// Standard (tensor-product) d-dimensional DWT of `cube`, written to `out`
/// (cube.size() doubles): the full 1-D transform of ForwardDwt1D is applied
/// along every axis in turn. The resulting basis is the tensor product of
/// 1-D wavelet bases, which is what makes the transform of a separable
/// query vector factor into per-dimension transforms (Section 3's sparsity
/// bounds rely on this decomposition).
///
/// Each axis is one pass. The first reads `cube` and writes every cell of
/// `out`, so `out` may be uninitialised (a fresh buffer is then first
/// touched by the pass's threads); the later passes transform `out` in
/// place. `out` is either `cube`'s own values or does not overlap them;
/// only in the first case is `cube` written. Lines are transformed 8 at a
/// time by ForwardDwtLanes (a tile): where the axis stride is a multiple
/// of 8, row j of a tile is 8 adjacent doubles, a cache line's worth;
/// below 8 (the last axis has stride 1) the tile's 8 lines are transposed
/// into the interleaved buffer and back, and an axis of fewer than 8 lines
/// pads its one tile. Tiles run on ThreadPool::Shared() in chunks of about
/// kDwtChunkCells cells, each chunk with its own buffers. Every line is
/// transformed by exactly one task with ForwardDwt1D's sequence of IEEE
/// operations, so the result is bit-identical to ForwardDwt1D applied line
/// by line, whatever the thread count.
void ForwardDwtNd(const DenseCube& cube, std::span<double> out,
                  const WaveletFilter& filter);

/// In place: the same passes with `cube`'s values as source and
/// destination.
void ForwardDwtNd(DenseCube& cube, const WaveletFilter& filter);

/// Inverse of ForwardDwtNd, in place, by the same tiled, parallel passes
/// over the axes in the same order, bit-identical to InverseDwt1D line by
/// line.
void InverseDwtNd(DenseCube& cube, const WaveletFilter& filter);

}  // namespace wavebatch

#endif  // WAVEBATCH_WAVELET_DWT_ND_H_
