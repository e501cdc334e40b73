#ifndef WAVEBATCH_UTIL_PARALLEL_SORT_H_
#define WAVEBATCH_UTIL_PARALLEL_SORT_H_

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/check.h"
#include "util/thread_pool.h"

namespace wavebatch {

/// Deterministic parallel sorting for plan construction: fixed chunk
/// boundaries, fixed merge pairing, and std::inplace_merge (stable), so the
/// output never depends on thread count or interleaving. ParallelSort's
/// comparator must be a strict *total* order (no two elements equivalent),
/// which makes the sorted sequence unique and therefore identical to the
/// serial std::sort, bit for bit. It runs serially (same result) when
/// `pool` is null.

namespace internal {

/// Merges adjacent pre-sorted runs pairwise until one run remains.
/// `bounds` holds run boundaries: run r is [bounds[r], bounds[r+1]).
template <typename Iter, typename Comp>
void MergeRunTree(Iter first, std::vector<size_t> bounds, const Comp& comp,
                  ThreadPool* pool) {
  while (bounds.size() > 2) {
    const size_t pairs = (bounds.size() - 1) / 2;
    ForRange(pool, pairs, /*grain=*/1, [&](size_t begin, size_t end) {
      for (size_t p = begin; p < end; ++p) {
        std::inplace_merge(first + bounds[2 * p], first + bounds[2 * p + 1],
                           first + bounds[2 * p + 2], comp);
      }
    });
    // Keep every other boundary (plus the tail boundary when the run count
    // was odd — that run passes through unmerged this round).
    std::vector<size_t> next;
    next.reserve(pairs + 2);
    for (size_t i = 0; i < bounds.size(); i += 2) next.push_back(bounds[i]);
    if ((bounds.size() - 1) % 2 == 1) next.push_back(bounds.back());
    bounds = std::move(next);
  }
}

}  // namespace internal

/// Sorts [first, first + n) under `comp`, which MUST be a strict total
/// order (document at the call site why no two elements compare equivalent)
/// so that the result is the unique sorted sequence — identical to serial
/// std::sort. Chunks of `grain` are sorted concurrently and merged with a
/// fixed pairing.
template <typename Iter, typename Comp>
void ParallelSort(Iter first, size_t n, const Comp& comp, ThreadPool* pool,
                  size_t grain = size_t{1} << 14) {
  WB_CHECK_GT(grain, 0u);
  if (n <= grain || pool == nullptr) {
    std::sort(first, first + n, comp);
    return;
  }
  const size_t num_chunks = (n + grain - 1) / grain;
  std::vector<size_t> bounds(num_chunks + 1);
  for (size_t c = 0; c <= num_chunks; ++c) bounds[c] = std::min(n, c * grain);
  pool->ParallelFor(num_chunks, /*grain=*/1, [&](size_t begin, size_t end) {
    for (size_t c = begin; c < end; ++c) {
      std::sort(first + bounds[c], first + bounds[c + 1], comp);
    }
  });
  internal::MergeRunTree(first, std::move(bounds), comp, pool);
}

}  // namespace wavebatch

#endif  // WAVEBATCH_UTIL_PARALLEL_SORT_H_
