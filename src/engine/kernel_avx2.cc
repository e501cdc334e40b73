#include "engine/kernel_tiers.h"

#if defined(WAVEBATCH_HAVE_AVX2_KERNELS)

#include <immintrin.h>

#include "util/prefetch.h"

namespace wavebatch::kernels {
namespace {

/// One entry row, vectorized over CONTIGUOUS query-index runs. Query
/// indices within a CSR row are strictly ascending, so a single compare —
/// query[j+3] == query[j]+3 — proves the window j..j+3 addresses four
/// consecutive estimate slots; the window then becomes one unaligned load,
/// one vector multiply, one vector add, one unaligned store. Windows that
/// fail the check fall back to one scalar element and re-test (runs in
/// master lists built from range workloads cover the majority of uses —
/// adjacent partitions' queries share coefficients — so the vector path
/// dominates).
///
/// Bit-identity: each lane's product is the one IEEE-correctly-rounded
/// multiply the scalar loop performs, each slot receives exactly one add of
/// that product, and the four slots of a window are distinct — so grouping
/// them into one vector op cannot change any slot's operation sequence. No
/// FMA, and the tree builds with -ffp-contract=off, so the compiler cannot
/// fuse the two roundings on either path.
///
/// Hardware gathers/scatters over the estimate array measured SLOWER than
/// the scalar loop on this kernel (vgatherdpd latency swamps the short
/// dependency chains); run-detection is what actually pays.
inline void ApplyRowAvx2(const uint32_t* query, const double* coeff,
                         uint64_t lo, uint64_t hi, double data,
                         double* estimates) {
  const __m256d vdata = _mm256_set1_pd(data);
  uint64_t j = lo;
  while (j + 4 <= hi) {
    const uint32_t q0 = query[j];
    if (query[j + 3] == q0 + 3) {
      const __m256d c = _mm256_loadu_pd(coeff + j);
      const __m256d est = _mm256_loadu_pd(estimates + q0);
      _mm256_storeu_pd(estimates + q0,
                       _mm256_add_pd(est, _mm256_mul_pd(c, vdata)));
      j += 4;
    } else {
      // Explicit two-step mul-then-add, exactly the scalar kernel's form.
      const double product = coeff[j] * data;
      estimates[q0] += product;
      ++j;
    }
  }
  for (; j < hi; ++j) {
    const double product = coeff[j] * data;
    estimates[query[j]] += product;
  }
}

}  // namespace

void ApplyOrderedSliceAvx2(const ApplyKernel& kernel, const size_t* order,
                           size_t n, const double* values, double* estimates,
                           double* remaining) {
  if (n == 0) return;
  WB_PREFETCH(&kernel.offsets[order[0]]);
  for (size_t i = 0; i < n; ++i) {
    // Same software-prefetch pipeline as the scalar tier: the permuted row
    // walk defeats the hardware stride prefetcher either way.
    if (i + 2 < n) WB_PREFETCH(&kernel.offsets[order[i + 2]]);
    if (i + 1 < n) {
      const uint64_t next_lo = kernel.offsets[order[i + 1]];
      WB_PREFETCH(&kernel.coeff[next_lo]);
      WB_PREFETCH(&kernel.query[next_lo]);
    }
    const size_t entry = order[i];
    kernel.ConsumeImportance(entry, remaining);
    const double data = values[i];
    if (data == 0.0) continue;  // ApplyOne's zero-data early-out
    ApplyRowAvx2(kernel.query, kernel.coeff, kernel.offsets[entry],
                 kernel.offsets[entry + 1], data, estimates);
  }
}

}  // namespace wavebatch::kernels

#else  // !WAVEBATCH_HAVE_AVX2_KERNELS

namespace wavebatch::kernels {

// Toolchain cannot target AVX2: forward to the scalar kernel. Never
// selected by dispatch (KernelTierCompiled(kAvx2) is false).
void ApplyOrderedSliceAvx2(const ApplyKernel& kernel, const size_t* order,
                           size_t n, const double* values, double* estimates,
                           double* remaining) {
  kernel.ApplyOrderedSlice(order, n, values, estimates, remaining);
}

}  // namespace wavebatch::kernels

#endif  // WAVEBATCH_HAVE_AVX2_KERNELS
