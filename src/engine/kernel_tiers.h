#ifndef WAVEBATCH_ENGINE_KERNEL_TIERS_H_
#define WAVEBATCH_ENGINE_KERNEL_TIERS_H_

#include <cstddef>

#include "engine/apply_kernel.h"
#include "util/cpu_features.h"

namespace wavebatch {

namespace kernels {

/// The SIMD implementation of ApplyKernel::ApplyOrderedSlice, compiled in
/// its own translation unit (kernel_avx2.cc) with -mavx2 so the rest of the
/// tree keeps its baseline codegen. It serves the kAvx512 tier too: 8-long
/// contiguous query runs are much rarer than 4-long ones, so 512-bit
/// windows measured slower than the 256-bit body on AVX-512 hosts (the
/// tier's 512-bit code is the dense-store gather in util/).
///
/// The bit-identity contract: per use j of entry row r, every tier computes
/// round(coeff[j] * data) with one IEEE multiply, then round(est + product)
/// with one IEEE add into estimates[query[j]]. The SIMD kernel vectorizes
/// windows of four uses whose query indices are CONSECUTIVE (query indices
/// within a CSR row are strictly ascending, so query[j+3] == query[j]+3
/// proves it): one vector load of the estimate slots, one per-lane
/// correctly-rounded multiply, one vector add, one store. The four slots of
/// a window are distinct and each is read-modified-written exactly once per
/// row, so per-slot operation sequences are identical to the scalar loop no
/// matter how lanes are grouped; non-contiguous positions run the scalar
/// two-step form verbatim. No FMA anywhere, and the whole tree builds with
/// -ffp-contract=off, so no compiler can fuse the multiply-add on either
/// path. Rows are applied strictly in `order`, and importance consumption
/// interleaves exactly as in the scalar tier.
///
/// On a toolchain whose compiler cannot target AVX2, the TU compiles a
/// forward to the scalar kernel instead; dispatch never selects such a tier
/// (KernelTierCompiled() is false), the forward only keeps linking uniform.
void ApplyOrderedSliceAvx2(const ApplyKernel& kernel, const size_t* order,
                           size_t n, const double* values, double* estimates,
                           double* remaining);

}  // namespace kernels

/// Tier dispatch for the fused batch apply. `tier` must be usable on this
/// host (EvalSession resolves it once per session via BestKernelTier() or a
/// checked per-session override).
inline void ApplyOrderedSliceTiered(const ApplyKernel& kernel, KernelTier tier,
                                    const size_t* order, size_t n,
                                    const double* values, double* estimates,
                                    double* remaining) {
  switch (tier) {
    case KernelTier::kAvx512:
    case KernelTier::kAvx2:
      kernels::ApplyOrderedSliceAvx2(kernel, order, n, values, estimates,
                                     remaining);
      return;
    case KernelTier::kScalar:
      break;
  }
  kernel.ApplyOrderedSlice(order, n, values, estimates, remaining);
}

}  // namespace wavebatch

#endif  // WAVEBATCH_ENGINE_KERNEL_TIERS_H_
