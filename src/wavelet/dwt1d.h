#ifndef WAVEBATCH_WAVELET_DWT1D_H_
#define WAVEBATCH_WAVELET_DWT1D_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>

#include "wavelet/filters.h"

namespace wavebatch {

/// In-place full periodic orthonormal DWT of `data` (length a power of two).
///
/// Layout after the call (the "dyadic" layout used throughout wavebatch):
///   data[0]                 — the single coarsest scaling coefficient
///   data[2^l .. 2^(l+1))    — detail coefficients at depth l, where l = 0
///                             is the coarsest band and l = log2(n)-1 the
///                             finest.
/// The transform is orthonormal at every level (periodized filters), so it
/// preserves inner products — the property Equation (1)/(2) of the paper
/// relies on.
void ForwardDwt1D(std::span<double> data, const WaveletFilter& filter);

/// Inverse of ForwardDwt1D (exact up to floating-point roundoff).
void InverseDwt1D(std::span<double> data, const WaveletFilter& filter);

/// The filter loops of ForwardDwt1D, run on `kLanes` interleaved lines of
/// length `n` (a power of two): element j of line l is data[j * kLanes + l].
/// `scratch` holds n * kLanes doubles. Every line goes through exactly the
/// IEEE multiplies and adds of a 1-lane call in the same order, so the
/// lanes come out bit-identical to transforming each line on its own.
/// ForwardDwt1D is the 1-lane instance; ForwardDwtNd runs 8 lanes per tile.
template <size_t kLanes>
void ForwardDwtLanes(double* data, double* scratch, size_t n,
                     const WaveletFilter& filter) {
  const double* h = filter.lowpass().data();
  const double* g = filter.highpass().data();
  const uint32_t len = filter.length();
  for (size_t m = n; m >= 2; m >>= 1) {
    const size_t half = m / 2;
    for (size_t k = 0; k < half; ++k) {
      double s[kLanes] = {}, d[kLanes] = {};
      for (uint32_t t = 0; t < len; ++t) {
        const double* a = data + ((2 * k + t) & (m - 1)) * kLanes;
        for (size_t l = 0; l < kLanes; ++l) {
          s[l] += h[t] * a[l];
          d[l] += g[t] * a[l];
        }
      }
      for (size_t l = 0; l < kLanes; ++l) {
        scratch[k * kLanes + l] = s[l];
        scratch[(half + k) * kLanes + l] = d[l];
      }
    }
    std::copy_n(scratch, m * kLanes, data);
  }
}

/// The filter loops of InverseDwt1D over `kLanes` interleaved lines, with
/// the layout and bit-identity of ForwardDwtLanes.
template <size_t kLanes>
void InverseDwtLanes(double* data, double* scratch, size_t n,
                     const WaveletFilter& filter) {
  const double* h = filter.lowpass().data();
  const double* g = filter.highpass().data();
  const uint32_t len = filter.length();
  for (size_t m = 2; m <= n; m <<= 1) {
    const size_t half = m / 2;
    std::fill_n(scratch, m * kLanes, 0.0);
    for (size_t k = 0; k < half; ++k) {
      const double* s = data + k * kLanes;
      const double* d = data + (half + k) * kLanes;
      for (uint32_t t = 0; t < len; ++t) {
        double* out = scratch + ((2 * k + t) & (m - 1)) * kLanes;
        for (size_t l = 0; l < kLanes; ++l) {
          out[l] += h[t] * s[l] + g[t] * d[l];
        }
      }
    }
    std::copy_n(scratch, m * kLanes, data);
  }
}

/// Identifies what a flat index in the dyadic layout refers to.
struct WaveletIndex1D {
  bool is_scaling;  // true only for flat index 0
  uint32_t depth;   // 0 = coarsest detail band; meaningless for scaling
  uint32_t pos;     // translate within the band
};

/// Decodes `flat` (in [0, 2^log2n)) into band/position form.
WaveletIndex1D DecodeWaveletIndex(uint64_t flat);

/// Inverse of DecodeWaveletIndex.
uint64_t EncodeWaveletIndex(const WaveletIndex1D& idx);

}  // namespace wavebatch

#endif  // WAVEBATCH_WAVELET_DWT1D_H_
