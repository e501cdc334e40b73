#include "wavelet/dwt1d.h"

#include <vector>

#include "util/bits.h"
#include "util/check.h"

namespace wavebatch {

void ForwardDwt1D(std::span<double> data, const WaveletFilter& filter) {
  const size_t n = data.size();
  WB_CHECK(IsPowerOfTwo(n)) << "DWT length must be a power of two, got " << n;
  std::vector<double> scratch(n);
  ForwardDwtLanes<1>(data.data(), scratch.data(), n, filter);
}

void InverseDwt1D(std::span<double> data, const WaveletFilter& filter) {
  const size_t n = data.size();
  WB_CHECK(IsPowerOfTwo(n)) << "DWT length must be a power of two, got " << n;
  std::vector<double> scratch(n);
  InverseDwtLanes<1>(data.data(), scratch.data(), n, filter);
}

WaveletIndex1D DecodeWaveletIndex(uint64_t flat) {
  if (flat == 0) return {true, 0, 0};
  const uint32_t depth = FloorLog2(flat);
  return {false, depth, static_cast<uint32_t>(flat - (uint64_t{1} << depth))};
}

uint64_t EncodeWaveletIndex(const WaveletIndex1D& idx) {
  if (idx.is_scaling) return 0;
  return (uint64_t{1} << idx.depth) + idx.pos;
}

}  // namespace wavebatch
