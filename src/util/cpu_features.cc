#include "util/cpu_features.h"

#include <cstdlib>

namespace wavebatch {

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return "scalar";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace {

bool DetectAvx2() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool DetectAvx512() {
#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
  // The kAvx512 tier runs the AVX-512F dense gather and the AVX2 apply
  // kernel, so it needs both.
  return __builtin_cpu_supports("avx512f") != 0 &&
         __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

bool DetectForceScalarEnv() {
  const char* value = std::getenv("WAVEBATCH_FORCE_SCALAR");
  if (value == nullptr || value[0] == '\0') return false;
  return !(value[0] == '0' && value[1] == '\0');
}

std::optional<KernelTier>& TierOverride() {
  static std::optional<KernelTier> override;
  return override;
}

}  // namespace

bool CpuHasAvx2() {
  static const bool has = DetectAvx2();
  return has;
}

bool CpuHasAvx512() {
  static const bool has = DetectAvx512();
  return has;
}

bool KernelTierCompiled(KernelTier tier) {
  switch (tier) {
    case KernelTier::kScalar:
      return true;
    case KernelTier::kAvx2:
#if defined(WAVEBATCH_HAVE_AVX2_KERNELS)
      return true;
#else
      return false;
#endif
    case KernelTier::kAvx512:
#if defined(WAVEBATCH_HAVE_AVX512_KERNELS)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool ForceScalarRequested() {
#if defined(WAVEBATCH_FORCE_SCALAR)
  return true;
#else
  static const bool forced = DetectForceScalarEnv();
  return forced;
#endif
}

bool KernelTierUsable(KernelTier tier) {
  if (tier == KernelTier::kScalar) return true;
  if (ForceScalarRequested()) return false;
  if (!KernelTierCompiled(tier)) return false;
  return tier == KernelTier::kAvx2 ? CpuHasAvx2() : CpuHasAvx512();
}

KernelTier BestKernelTier() {
  if (const std::optional<KernelTier>& override = TierOverride()) {
    return *override;
  }
  if (KernelTierUsable(KernelTier::kAvx512)) return KernelTier::kAvx512;
  if (KernelTierUsable(KernelTier::kAvx2)) return KernelTier::kAvx2;
  return KernelTier::kScalar;
}

void SetKernelTierOverride(std::optional<KernelTier> tier) {
  TierOverride() = tier;
}

std::string CpuFeatureString() {
  std::string features;
  const auto add = [&features](const char* name) {
    if (!features.empty()) features += "+";
    features += name;
  };
  if (CpuHasAvx2()) add("avx2");
  if (CpuHasAvx512()) add("avx512f");
  if (features.empty()) features = "baseline";
  return features;
}

}  // namespace wavebatch
