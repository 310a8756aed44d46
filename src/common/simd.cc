#include "src/common/simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "src/common/logging.h"

namespace hcache {

namespace {

SimdTier DetectTier() {
#if defined(__GNUC__) && defined(__x86_64__)
  __builtin_cpu_init();
  // Every vector tier of the codec converts through F16C and checksums through the
  // SSE4.2 crc32 instruction; without them only scalar is usable.
  if (!__builtin_cpu_supports("f16c") || !__builtin_cpu_supports("avx") ||
      !__builtin_cpu_supports("sse4.1") || !__builtin_cpu_supports("sse4.2")) {
    return SimdTier::kScalar;
  }
  if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512bw") &&
      __builtin_cpu_supports("avx512vl")) {
    return SimdTier::kAvx512;
  }
  if (__builtin_cpu_supports("avx2")) {
    return SimdTier::kAvx2;
  }
  return SimdTier::kF16c;
#else
  return SimdTier::kScalar;
#endif
}

// Returns the tier named by HCACHE_SIMD, or -1 when unset / unrecognized (the
// latter logs once and falls back to full dispatch).
int ParseEnvTier() {
  const char* env = std::getenv("HCACHE_SIMD");
  if (env == nullptr || *env == '\0') {
    return -1;
  }
  std::string s(env);
  for (char& c : s) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (s == "scalar") return static_cast<int>(SimdTier::kScalar);
  if (s == "f16c") return static_cast<int>(SimdTier::kF16c);
  if (s == "avx2") return static_cast<int>(SimdTier::kAvx2);
  if (s == "avx512") return static_cast<int>(SimdTier::kAvx512);
  HCACHE_LOG_WARN << "HCACHE_SIMD=" << env
                  << " not recognized (want scalar|f16c|avx2|avx512); using detected tier";
  return -1;
}

SimdTier InitialTier() {
  const SimdTier detected = DetectedSimdTier();
  const int requested = ParseEnvTier();
  if (requested < 0) {
    return detected;
  }
  if (requested > static_cast<int>(detected)) {
    HCACHE_LOG_WARN << "HCACHE_SIMD requests " << SimdTierName(static_cast<SimdTier>(requested))
                    << " but this CPU tops out at " << SimdTierName(detected)
                    << "; clamping";
    return detected;
  }
  return static_cast<SimdTier>(requested);
}

std::atomic<int>& ActiveTierCell() {
  static std::atomic<int> cell{static_cast<int>(InitialTier())};
  return cell;
}

}  // namespace

const char* SimdTierName(SimdTier tier) {
  switch (tier) {
    case SimdTier::kScalar:
      return "scalar";
    case SimdTier::kF16c:
      return "f16c";
    case SimdTier::kAvx2:
      return "avx2";
    case SimdTier::kAvx512:
      return "avx512";
  }
  return "?";
}

SimdTier DetectedSimdTier() {
  static const SimdTier tier = DetectTier();
  return tier;
}

SimdTier ActiveSimdTier() {
  return static_cast<SimdTier>(ActiveTierCell().load(std::memory_order_acquire));
}

SimdTier ForceSimdTier(SimdTier tier) {
  const SimdTier clamped = std::min(tier, DetectedSimdTier());
  ActiveTierCell().store(static_cast<int>(clamped), std::memory_order_release);
  return clamped;
}

}  // namespace hcache
