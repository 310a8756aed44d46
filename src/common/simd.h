// The process-wide SIMD dispatch tier, shared by every hand-written kernel table: the
// chunk codec (src/storage/codec_simd.h) and the functional plane's compute kernels
// (src/tensor/kernels.h) read the same tier, so one switch moves both.
//
//   kScalar — portable reference loops. Always available; every other tier must be
//             bit-identical to it (pinned by tests/storage/codec_matrix_test.cc and
//             tests/tensor/kernel_matrix_test.cc).
//   kF16c   — AVX1 + F16C + SSE4.1 (+ SSE4.2 crc32): the widest tier most pre-AVX2
//             virtualized hosts can run.
//   kAvx2   — adds 256-bit integer ops.
//   kAvx512 — AVX-512 F+BW+VL.
//
// FMA is not part of any tier's check: a 256-bit tier's GEMM uses FMA when the CPU has
// it and the scalar reference GEMM otherwise (src/tensor/kernels.h), with the same bits.
//
// Dispatch: the active tier is chosen once from CPUID, clamped by the HCACHE_SIMD
// environment variable (scalar|f16c|avx2|avx512 — requests above what the CPU
// supports clamp down with a warning). ForceSimdTier() overrides it in-process so the
// bit-exactness matrix tests and the per-ISA bench rows can iterate every tier the
// machine can execute.
#ifndef HCACHE_SRC_COMMON_SIMD_H_
#define HCACHE_SRC_COMMON_SIMD_H_

namespace hcache {

enum class SimdTier : int { kScalar = 0, kF16c = 1, kAvx2 = 2, kAvx512 = 3 };

inline constexpr int kNumSimdTiers = 4;

const char* SimdTierName(SimdTier tier);

// Best tier this CPU can execute (CPUID, cached after the first call).
SimdTier DetectedSimdTier();

// Tier the kernel tables currently dispatch to: DetectedSimdTier() clamped by
// HCACHE_SIMD (read once), or whatever ForceSimdTier() last installed.
SimdTier ActiveSimdTier();

// Installs `tier` (clamped to DetectedSimdTier() — requesting an ISA the CPU lacks
// never selects it) and returns the tier actually active. Test/bench hook; safe to
// call concurrently with kernel users (the tier is one atomic), though in-flight
// kernels finish on the tier they started with.
SimdTier ForceSimdTier(SimdTier tier);

}  // namespace hcache

#endif  // HCACHE_SRC_COMMON_SIMD_H_
