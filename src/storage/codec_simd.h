// Runtime-dispatched SIMD kernels for the chunk precision codec (ROADMAP item 3).
//
// The codec's convert loops are the storage plane's speed-of-light: restoration is
// bound by bytes moved per token, and every byte passes through fp16/int8 encode or
// decode exactly once. This module replaces reliance on auto-vectorization with
// hand-written kernels behind a cached function-pointer table:
//
//   kScalar — the portable reference loops (bit manipulation for FP16, 256 KiB LUT
//             decode). Always available, always correct; every other tier must be
//             bit-identical to it (pinned by tests/storage/codec_matrix_test.cc).
//   kF16c   — AVX1 + F16C + SSE4.1: vcvtps2ph/vcvtph2ps for FP16, 256-bit float
//             math with 128-bit integer fixups for INT8. The widest tier most
//             pre-AVX2 virtualized hosts can run.
//   kAvx2   — adds 256-bit integer ops (single-blend NaN fixup on the encode side,
//             256-bit widening loads for INT8 dequant).
//   kAvx512 — AVX-512 F+BW+VL: 16-lane conversions with mask-register fixups.
//
// Bit-exactness is a hard contract, not an aspiration: the vector kernels reproduce
// the scalar codec's saturating RNE fp16 encode (finite overflow -> +-0x7bff, Inf
// preserved, every NaN canonicalized to sign|0x7e00), its LUT decode (vcvtph2ps is
// LUT-equivalent for all 65536 halfs, signaling-NaN quieting included), and the int8
// round-half-away-from-zero quantizer (NaN clamps to 127, exactly like the scalar
// std::max/std::min chain). Restored state therefore stays bit-stable across ISAs,
// thread counts, and backends.
//
// Dispatch: the tables are indexed by the process-wide SimdTier (src/common/simd.h),
// the same tier the functional plane's compute kernels (src/tensor/kernels.h) read —
// one CPUID probe, one HCACHE_SIMD clamp and one ForceSimdTier() hook for both. The
// tier API is re-exported here so codec callers keep including this header.
#ifndef HCACHE_SRC_STORAGE_CODEC_SIMD_H_
#define HCACHE_SRC_STORAGE_CODEC_SIMD_H_

#include <cstdint>

#include "src/common/simd.h"

namespace hcache {

// One ISA tier's convert kernels. All pointers are always non-null; every kernel
// accepts any n >= 0 and unaligned pointers (ragged tails run the scalar epilogue).
struct CodecKernels {
  // dst[i] = Fp32ToFp16Bits(src[i]) — saturating RNE encode.
  void (*fp16_encode)(const float* src, uint16_t* dst, int64_t n);
  // dst[i] = Fp16BitsToFp32(src[i]) — exact decode.
  void (*fp16_decode)(const uint16_t* src, float* dst, int64_t n);
  // max_i |src[i]| over n elements (0.0f for n == 0); NaN elements are ignored,
  // matching the scalar std::max accumulation.
  float (*max_abs)(const float* src, int64_t n);
  // dst[i] = (int8)max(-127, min(127, round(src[i] * inv_scale))) — round half away
  // from zero; NaN quantizes to 127 (the scalar clamp chain's behavior).
  void (*int8_quantize)(const float* src, float inv_scale, int8_t* dst, int64_t n);
  // dst[i] = (float)src[i] * scale.
  void (*int8_dequantize)(const int8_t* src, float scale, float* dst, int64_t n);
  // CRC32C (Castagnoli) over n bytes, chainable: takes and returns the RAW shift
  // register state (no ~ applied). Callers wanting the conventional checksum use
  // Crc32c() below. The vector tiers run the SSE4.2 crc32 instruction; the scalar
  // tier a byte-wise table — identical results by construction.
  uint32_t (*crc32c)(uint32_t crc, const void* data, int64_t n);
  // memcpy(dst, src, n) fused with the same chainable CRC over the bytes moved —
  // the verified read path's one-pass copy+checksum (the data is flowing through
  // registers anyway, so checksumming it there costs ports, not a second memory
  // sweep). src and dst must not overlap.
  uint32_t (*crc32c_copy)(uint32_t crc, const void* src, void* dst, int64_t n);
};

// The table for one specific tier. CHECK-fails if `tier` exceeds DetectedSimdTier()
// — calling an unsupported kernel would be SIGILL, not a graceful error.
const CodecKernels& CodecKernelsFor(SimdTier tier);

// The table the codec hot paths dispatch through (CodecKernelsFor(ActiveSimdTier())).
const CodecKernels& ActiveCodecKernels();

// One-shot CRC32C of a buffer under the active tier: ~0 init, final xor — the value
// stored in ChunkHeader::payload_crc32c. CRC32C("123456789") == 0xE3069283.
uint32_t Crc32c(const void* data, int64_t n);

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_CODEC_SIMD_H_
