#include "src/storage/codec_simd.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <limits>

#include "src/common/logging.h"
#include "src/storage/codec.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define HCACHE_CODEC_X86 1
// GCC 12's avx512 intrinsic wrappers pass an intentionally-undefined merge operand
// (_mm_undefined_si128) to the masked builtins, which -Wmaybe-uninitialized flags
// when they inline into our kernels. Known false positive (GCC PR105593).
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#else
#define HCACHE_CODEC_X86 0
#endif

namespace hcache {

namespace {

// --- scalar tier: the reference kernels every vector tier must match bit-for-bit ---

void Fp16EncodeScalar(const float* src, uint16_t* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = Fp32ToFp16Bits(src[i]);
  }
}

void Fp16DecodeScalar(const uint16_t* src, float* dst, int64_t n) {
  const float* lut = Fp16DecodeTable();
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = lut[src[i]];
  }
}

float MaxAbsScalar(const float* src, int64_t n) {
  float max_abs = 0.0f;
  for (int64_t i = 0; i < n; ++i) {
    // std::max(acc, NaN) keeps acc: NaN elements never win the scan.
    max_abs = std::max(max_abs, std::fabs(src[i]));
  }
  return max_abs;
}

void Int8QuantizeScalar(const float* src, float inv_scale, int8_t* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    const float v = std::round(src[i] * inv_scale);
    // NaN falls through both comparisons to 127 — the vector tiers replicate this
    // via the min/max NaN operand rules.
    dst[i] = static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, v)));
  }
}

void Int8DequantizeScalar(const int8_t* src, float scale, float* dst, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
}

// CRC32C reference: byte-wise table over the reflected Castagnoli polynomial
// 0x82F63B78 — the exact function the SSE4.2 crc32 instruction implements, so the
// hardware tier is bit-identical by construction (pinned by integrity_test).
const uint32_t* Crc32cTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) ? (0x82F63B78u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  return table.data();
}

uint32_t Crc32cScalar(uint32_t crc, const void* data, int64_t n) {
  const uint32_t* table = Crc32cTable();
  const auto* p = static_cast<const uint8_t*>(data);
  for (int64_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xffu] ^ (crc >> 8);
  }
  return crc;
}

uint32_t Crc32cCopyScalar(uint32_t crc, const void* src, void* dst, int64_t n) {
  std::memcpy(dst, src, static_cast<size_t>(n));
  return Crc32cScalar(crc, src, n);
}

#if HCACHE_CODEC_X86

// ============================ kF16c (AVX1 + F16C + SSE4.1) ======================
//
// 256-bit float math; integer fixups stay 128-bit (AVX1 has no 256-bit integer
// ops). vcvtps2ph alone is NOT bit-identical to the scalar encode: it overflows
// finite >= 65520 to Inf (scalar saturates to 0x7bff) and preserves NaN payloads
// (scalar canonicalizes to sign|0x7e00). Both are repaired before/after the convert:
//   * finite overflow: clamp |x| to 65504 before converting (Inf is exempted so it
//     still encodes as Inf, matching scalar);
//   * NaN: rebuild sign|0x7e00 and blend it over the converted lanes that compared
//     unordered.
// Everything else (RNE, subnormals with default MXCSR, signed zero) matches exactly.

__attribute__((target("avx,f16c,sse4.1"))) inline __m128i
Fp16EncodeLanes8(__m256 x, __m256 abs_mask, __m256 overflow_at, __m256 max_finite,
                 __m256 inf, __m128i sign_half, __m128i nan_half) {
  const __m256 abs = _mm256_and_ps(x, abs_mask);
  const __m256 sign = _mm256_andnot_ps(abs_mask, x);
  // finite_ovf: |x| >= 65520 (the first value RNE would carry into 2^16) and not Inf.
  // Ordered compares leave NaN lanes untouched here; they are repaired below.
  const __m256 finite_ovf = _mm256_andnot_ps(
      _mm256_cmp_ps(abs, inf, _CMP_EQ_OQ), _mm256_cmp_ps(abs, overflow_at, _CMP_GE_OQ));
  const __m256 clamped = _mm256_blendv_ps(abs, max_finite, finite_ovf);
  __m128i h = _mm256_cvtps_ph(_mm256_or_ps(clamped, sign),
                              _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256i unord = _mm256_castps_si256(_mm256_cmp_ps(x, x, _CMP_UNORD_Q));
  // Narrow the 32-bit all-ones/all-zeros lane masks to 16 bits (packs saturates
  // -1 -> -1, 0 -> 0) and canonicalize NaN lanes to sign|0x7e00.
  const __m128i nan16 = _mm_packs_epi32(_mm256_castsi256_si128(unord),
                                        _mm256_extractf128_si256(unord, 1));
  const __m128i canon = _mm_or_si128(_mm_and_si128(h, sign_half), nan_half);
  return _mm_blendv_epi8(h, canon, nan16);
}

__attribute__((target("avx,f16c,sse4.1"))) void Fp16EncodeF16c(const float* src,
                                                               uint16_t* dst, int64_t n) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 overflow_at = _mm256_set1_ps(65520.0f);
  const __m256 max_finite = _mm256_set1_ps(65504.0f);
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m128i sign_half = _mm_set1_epi16(static_cast<short>(0x8000));
  const __m128i nan_half = _mm_set1_epi16(0x7e00);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i h = Fp16EncodeLanes8(_mm256_loadu_ps(src + i), abs_mask, overflow_at,
                                       max_finite, inf, sign_half, nan_half);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), h);
  }
  for (; i < n; ++i) {
    dst[i] = Fp32ToFp16Bits(src[i]);
  }
}

// vcvtph2ps is exactly LUT-equivalent for all 65536 half patterns: normals, signed
// zeros, subnormals (normalized exactly), Inf, and NaN (payload << 13, signaling
// NaNs quieted — the scalar decode quiets them identically). No fixups needed.
__attribute__((target("avx,f16c"))) void Fp16DecodeF16c(const uint16_t* src, float* dst,
                                                        int64_t n) {
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i,
        _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i))));
  }
  const float* lut = Fp16DecodeTable();
  for (; i < n; ++i) {
    dst[i] = lut[src[i]];
  }
}

// vmaxps(a, b) returns b when either operand is NaN; accumulating with the fresh
// lane as the FIRST operand makes NaN elements keep the accumulator — the same
// "NaN never wins" rule as the scalar std::max scan. max is otherwise commutative
// and associative over the non-negative |x| values, so the vector reduction order
// is irrelevant to the result.
__attribute__((target("avx"))) float MaxAbsAvx(const float* src, int64_t n) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  __m256 acc = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc = _mm256_max_ps(_mm256_and_ps(_mm256_loadu_ps(src + i), abs_mask), acc);
  }
  __m128 m = _mm_max_ps(_mm256_castps256_ps128(acc), _mm256_extractf128_ps(acc, 1));
  m = _mm_max_ps(m, _mm_movehl_ps(m, m));
  m = _mm_max_ss(m, _mm_shuffle_ps(m, m, 1));
  float max_abs = _mm_cvtss_f32(m);
  for (; i < n; ++i) {
    max_abs = std::max(max_abs, std::fabs(src[i]));
  }
  return max_abs;
}

// Round-half-away-from-zero built from vroundps (half-to-even) plus an exact tie
// fixup: t = x - r is exact (Sterbenz), so t == +-0.5 identifies ties, which RNE
// rounded toward even and std::round wants away from zero. Ordered compares make
// NaN lanes skip the fixup; the min/max clamp then sends them to 127 exactly like
// the scalar std::max(-127, std::min(127, v)) chain (vminps/vmaxps return the
// SECOND operand on unordered, and the constant sits second in both).
__attribute__((target("avx,f16c,sse4.1"))) inline __m256
Int8QuantizeLanes8(__m256 x, __m256 half, __m256 one, __m256 hi, __m256 lo, __m256 zero) {
  const __m256 r = _mm256_round_ps(x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256 t = _mm256_sub_ps(x, r);
  const __m256 fix_up = _mm256_and_ps(_mm256_cmp_ps(t, half, _CMP_EQ_OQ),
                                      _mm256_cmp_ps(x, zero, _CMP_GT_OQ));
  const __m256 fix_dn =
      _mm256_and_ps(_mm256_cmp_ps(t, _mm256_sub_ps(zero, half), _CMP_EQ_OQ),
                    _mm256_cmp_ps(x, zero, _CMP_LT_OQ));
  __m256 v = _mm256_add_ps(r, _mm256_and_ps(fix_up, one));
  v = _mm256_sub_ps(v, _mm256_and_ps(fix_dn, one));
  return _mm256_max_ps(_mm256_min_ps(v, hi), lo);
}

__attribute__((target("avx,f16c,sse4.1"))) void Int8QuantizeF16c(const float* src,
                                                                 float inv_scale,
                                                                 int8_t* dst, int64_t n) {
  const __m256 vinv = _mm256_set1_ps(inv_scale);
  const __m256 half = _mm256_set1_ps(0.5f);
  const __m256 one = _mm256_set1_ps(1.0f);
  const __m256 hi = _mm256_set1_ps(127.0f);
  const __m256 lo = _mm256_set1_ps(-127.0f);
  const __m256 zero = _mm256_setzero_ps();
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 x = _mm256_mul_ps(_mm256_loadu_ps(src + i), vinv);
    const __m256 v = Int8QuantizeLanes8(x, half, one, hi, lo, zero);
    // Clamped lanes are integral in [-127, 127]: the int32 convert is exact under
    // any MXCSR mode and both saturating packs are the identity.
    const __m256i vi = _mm256_cvtps_epi32(v);
    const __m128i p16 =
        _mm_packs_epi32(_mm256_castsi256_si128(vi), _mm256_extractf128_si256(vi, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), _mm_packs_epi16(p16, p16));
  }
  for (; i < n; ++i) {
    const float v = std::round(src[i] * inv_scale);
    dst[i] = static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, v)));
  }
}

__attribute__((target("avx,sse4.1"))) void Int8DequantizeF16c(const int8_t* src,
                                                              float scale, float* dst,
                                                              int64_t n) {
  const __m256 vscale = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m128i w16 =
        _mm_cvtepi8_epi16(_mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i)));
    const __m128i d0 = _mm_cvtepi16_epi32(w16);
    const __m128i d1 = _mm_cvtepi16_epi32(_mm_srli_si128(w16, 8));
    const __m256 f = _mm256_cvtepi32_ps(_mm256_set_m128i(d1, d0));
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(f, vscale));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
}

// ================================== kAvx2 =======================================
//
// Same F16C conversion semantics; the gains are 16-element encode/decode steps and
// 256-bit integer ops (one blend per 16 lanes on the encode NaN fixup, full-width
// widening loads on the int8 dequant).

// Saturating RNE convert of 8 lanes WITHOUT the NaN canonicalization (the AVX2
// caller repairs NaN across 16 lanes with a single 256-bit blend).
__attribute__((target("avx2,f16c"))) inline __m128i Fp16CvtLanes8Avx2(
    __m256 x, __m256 abs_mask, __m256 overflow_at, __m256 max_finite, __m256 inf) {
  const __m256 abs = _mm256_and_ps(x, abs_mask);
  const __m256 sign = _mm256_andnot_ps(abs_mask, x);
  const __m256 finite_ovf = _mm256_andnot_ps(
      _mm256_cmp_ps(abs, inf, _CMP_EQ_OQ), _mm256_cmp_ps(abs, overflow_at, _CMP_GE_OQ));
  const __m256 clamped = _mm256_blendv_ps(abs, max_finite, finite_ovf);
  return _mm256_cvtps_ph(_mm256_or_ps(clamped, sign),
                         _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
}

__attribute__((target("avx2,f16c"))) void Fp16EncodeAvx2(const float* src, uint16_t* dst,
                                                         int64_t n) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  const __m256 overflow_at = _mm256_set1_ps(65520.0f);
  const __m256 max_finite = _mm256_set1_ps(65504.0f);
  const __m256 inf = _mm256_set1_ps(std::numeric_limits<float>::infinity());
  const __m256i sign_half = _mm256_set1_epi16(static_cast<short>(0x8000));
  const __m256i nan_half = _mm256_set1_epi16(0x7e00);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 x0 = _mm256_loadu_ps(src + i);
    const __m256 x1 = _mm256_loadu_ps(src + i + 8);
    const __m256i h = _mm256_set_m128i(
        Fp16CvtLanes8Avx2(x1, abs_mask, overflow_at, max_finite, inf),
        Fp16CvtLanes8Avx2(x0, abs_mask, overflow_at, max_finite, inf));
    const __m256i unord0 = _mm256_castps_si256(_mm256_cmp_ps(x0, x0, _CMP_UNORD_Q));
    const __m256i unord1 = _mm256_castps_si256(_mm256_cmp_ps(x1, x1, _CMP_UNORD_Q));
    const __m256i nan16 = _mm256_set_m128i(
        _mm_packs_epi32(_mm256_castsi256_si128(unord1), _mm256_extractf128_si256(unord1, 1)),
        _mm_packs_epi32(_mm256_castsi256_si128(unord0), _mm256_extractf128_si256(unord0, 1)));
    const __m256i canon = _mm256_or_si256(_mm256_and_si256(h, sign_half), nan_half);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i),
                        _mm256_blendv_epi8(h, canon, nan16));
  }
  for (; i < n; ++i) {
    dst[i] = Fp32ToFp16Bits(src[i]);
  }
}

__attribute__((target("avx2,f16c"))) void Fp16DecodeAvx2(const uint16_t* src, float* dst,
                                                         int64_t n) {
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(src + i));
    _mm256_storeu_ps(dst + i, _mm256_cvtph_ps(_mm256_castsi256_si128(h)));
    _mm256_storeu_ps(dst + i + 8, _mm256_cvtph_ps(_mm256_extracti128_si256(h, 1)));
  }
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        dst + i,
        _mm256_cvtph_ps(_mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i))));
  }
  const float* lut = Fp16DecodeTable();
  for (; i < n; ++i) {
    dst[i] = lut[src[i]];
  }
}

__attribute__((target("avx2"))) void Int8DequantizeAvx2(const int8_t* src, float scale,
                                                        float* dst, int64_t n) {
  const __m256 vscale = _mm256_set1_ps(scale);
  int64_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i d = _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i)));
    _mm256_storeu_ps(dst + i, _mm256_mul_ps(_mm256_cvtepi32_ps(d), vscale));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
}

// ================================= kAvx512 ======================================
//
// 16-lane conversions with mask registers replacing the pack/blend fixup dance.
// Requires F+BW+VL (BW+VL for the 16-bit masked blend on the encode side).

__attribute__((target("avx512f,avx512bw,avx512vl,f16c"))) void Fp16EncodeAvx512(
    const float* src, uint16_t* dst, int64_t n) {
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  const __m512 overflow_at = _mm512_set1_ps(65520.0f);
  const __m512 max_finite = _mm512_set1_ps(65504.0f);
  const __m512 inf = _mm512_set1_ps(std::numeric_limits<float>::infinity());
  const __m256i sign_half = _mm256_set1_epi16(static_cast<short>(0x8000));
  const __m256i nan_half = _mm256_set1_epi16(0x7e00);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 x = _mm512_loadu_ps(src + i);
    const __m512i xi = _mm512_castps_si512(x);
    const __m512 abs = _mm512_castsi512_ps(_mm512_and_epi32(xi, abs_mask));
    const __m512i sign = _mm512_andnot_epi32(abs_mask, xi);
    const __mmask16 finite_ovf = _mm512_cmp_ps_mask(abs, overflow_at, _CMP_GE_OQ) &
                                 ~_mm512_cmp_ps_mask(abs, inf, _CMP_EQ_OQ);
    const __m512 clamped = _mm512_mask_mov_ps(abs, finite_ovf, max_finite);
    const __m512 signed_x =
        _mm512_castsi512_ps(_mm512_or_epi32(_mm512_castps_si512(clamped), sign));
    __m256i h = _mm512_cvtps_ph(signed_x, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
    const __mmask16 unord = _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q);
    const __m256i canon = _mm256_or_si256(_mm256_and_si256(h, sign_half), nan_half);
    h = _mm256_mask_blend_epi16(unord, h, canon);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + i), h);
  }
  for (; i < n; ++i) {
    dst[i] = Fp32ToFp16Bits(src[i]);
  }
}

// No 512-bit decode kernel: vcvtph2ps is convert-port-bound, and on double-pumped
// AVX-512 implementations the zmm form measures ~30% SLOWER than streaming ymm
// converts (24 vs 35 GB/s on the reference box). The avx512 tier therefore reuses
// the 16-per-iteration 256-bit decode; every other avx512 kernel measures faster
// than its 256-bit counterpart and stays 512-bit.

__attribute__((target("avx512f"))) float MaxAbsAvx512(const float* src, int64_t n) {
  const __m512i abs_mask = _mm512_set1_epi32(0x7fffffff);
  __m512 acc = _mm512_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    // Fresh lanes first: vmaxps keeps the accumulator on NaN (see MaxAbsAvx).
    const __m512i xi = _mm512_castps_si512(_mm512_loadu_ps(src + i));
    acc = _mm512_max_ps(_mm512_castsi512_ps(_mm512_and_epi32(xi, abs_mask)), acc);
  }
  float max_abs = _mm512_reduce_max_ps(acc);
  for (; i < n; ++i) {
    max_abs = std::max(max_abs, std::fabs(src[i]));
  }
  return max_abs;
}

__attribute__((target("avx512f"))) void Int8QuantizeAvx512(const float* src,
                                                           float inv_scale, int8_t* dst,
                                                           int64_t n) {
  const __m512 vinv = _mm512_set1_ps(inv_scale);
  const __m512 half = _mm512_set1_ps(0.5f);
  const __m512 neg_half = _mm512_set1_ps(-0.5f);
  const __m512 one = _mm512_set1_ps(1.0f);
  const __m512 hi = _mm512_set1_ps(127.0f);
  const __m512 lo = _mm512_set1_ps(-127.0f);
  const __m512 zero = _mm512_setzero_ps();
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512 x = _mm512_mul_ps(_mm512_loadu_ps(src + i), vinv);
    // Round-to-nearest-even with exceptions suppressed (imm 0x08), then the same
    // exact tie fixup as the 256-bit tier, on mask registers.
    const __m512 r = _mm512_roundscale_ps(x, 0x08);
    const __m512 t = _mm512_sub_ps(x, r);
    const __mmask16 fix_up = _mm512_cmp_ps_mask(t, half, _CMP_EQ_OQ) &
                             _mm512_cmp_ps_mask(x, zero, _CMP_GT_OQ);
    const __mmask16 fix_dn = _mm512_cmp_ps_mask(t, neg_half, _CMP_EQ_OQ) &
                             _mm512_cmp_ps_mask(x, zero, _CMP_LT_OQ);
    __m512 v = _mm512_mask_add_ps(r, fix_up, r, one);
    v = _mm512_mask_sub_ps(v, fix_dn, v, one);
    v = _mm512_max_ps(_mm512_min_ps(v, hi), lo);
    const __m512i vi = _mm512_cvtps_epi32(v);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i), _mm512_cvtsepi32_epi8(vi));
  }
  for (; i < n; ++i) {
    const float v = std::round(src[i] * inv_scale);
    dst[i] = static_cast<int8_t>(std::max(-127.0f, std::min(127.0f, v)));
  }
}

__attribute__((target("avx512f"))) void Int8DequantizeAvx512(const int8_t* src,
                                                             float scale, float* dst,
                                                             int64_t n) {
  const __m512 vscale = _mm512_set1_ps(scale);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m512i d = _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i)));
    _mm512_storeu_ps(dst + i, _mm512_mul_ps(_mm512_cvtepi32_ps(d), vscale));
  }
  for (; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
}

// ================================== crc32c ======================================
//
// One hardware kernel shared by every vector tier: the crc32q instruction is SSE4.2
// (a strict subset of the F16C+AVX+SSE4.1 floor DetectedSimdTier() requires for any vector
// tier), and nothing wider helps. What DOES help is breaking the dependency chain:
// crc32q retires 1/cycle but has 3-cycle latency, so a single chained loop runs at a
// third of peak. Large buffers are split into three independent streams checksummed
// in one interleaved loop, then recombined.
//
// Recombination uses the linearity of the raw CRC register: processing segment B
// from state s equals (s pushed through |B| zero bytes) XOR (B from state 0). The
// zero-push for the fixed stream length is a GF(2)-linear map, tabulated per state
// byte (Adler's two-level scheme) by running each of the 32 state basis bits through
// the hardware instruction once at first use — no magic polynomial constants.

constexpr int64_t kCrcStreamBytes = 1024;  // per-stream block; tail < 3KiB stays chained

struct CrcZeroShiftTable {
  uint32_t t[4][256];
};

__attribute__((target("sse4.2"))) uint32_t Crc32cPushZeros(uint32_t state, int64_t n) {
  uint64_t c = state;
  for (; n >= 8; n -= 8) {
    c = _mm_crc32_u64(c, 0);
  }
  auto crc = static_cast<uint32_t>(c);
  for (; n > 0; --n) {
    crc = _mm_crc32_u8(crc, 0);
  }
  return crc;
}

const CrcZeroShiftTable& CrcStreamShiftTable() {
  static const CrcZeroShiftTable table = [] {
    CrcZeroShiftTable tb;
    uint32_t basis[32];
    for (int bit = 0; bit < 32; ++bit) {
      basis[bit] = Crc32cPushZeros(1u << bit, kCrcStreamBytes);
    }
    for (int k = 0; k < 4; ++k) {
      for (int b = 0; b < 256; ++b) {
        uint32_t v = 0;
        for (int bit = 0; bit < 8; ++bit) {
          if ((b >> bit) & 1) {
            v ^= basis[8 * k + bit];
          }
        }
        tb.t[k][b] = v;
      }
    }
    return tb;
  }();
  return table;
}

inline uint32_t CrcShiftStream(const CrcZeroShiftTable& tb, uint32_t crc) {
  return tb.t[0][crc & 0xFF] ^ tb.t[1][(crc >> 8) & 0xFF] ^
         tb.t[2][(crc >> 16) & 0xFF] ^ tb.t[3][crc >> 24];
}

__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(uint32_t crc, const void* data,
                                                       int64_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  if (n >= 3 * kCrcStreamBytes) {
    const CrcZeroShiftTable& shift = CrcStreamShiftTable();
    uint64_t c0 = crc;
    do {
      uint64_t c1 = 0, c2 = 0;
      for (int64_t i = 0; i < kCrcStreamBytes; i += 8) {
        uint64_t w0, w1, w2;
        std::memcpy(&w0, p + i, sizeof(w0));
        std::memcpy(&w1, p + kCrcStreamBytes + i, sizeof(w1));
        std::memcpy(&w2, p + 2 * kCrcStreamBytes + i, sizeof(w2));
        c0 = _mm_crc32_u64(c0, w0);
        c1 = _mm_crc32_u64(c1, w1);
        c2 = _mm_crc32_u64(c2, w2);
      }
      c0 = CrcShiftStream(shift, static_cast<uint32_t>(c0)) ^ c1;
      c0 = CrcShiftStream(shift, static_cast<uint32_t>(c0)) ^ c2;
      p += 3 * kCrcStreamBytes;
      n -= 3 * kCrcStreamBytes;
    } while (n >= 3 * kCrcStreamBytes);
    crc = static_cast<uint32_t>(c0);
  }
  uint64_t c = crc;
  for (; n >= 8; p += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; ++p, --n) {
    crc = _mm_crc32_u8(crc, *p);
  }
  return crc;
}

// The fused copy: the same three-stream CRC schedule riding on a 256-bit copy. The
// bytes move src->dst through ymm registers (full store-port width — 8-byte scalar
// stores would halve copy bandwidth); the crc32q feeds re-load each word from the
// line the vector load just pulled into L1, so they cost load slots, not memory
// traffic. crc32q issues on one ALU port at 8 bytes/cycle — the hard ceiling of any
// checksummed path — so on a DRAM-bound copy most of the checksum hides behind the
// byte movement instead of adding a second sweep. (Non-temporal stores were tried
// for the big-copy case and rejected: on the virtualized hosts this targets they
// measure SLOWER than regular stores, not faster.)
__attribute__((target("avx,sse4.2"))) uint32_t Crc32cCopySse42(uint32_t crc,
                                                               const void* src,
                                                               void* dst, int64_t n) {
  const auto* p = static_cast<const uint8_t*>(src);
  auto* q = static_cast<uint8_t*>(dst);
  if (n >= 3 * kCrcStreamBytes) {
    const CrcZeroShiftTable& shift = CrcStreamShiftTable();
    uint64_t c0 = crc;
    do {
      uint64_t c1 = 0, c2 = 0;
      for (int64_t i = 0; i < kCrcStreamBytes; i += 32) {
        const __m256i v0 =
            _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + i));
        const __m256i v1 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(p + kCrcStreamBytes + i));
        const __m256i v2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(p + 2 * kCrcStreamBytes + i));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + i), v0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + kCrcStreamBytes + i), v1);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(q + 2 * kCrcStreamBytes + i),
                            v2);
        for (int64_t j = 0; j < 32; j += 8) {
          uint64_t w0, w1, w2;
          std::memcpy(&w0, p + i + j, sizeof(w0));
          std::memcpy(&w1, p + kCrcStreamBytes + i + j, sizeof(w1));
          std::memcpy(&w2, p + 2 * kCrcStreamBytes + i + j, sizeof(w2));
          c0 = _mm_crc32_u64(c0, w0);
          c1 = _mm_crc32_u64(c1, w1);
          c2 = _mm_crc32_u64(c2, w2);
        }
      }
      c0 = CrcShiftStream(shift, static_cast<uint32_t>(c0)) ^ c1;
      c0 = CrcShiftStream(shift, static_cast<uint32_t>(c0)) ^ c2;
      p += 3 * kCrcStreamBytes;
      q += 3 * kCrcStreamBytes;
      n -= 3 * kCrcStreamBytes;
    } while (n >= 3 * kCrcStreamBytes);
    crc = static_cast<uint32_t>(c0);
  }
  uint64_t c = crc;
  for (; n >= 8; p += 8, q += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    c = _mm_crc32_u64(c, word);
    std::memcpy(q, &word, sizeof(word));
  }
  crc = static_cast<uint32_t>(c);
  for (; n > 0; ++p, ++q, --n) {
    crc = _mm_crc32_u8(crc, *p);
    *q = *p;
  }
  return crc;
}

#endif  // HCACHE_CODEC_X86

// --------------------------------- dispatch -------------------------------------

constexpr CodecKernels kScalarKernels = {Fp16EncodeScalar, Fp16DecodeScalar, MaxAbsScalar,
                                         Int8QuantizeScalar, Int8DequantizeScalar,
                                         Crc32cScalar, Crc32cCopyScalar};

#if HCACHE_CODEC_X86
constexpr CodecKernels kF16cKernels = {Fp16EncodeF16c, Fp16DecodeF16c, MaxAbsAvx,
                                       Int8QuantizeF16c, Int8DequantizeF16c, Crc32cSse42,
                                       Crc32cCopySse42};
constexpr CodecKernels kAvx2Kernels = {Fp16EncodeAvx2, Fp16DecodeAvx2, MaxAbsAvx,
                                       Int8QuantizeF16c, Int8DequantizeAvx2, Crc32cSse42,
                                       Crc32cCopySse42};
constexpr CodecKernels kAvx512Kernels = {Fp16EncodeAvx512, Fp16DecodeAvx2, MaxAbsAvx512,
                                         Int8QuantizeAvx512, Int8DequantizeAvx512,
                                         Crc32cSse42, Crc32cCopySse42};
#else
constexpr CodecKernels kF16cKernels = kScalarKernels;
constexpr CodecKernels kAvx2Kernels = kScalarKernels;
constexpr CodecKernels kAvx512Kernels = kScalarKernels;
#endif

constexpr CodecKernels kKernelTables[kNumSimdTiers] = {kScalarKernels, kF16cKernels,
                                                       kAvx2Kernels, kAvx512Kernels};

}  // namespace

const CodecKernels& CodecKernelsFor(SimdTier tier) {
  const int t = static_cast<int>(tier);
  CHECK_GE(t, 0);
  CHECK_LE(t, static_cast<int>(DetectedSimdTier()))
      << "tier " << SimdTierName(tier) << " not executable on this CPU";
  return kKernelTables[t];
}

const CodecKernels& ActiveCodecKernels() { return CodecKernelsFor(ActiveSimdTier()); }

uint32_t Crc32c(const void* data, int64_t n) {
  return ActiveCodecKernels().crc32c(0xFFFFFFFFu, data, n) ^ 0xFFFFFFFFu;
}

}  // namespace hcache

#if HCACHE_CODEC_X86
#pragma GCC diagnostic pop
#endif
