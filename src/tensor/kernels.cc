// Floating-point contraction is off for this whole translation unit. GCC's vector
// intrinsics are plain vector arithmetic, so under a target that has FMA (avx512f, or
// -march=native for the scalar loops) it would otherwise fuse a multiply and the add
// that consumes it into one differently-rounded instruction — and the tiers would
// stop being bit-identical. The pragma must precede every function it covers.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "src/tensor/kernels.h"

#include <algorithm>

#include "src/common/logging.h"

#if defined(__GNUC__) && defined(__x86_64__)
#define HCACHE_TENSOR_X86 1
// GCC 12's avx512 intrinsic wrappers pass an intentionally-undefined merge operand to
// the masked builtins, which -Wmaybe-uninitialized flags once they inline into our
// kernels. Known false positive (GCC PR105593); codec_simd.cc silences it the same way.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#include <immintrin.h>
#else
#define HCACHE_TENSOR_X86 0
#endif

namespace hcache {

namespace {

constexpr int64_t kNr = kGemmNr;

// Calls fns[i - 1](args...): a switch from a runtime row/strip count to a template
// instantiation, so register tiles keep compile-time shapes at the edges too.
template <typename Fn, size_t N, typename... Args>
void Dispatch(const Fn (&fns)[N], int64_t i, Args... args) {
  fns[i - 1](args...);
}

// ================================ scalar tier ====================================
//
// The reference order. Register tile kScalarMr x kNr: one strip, up to four rows. The
// k-loop body is one fixed-trip-count j-loop with the A rows unrolled by hand, so each
// lane's chain `acc_r[j] += a_r * b_j` is textually identical for every MR.

constexpr int kScalarMr = 4;

template <int MR>
void TileScalar(const float* a, int64_t lda, const float* b, int64_t kc, float* c,
                int64_t ldc, int64_t nr, bool assign) {
  float acc0[kNr] = {}, acc1[kNr] = {}, acc2[kNr] = {}, acc3[kNr] = {};
  for (int64_t p = 0; p < kc; ++p) {
    const float* b_row = b + p * kNr;
    const float a0 = a[p];
    const float a1 = MR > 1 ? a[lda + p] : 0.0f;
    const float a2 = MR > 2 ? a[2 * lda + p] : 0.0f;
    const float a3 = MR > 3 ? a[3 * lda + p] : 0.0f;
    for (int64_t j = 0; j < kNr; ++j) {
      const float bj = b_row[j];
      acc0[j] += a0 * bj;
      if constexpr (MR > 1) acc1[j] += a1 * bj;
      if constexpr (MR > 2) acc2[j] += a2 * bj;
      if constexpr (MR > 3) acc3[j] += a3 * bj;
    }
  }
  const float* const rows[kScalarMr] = {acc0, acc1, acc2, acc3};
  for (int r = 0; r < MR; ++r) {
    float* c_row = c + r * ldc;
    const float* acc = rows[r];
    if (assign) {
      for (int64_t j = 0; j < nr; ++j) {
        c_row[j] = acc[j];
      }
    } else {
      for (int64_t j = 0; j < nr; ++j) {
        c_row[j] += acc[j];
      }
    }
  }
}

using ScalarTileFn = void (*)(const float*, int64_t, const float*, int64_t, float*, int64_t,
                              int64_t, bool);
constexpr ScalarTileFn kScalarTiles[kScalarMr] = {TileScalar<1>, TileScalar<2>,
                                                  TileScalar<3>, TileScalar<4>};

void GemmBlockScalar(const float* a, int64_t lda, const float* b, int64_t strip_stride,
                     int64_t kc, float* c, int64_t ldc, int64_t m, int64_t n, bool assign) {
  for (int64_t j0 = 0; j0 < n; j0 += kNr) {
    const float* strip = b + (j0 / kNr) * strip_stride;
    const int64_t nr = std::min(kNr, n - j0);
    for (int64_t i0 = 0; i0 < m; i0 += kScalarMr) {
      Dispatch(kScalarTiles, std::min<int64_t>(kScalarMr, m - i0), a + i0 * lda, lda, strip,
               kc, c + i0 * ldc + j0, ldc, nr, assign);
    }
  }
}

float CanonicalDotScalar(const float* q, const float* k, int64_t d) {
  float lanes[16] = {};
  for (int64_t e = 0; e < d; ++e) {
    lanes[e % 16] += q[e] * k[e];
  }
  for (int w = 8; w >= 1; w /= 2) {
    for (int l = 0; l < w; ++l) {
      lanes[l] += lanes[l + w];
    }
  }
  return lanes[0];
}

void QkDotsScalar(const float* q, const float* const* rows, int64_t offset, int64_t len,
                  int64_t d, float* out) {
  for (int64_t j = 0; j < len; ++j) {
    out[j] = CanonicalDotScalar(q, rows[j] + offset, d);
  }
}

void WeightedRowsScalar(const float* w, const float* const* rows, int64_t offset,
                        int64_t len, int64_t d, float* out) {
  for (int64_t j = 0; j < len; ++j) {
    const float wj = w[j];
    const float* row = rows[j] + offset;
    for (int64_t e = 0; e < d; ++e) {
      out[e] += wj * row[e];
    }
  }
}

#if HCACHE_TENSOR_X86

// ============================ kF16c / kAvx2 (AVX) ================================
//
// Float math needs only AVX1, so both 256-bit tiers share these kernels. A strip is
// two ymm halves. The tile is kAvxMr x 16 (12 accumulators of the 16 ymm registers);
// the row kernel holds kAvxRowStrips strips (8 accumulators).

constexpr int kAvxMr = 6;
constexpr int kAvxRowStrips = 4;

// kAvxLaneMask + 8 - n: the first n lanes set. For maskload/maskstore, which AVX1
// offers without AVX2's integer compares.
alignas(32) constexpr int32_t kAvxLaneMask[16] = {-1, -1, -1, -1, -1, -1, -1, -1,
                                                  0,  0,  0,  0,  0,  0,  0,  0};

__attribute__((target("avx"))) inline __m256i AvxMask(int64_t n) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(kAvxLaneMask + 8 - n));
}

// Stores the first n (0..8) lanes of v to dst, as C = v or C = C + v.
__attribute__((target("avx"))) inline void AvxStore(float* dst, __m256 v, int64_t n,
                                                    bool assign) {
  if (n >= 8) {
    _mm256_storeu_ps(dst, assign ? v : _mm256_add_ps(_mm256_loadu_ps(dst), v));
  } else if (n > 0) {
    const __m256i mask = AvxMask(n);
    _mm256_maskstore_ps(dst, mask,
                        assign ? v : _mm256_add_ps(_mm256_maskload_ps(dst, mask), v));
  }
}

template <int MR, int NS>
__attribute__((target("avx"))) void TileAvx(const float* a, int64_t lda, const float* b,
                                            int64_t strip_stride, int64_t kc, float* c,
                                            int64_t ldc, int64_t nr, bool assign) {
  __m256 acc[MR][2 * NS];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 16
    for (int v = 0; v < 2 * NS; ++v) {
      acc[r][v] = _mm256_setzero_ps();
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    __m256 bv[2 * NS];
#pragma GCC unroll 16
    for (int v = 0; v < 2 * NS; ++v) {
      bv[v] = _mm256_loadu_ps(b + (v / 2) * strip_stride + p * kNr + (v % 2) * 8);
    }
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const __m256 ar = _mm256_set1_ps(a[r * lda + p]);
#pragma GCC unroll 16
      for (int v = 0; v < 2 * NS; ++v) {
        acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(ar, bv[v]));
      }
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < 2 * NS; ++v) {
      AvxStore(c + r * ldc + v * 8, acc[r][v], std::min<int64_t>(8, nr - v * 8), assign);
    }
  }
}

using AvxTileFn = void (*)(const float*, int64_t, const float*, int64_t, int64_t, float*,
                           int64_t, int64_t, bool);
constexpr AvxTileFn kAvxTiles[kAvxMr] = {TileAvx<1, 1>, TileAvx<2, 1>, TileAvx<3, 1>,
                                         TileAvx<4, 1>, TileAvx<5, 1>, TileAvx<6, 1>};
constexpr AvxTileFn kAvxRows[kAvxRowStrips] = {TileAvx<1, 1>, TileAvx<1, 2>, TileAvx<1, 3>,
                                               TileAvx<1, 4>};

void GemmBlockAvx(const float* a, int64_t lda, const float* b, int64_t strip_stride,
                  int64_t kc, float* c, int64_t ldc, int64_t m, int64_t n, bool assign) {
  const int64_t strips = (n + kNr - 1) / kNr;
  if (m == 1) {
    for (int64_t s = 0; s < strips; s += kAvxRowStrips) {
      Dispatch(kAvxRows, std::min<int64_t>(kAvxRowStrips, strips - s), a, lda,
               b + s * strip_stride, strip_stride, kc, c + s * kNr, ldc, n - s * kNr,
               assign);
    }
    return;
  }
  for (int64_t s = 0; s < strips; ++s) {
    for (int64_t i0 = 0; i0 < m; i0 += kAvxMr) {
      Dispatch(kAvxTiles, std::min<int64_t>(kAvxMr, m - i0), a + i0 * lda, lda,
               b + s * strip_stride, strip_stride, kc, c + i0 * ldc + s * kNr, ldc,
               std::min(kNr, n - s * kNr), assign);
    }
  }
}

// The canonical 16-lane reduction tree over lanes lo = [0, 8) and hi = [8, 16).
__attribute__((target("avx"))) inline float ReduceLanesAvx(__m256 lo, __m256 hi) {
  const __m256 s8 = _mm256_add_ps(lo, hi);
  const __m128 s4 = _mm_add_ps(_mm256_castps256_ps128(s8), _mm256_extractf128_ps(s8, 1));
  const __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
  return _mm_cvtss_f32(_mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1)));
}

__attribute__((target("avx"))) void QkDotsAvx(const float* q, const float* const* rows,
                                              int64_t offset, int64_t len, int64_t d,
                                              float* out) {
  const int64_t full = d / 16 * 16;
  const int64_t tail = d - full;
  const __m256i lo_mask = AvxMask(std::min<int64_t>(tail, 8));
  const __m256i hi_mask = AvxMask(std::max<int64_t>(tail - 8, 0));
  for (int64_t j = 0; j < len; ++j) {
    const float* k = rows[j] + offset;
    __m256 lo = _mm256_setzero_ps();
    __m256 hi = _mm256_setzero_ps();
    for (int64_t e = 0; e < full; e += 16) {
      lo = _mm256_add_ps(lo, _mm256_mul_ps(_mm256_loadu_ps(q + e), _mm256_loadu_ps(k + e)));
      hi = _mm256_add_ps(hi,
                         _mm256_mul_ps(_mm256_loadu_ps(q + e + 8), _mm256_loadu_ps(k + e + 8)));
    }
    if (tail > 0) {
      // Masked-off lanes add 0 * 0 = +0, which leaves an accumulator that started at
      // +0 unchanged — the same as skipping the term.
      lo = _mm256_add_ps(lo, _mm256_mul_ps(_mm256_maskload_ps(q + full, lo_mask),
                                           _mm256_maskload_ps(k + full, lo_mask)));
      hi = _mm256_add_ps(hi, _mm256_mul_ps(_mm256_maskload_ps(q + full + 8, hi_mask),
                                           _mm256_maskload_ps(k + full + 8, hi_mask)));
    }
    out[j] = ReduceLanesAvx(lo, hi);
  }
}

__attribute__((target("avx"))) void WeightedRowsAvx(const float* w, const float* const* rows,
                                                    int64_t offset, int64_t len, int64_t d,
                                                    float* out) {
  // Four ymm accumulators (32 columns) stay in registers across all rows.
  for (int64_t e0 = 0; e0 < d; e0 += 32) {
    __m256i mask[4];
    __m256 acc[4];
    for (int v = 0; v < 4; ++v) {
      mask[v] = AvxMask(std::clamp<int64_t>(d - e0 - 8 * v, 0, 8));
      acc[v] = _mm256_maskload_ps(out + e0 + 8 * v, mask[v]);
    }
    for (int64_t j = 0; j < len; ++j) {
      const __m256 wj = _mm256_set1_ps(w[j]);
      const float* row = rows[j] + offset + e0;
      for (int v = 0; v < 4; ++v) {
        acc[v] = _mm256_add_ps(acc[v],
                               _mm256_mul_ps(wj, _mm256_maskload_ps(row + 8 * v, mask[v])));
      }
    }
    for (int v = 0; v < 4; ++v) {
      _mm256_maskstore_ps(out + e0 + 8 * v, mask[v], acc[v]);
    }
  }
}

// ================================== kAvx512 ======================================
//
// The tile is kAvx512Mr x 32 (two strips, 16 zmm accumulators); the row kernel holds
// kAvx512RowStrips strips (8 accumulators). Ragged edges use lane masks.

constexpr int kAvx512Mr = 8;
constexpr int kAvx512TileStrips = 2;
constexpr int kAvx512RowStrips = 8;

inline __mmask16 LaneMask16(int64_t n) {
  return n >= 16 ? static_cast<__mmask16>(0xffff)
                 : static_cast<__mmask16>((1u << std::max<int64_t>(n, 0)) - 1u);
}

template <int MR, int NS>
__attribute__((target("avx512f"))) void TileAvx512(const float* a, int64_t lda,
                                                   const float* b, int64_t strip_stride,
                                                   int64_t kc, float* c, int64_t ldc,
                                                   int64_t nr, bool assign) {
  __m512 acc[MR][NS];
#pragma GCC unroll 16
  for (int r = 0; r < MR; ++r) {
#pragma GCC unroll 16
    for (int s = 0; s < NS; ++s) {
      acc[r][s] = _mm512_setzero_ps();
    }
  }
  for (int64_t p = 0; p < kc; ++p) {
    __m512 bv[NS];
#pragma GCC unroll 16
    for (int s = 0; s < NS; ++s) {
      bv[s] = _mm512_loadu_ps(b + s * strip_stride + p * kNr);
    }
#pragma GCC unroll 16
    for (int r = 0; r < MR; ++r) {
      const __m512 ar = _mm512_set1_ps(a[r * lda + p]);
#pragma GCC unroll 16
      for (int s = 0; s < NS; ++s) {
        acc[r][s] = _mm512_add_ps(acc[r][s], _mm512_mul_ps(ar, bv[s]));
      }
    }
  }
  for (int s = 0; s < NS; ++s) {
    const __mmask16 mask = LaneMask16(nr - s * kNr);
    for (int r = 0; r < MR; ++r) {
      float* dst = c + r * ldc + s * kNr;
      const __m512 v =
          assign ? acc[r][s] : _mm512_add_ps(_mm512_maskz_loadu_ps(mask, dst), acc[r][s]);
      _mm512_mask_storeu_ps(dst, mask, v);
    }
  }
}

using Avx512TileFn = void (*)(const float*, int64_t, const float*, int64_t, int64_t, float*,
                              int64_t, int64_t, bool);
constexpr Avx512TileFn kAvx512Tiles[kAvx512TileStrips][kAvx512Mr] = {
    {TileAvx512<1, 1>, TileAvx512<2, 1>, TileAvx512<3, 1>, TileAvx512<4, 1>,
     TileAvx512<5, 1>, TileAvx512<6, 1>, TileAvx512<7, 1>, TileAvx512<8, 1>},
    {TileAvx512<1, 2>, TileAvx512<2, 2>, TileAvx512<3, 2>, TileAvx512<4, 2>,
     TileAvx512<5, 2>, TileAvx512<6, 2>, TileAvx512<7, 2>, TileAvx512<8, 2>}};
constexpr Avx512TileFn kAvx512Rows[kAvx512RowStrips] = {
    TileAvx512<1, 1>, TileAvx512<1, 2>, TileAvx512<1, 3>, TileAvx512<1, 4>,
    TileAvx512<1, 5>, TileAvx512<1, 6>, TileAvx512<1, 7>, TileAvx512<1, 8>};

void GemmBlockAvx512(const float* a, int64_t lda, const float* b, int64_t strip_stride,
                     int64_t kc, float* c, int64_t ldc, int64_t m, int64_t n, bool assign) {
  const int64_t strips = (n + kNr - 1) / kNr;
  if (m == 1) {
    for (int64_t s = 0; s < strips; s += kAvx512RowStrips) {
      Dispatch(kAvx512Rows, std::min<int64_t>(kAvx512RowStrips, strips - s), a, lda,
               b + s * strip_stride, strip_stride, kc, c + s * kNr, ldc, n - s * kNr,
               assign);
    }
    return;
  }
  for (int64_t s = 0; s < strips; s += kAvx512TileStrips) {
    const int64_t ns = std::min<int64_t>(kAvx512TileStrips, strips - s);
    for (int64_t i0 = 0; i0 < m; i0 += kAvx512Mr) {
      Dispatch(kAvx512Tiles[ns - 1], std::min<int64_t>(kAvx512Mr, m - i0), a + i0 * lda, lda,
               b + s * strip_stride, strip_stride, kc, c + i0 * ldc + s * kNr, ldc,
               n - s * kNr, assign);
    }
  }
}

__attribute__((target("avx512f"))) void QkDotsAvx512(const float* q,
                                                     const float* const* rows,
                                                     int64_t offset, int64_t len, int64_t d,
                                                     float* out) {
  const int64_t full = d / 16 * 16;
  const __mmask16 tail = LaneMask16(d - full);
  for (int64_t j = 0; j < len; ++j) {
    const float* k = rows[j] + offset;
    __m512 acc = _mm512_setzero_ps();
    for (int64_t e = 0; e < full; e += 16) {
      acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_loadu_ps(q + e), _mm512_loadu_ps(k + e)));
    }
    if (tail != 0) {
      // Masked-off lanes add +0 to an accumulator that started at +0: a no-op.
      acc = _mm512_add_ps(acc, _mm512_mul_ps(_mm512_maskz_loadu_ps(tail, q + full),
                                             _mm512_maskz_loadu_ps(tail, k + full)));
    }
    const __m256 lo = _mm512_castps512_ps256(acc);
    const __m256 hi = _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(acc), 1));
    out[j] = ReduceLanesAvx(lo, hi);
  }
}

__attribute__((target("avx512f"))) void WeightedRowsAvx512(const float* w,
                                                           const float* const* rows,
                                                           int64_t offset, int64_t len,
                                                           int64_t d, float* out) {
  // Four zmm accumulators (64 columns, a whole head_dim-64 head) stay in registers
  // across all rows.
  for (int64_t e0 = 0; e0 < d; e0 += 64) {
    __mmask16 mask[4];
    __m512 acc[4];
    for (int v = 0; v < 4; ++v) {
      mask[v] = LaneMask16(d - e0 - 16 * v);
      acc[v] = _mm512_maskz_loadu_ps(mask[v], out + e0 + 16 * v);
    }
    for (int64_t j = 0; j < len; ++j) {
      const __m512 wj = _mm512_set1_ps(w[j]);
      const float* row = rows[j] + offset + e0;
      for (int v = 0; v < 4; ++v) {
        acc[v] = _mm512_add_ps(acc[v],
                               _mm512_mul_ps(wj, _mm512_maskz_loadu_ps(mask[v], row + 16 * v)));
      }
    }
    for (int v = 0; v < 4; ++v) {
      _mm512_mask_storeu_ps(out + e0 + 16 * v, mask[v], acc[v]);
    }
  }
}

#endif  // HCACHE_TENSOR_X86

// --------------------------------- dispatch -------------------------------------

constexpr TensorKernels kScalarKernels = {GemmBlockScalar, QkDotsScalar, WeightedRowsScalar};

#if HCACHE_TENSOR_X86
constexpr TensorKernels kAvxKernels = {GemmBlockAvx, QkDotsAvx, WeightedRowsAvx};
constexpr TensorKernels kAvx512Kernels = {GemmBlockAvx512, QkDotsAvx512, WeightedRowsAvx512};
#else
constexpr TensorKernels kAvxKernels = kScalarKernels;
constexpr TensorKernels kAvx512Kernels = kScalarKernels;
#endif

constexpr TensorKernels kKernelTables[kNumSimdTiers] = {kScalarKernels, kAvxKernels,
                                                        kAvxKernels, kAvx512Kernels};

}  // namespace

const TensorKernels& TensorKernelsFor(SimdTier tier) {
  const int t = static_cast<int>(tier);
  CHECK_GE(t, 0);
  CHECK_LE(t, static_cast<int>(DetectedSimdTier()))
      << "tier " << SimdTierName(tier) << " not executable on this CPU";
  return kKernelTables[t];
}

const TensorKernels& ActiveTensorKernels() { return TensorKernelsFor(ActiveSimdTier()); }

}  // namespace hcache

#if HCACHE_TENSOR_X86
#pragma GCC diagnostic pop
#endif
