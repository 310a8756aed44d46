// Floating-point contraction is off for this whole translation unit. GCC's vector
// intrinsics are plain vector arithmetic, so under a target that has FMA (avx512f, or
// -march=native for the scalar loops) it would otherwise fuse a multiply and the add
// that consumes it into one differently-rounded instruction — and the tiers would
// stop being bit-identical. Trapping math is off too, which changes no value (nothing
// here runs with FP exceptions unmasked) but lets GCC if-convert CanonicalExp's
// selects and vectorize the scalar tier's exp loops. The pragma must precede every
// function it covers.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off", "no-trapping-math")
#endif

#include "src/tensor/kernels.h"

#include <algorithm>
#include <bit>

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

// ================================ canonical exp ==================================
//
// CanonicalExp (kernels.h) and its vector twins ExpAvx / ExpAvx512 run the same
// operations in the same order, lane by lane.

// Inputs are clamped to [kExpMin, kExpMax]: exp(-104) rounds to +0 and exp(89)
// overflows to +inf, so the clamp changes no result and keeps n in [-150, 129].
constexpr float kExpMin = -104.0f;
constexpr float kExpMax = 89.0f;
constexpr float kLog2e = 1.44269504088896341f;
// Adding 1.5 * 2^23 rounds a float of magnitude < 2^22 to an integer, to nearest even;
// that integer n then sits in the low mantissa bits: bits(t) = kRoundBits + n.
constexpr float kRound = 12582912.0f;
constexpr int32_t kRoundBits = 0x4B400000;
// ln2 = kLn2Hi + kLn2Lo; kLn2Hi has 9 significant bits, so n * kLn2Hi is exact.
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
// exp(r) ~ 1 + r + c2 r^2 + ... + c6 r^6 on |r| <= ln2/2: minimax for relative error
// (4.3e-9, below a tenth of an ulp), with the constant and linear terms pinned to 1 so
// exp(0) is exactly 1.
constexpr float kExpC2 = 0.49999998131186750f;
constexpr float kExpC3 = 0.16666506067331866f;
constexpr float kExpC4 = 0.041667090158384339f;
constexpr float kExpC5 = 0.0083702626734059780f;
constexpr float kExpC6 = 0.0013893402857621606f;

// One lane of CanonicalExp. Forced inline so the scalar tier's loops vectorize it.
__attribute__((always_inline)) inline float ExpLane(float x) {
  // max/min in maxps/minps operand order: a NaN becomes kExpMin here and is put back
  // at the end, so every lane takes the same arithmetic.
  float xc = x > kExpMin ? x : kExpMin;
  xc = xc < kExpMax ? xc : kExpMax;
  const float t = xc * kLog2e + kRound;
  const float n = t - kRound;
  float r = xc - n * kLn2Hi;
  r = r - n * kLn2Lo;
  float p = kExpC6;
  p = p * r + kExpC5;
  p = p * r + kExpC4;
  p = p * r + kExpC3;
  p = p * r + kExpC2;
  p = p * r + 1.0f;
  p = p * r + 1.0f;
  // 2^n as 2^n1 * 2^n2, both normal: p * 2^n1 is exact, and the second product rounds
  // once, also where the result is denormal.
  const int32_t ni = std::bit_cast<int32_t>(t) - kRoundBits;
  const int32_t n1 = ni >> 1;
  const float s1 = std::bit_cast<float>((n1 + 127) << 23);
  const float s2 = std::bit_cast<float>((ni - n1 + 127) << 23);
  const float y = p * s1 * s2;
  return x != x ? x : y;
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

void CheckAttnBlock(int64_t nq) { CHECK(nq >= 1 && nq <= kAttnBlock) << "nq " << nq; }

// The canonical 16-lane reduction tree: lanes[l] = lanes[l] + lanes[l + w] for w = 8,
// 4, 2, 1; the result is lane 0.
float ReduceLanesScalar(float* lanes) {
  for (int w = 8; w >= 1; w /= 2) {
    for (int l = 0; l < w; ++l) {
      lanes[l] += lanes[l + w];
    }
  }
  return lanes[0];
}

float CanonicalDotScalar(const float* q, const float* k, int64_t d) {
  float lanes[16] = {};
  for (int64_t e = 0; e < d; ++e) {
    lanes[e % 16] += q[e] * k[e];
  }
  return ReduceLanesScalar(lanes);
}

void QkDotsScalar(const float* q, int64_t ldq, int64_t nq, const float* const* rows,
                  int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo) {
  CheckAttnBlock(nq);
  for (int64_t r = 0; r < nq; ++r) {
    for (int64_t j = 0; j < len; ++j) {
      out[r * ldo + j] = CanonicalDotScalar(q + r * ldq, rows[j] + offset, d);
    }
  }
}

void WeightedRowsScalar(const float* w, int64_t ldw, int64_t nq, const float* const* rows,
                        int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo) {
  CheckAttnBlock(nq);
  for (int64_t r = 0; r < nq; ++r) {
    float* out_r = out + r * ldo;
    for (int64_t j = 0; j < len; ++j) {
      const float wj = w[r * ldw + j];
      const float* row = rows[j] + offset;
      for (int64_t e = 0; e < d; ++e) {
        out_r[e] += wj * row[e];
      }
    }
  }
}

void ExpScalar(const float* x, int64_t n, float* out) {
  for (int64_t i = 0; i < n; ++i) {
    out[i] = ExpLane(x[i]);
  }
}

// The max is folded as maxps folds it (x > m ? x : m). For non-NaN input its value does
// not depend on the order (a ±0 tie only decides the sign of a zero, and neither
// x - (±0) nor exp(±0) depends on it), so the vector tiers fold lanes in any order.
void SoftmaxRowScalar(float* row, int64_t n) {
  if (n <= 0) {
    return;
  }
  float m = row[0];
  for (int64_t i = 1; i < n; ++i) {
    m = row[i] > m ? row[i] : m;
  }
  for (int64_t i = 0; i < n; ++i) {
    row[i] = ExpLane(row[i] - m);
  }
  float lanes[16] = {};
  for (int64_t i = 0; i < n; ++i) {
    lanes[i % 16] += row[i];
  }
  const float inv = 1.0f / ReduceLanesScalar(lanes);
  for (int64_t i = 0; i < n; ++i) {
    row[i] *= inv;
  }
}

void SiluScalar(float* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    x[i] = x[i] / (1.0f + ExpLane(-x[i]));
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

template <int NQ>
__attribute__((target("avx"))) void QkDotsAvxBlock(const float* q, int64_t ldq,
                                                   const float* const* rows, int64_t offset,
                                                   int64_t len, int64_t d, float* out,
                                                   int64_t ldo) {
  const int64_t full = d / 16 * 16;
  const int64_t tail = d - full;
  const __m256i lo_mask = AvxMask(std::min<int64_t>(tail, 8));
  const __m256i hi_mask = AvxMask(std::max<int64_t>(tail - 8, 0));
  for (int64_t j = 0; j < len; ++j) {
    const float* k = rows[j] + offset;
    __m256 lo[NQ], hi[NQ];
    for (int r = 0; r < NQ; ++r) {
      lo[r] = _mm256_setzero_ps();
      hi[r] = _mm256_setzero_ps();
    }
    for (int64_t e = 0; e < full; e += 16) {
      const __m256 k_lo = _mm256_loadu_ps(k + e);
      const __m256 k_hi = _mm256_loadu_ps(k + e + 8);
      for (int r = 0; r < NQ; ++r) {
        const float* qr = q + r * ldq + e;
        lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(_mm256_loadu_ps(qr), k_lo));
        hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(_mm256_loadu_ps(qr + 8), k_hi));
      }
    }
    if (tail > 0) {
      // Masked-off lanes add 0 * 0 = +0, which leaves an accumulator that started at
      // +0 unchanged — the same as skipping the term.
      const __m256 k_lo = _mm256_maskload_ps(k + full, lo_mask);
      const __m256 k_hi = _mm256_maskload_ps(k + full + 8, hi_mask);
      for (int r = 0; r < NQ; ++r) {
        const float* qr = q + r * ldq + full;
        lo[r] = _mm256_add_ps(lo[r], _mm256_mul_ps(_mm256_maskload_ps(qr, lo_mask), k_lo));
        hi[r] = _mm256_add_ps(hi[r], _mm256_mul_ps(_mm256_maskload_ps(qr + 8, hi_mask), k_hi));
      }
    }
    for (int r = 0; r < NQ; ++r) {
      out[r * ldo + j] = ReduceLanesAvx(lo[r], hi[r]);
    }
  }
}

template <int NQ>
__attribute__((target("avx"))) void WeightedRowsAvxBlock(const float* w, int64_t ldw,
                                                         const float* const* rows,
                                                         int64_t offset, int64_t len,
                                                         int64_t d, float* out, int64_t ldo) {
  // NV ymm accumulators per query (32 columns for a lone query, 16 for a block) stay in
  // registers across all rows.
  constexpr int NV = NQ == 1 ? 4 : 2;
  for (int64_t e0 = 0; e0 < d; e0 += 8 * NV) {
    __m256i mask[NV];
    __m256 acc[NQ][NV];
    for (int v = 0; v < NV; ++v) {
      mask[v] = AvxMask(std::clamp<int64_t>(d - e0 - 8 * v, 0, 8));
      for (int r = 0; r < NQ; ++r) {
        acc[r][v] = _mm256_maskload_ps(out + r * ldo + e0 + 8 * v, mask[v]);
      }
    }
    for (int64_t j = 0; j < len; ++j) {
      const float* row = rows[j] + offset + e0;
      __m256 vv[NV];
      for (int v = 0; v < NV; ++v) {
        vv[v] = _mm256_maskload_ps(row + 8 * v, mask[v]);
      }
      for (int r = 0; r < NQ; ++r) {
        const __m256 wj = _mm256_set1_ps(w[r * ldw + j]);
        for (int v = 0; v < NV; ++v) {
          acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(wj, vv[v]));
        }
      }
    }
    for (int v = 0; v < NV; ++v) {
      for (int r = 0; r < NQ; ++r) {
        _mm256_maskstore_ps(out + r * ldo + e0 + 8 * v, mask[v], acc[r][v]);
      }
    }
  }
}

// A qk_dots / weighted_rows body for a compile-time block of NQ query rows.
using AttnBlockFn = void (*)(const float*, int64_t, const float* const*, int64_t, int64_t,
                             int64_t, float*, int64_t);

constexpr AttnBlockFn kQkAvx[kAttnBlock] = {QkDotsAvxBlock<1>, QkDotsAvxBlock<2>,
                                          QkDotsAvxBlock<3>, QkDotsAvxBlock<4>};
constexpr AttnBlockFn kAvAvx[kAttnBlock] = {WeightedRowsAvxBlock<1>, WeightedRowsAvxBlock<2>,
                                          WeightedRowsAvxBlock<3>, WeightedRowsAvxBlock<4>};

void QkDotsAvx(const float* q, int64_t ldq, int64_t nq, const float* const* rows,
               int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo) {
  CheckAttnBlock(nq);
  Dispatch(kQkAvx, nq, q, ldq, rows, offset, len, d, out, ldo);
}

void WeightedRowsAvx(const float* w, int64_t ldw, int64_t nq, const float* const* rows,
                     int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo) {
  CheckAttnBlock(nq);
  Dispatch(kAvAvx, nq, w, ldw, rows, offset, len, d, out, ldo);
}

// CanonicalExp on 8 lanes. AVX1 has no 256-bit integer ops, so the 2^n scale is built
// on two 128-bit halves.
__attribute__((target("avx"))) inline __m256 ExpAvx(__m256 x) {
  __m256 xc = _mm256_max_ps(x, _mm256_set1_ps(kExpMin));
  xc = _mm256_min_ps(xc, _mm256_set1_ps(kExpMax));
  const __m256 t =
      _mm256_add_ps(_mm256_mul_ps(xc, _mm256_set1_ps(kLog2e)), _mm256_set1_ps(kRound));
  const __m256 n = _mm256_sub_ps(t, _mm256_set1_ps(kRound));
  __m256 r = _mm256_sub_ps(xc, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Hi)));
  r = _mm256_sub_ps(r, _mm256_mul_ps(n, _mm256_set1_ps(kLn2Lo)));
  __m256 p = _mm256_set1_ps(kExpC6);
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC5));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC4));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC3));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC2));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
  p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(1.0f));
  const __m256i ti = _mm256_castps_si256(t);
  __m128i s1[2], s2[2];
  for (int h = 0; h < 2; ++h) {
    const __m128i th = h == 0 ? _mm256_castsi256_si128(ti) : _mm256_extractf128_si256(ti, 1);
    const __m128i ni = _mm_sub_epi32(th, _mm_set1_epi32(kRoundBits));
    const __m128i n1 = _mm_srai_epi32(ni, 1);
    s1[h] = _mm_slli_epi32(_mm_add_epi32(n1, _mm_set1_epi32(127)), 23);
    s2[h] = _mm_slli_epi32(_mm_add_epi32(_mm_sub_epi32(ni, n1), _mm_set1_epi32(127)), 23);
  }
  const __m256 scale1 = _mm256_castsi256_ps(
      _mm256_insertf128_si256(_mm256_castsi128_si256(s1[0]), s1[1], 1));
  const __m256 scale2 = _mm256_castsi256_ps(
      _mm256_insertf128_si256(_mm256_castsi128_si256(s2[0]), s2[1], 1));
  const __m256 y = _mm256_mul_ps(_mm256_mul_ps(p, scale1), scale2);
  return _mm256_blendv_ps(y, x, _mm256_cmp_ps(x, x, _CMP_UNORD_Q));
}

// Vector kernels below never call the scalar tier for their tails: legacy-SSE code
// after dirty upper vector state stalls, so tails run as masked vectors instead.

__attribute__((target("avx"))) void ExpAvxRows(const float* x, int64_t n, float* out) {
  for (int64_t i = 0; i < n; i += 8) {
    const __m256i mask = AvxMask(std::min<int64_t>(n - i, 8));
    _mm256_maskstore_ps(out + i, mask, ExpAvx(_mm256_maskload_ps(x + i, mask)));
  }
}

// The largest of 8 lanes, in any order (see SoftmaxRowScalar).
__attribute__((target("avx"))) inline float MaxLanesAvx(__m256 v) {
  const __m128 m4 = _mm_max_ps(_mm256_castps256_ps128(v), _mm256_extractf128_ps(v, 1));
  const __m128 m2 = _mm_max_ps(m4, _mm_movehl_ps(m4, m4));
  return _mm_cvtss_f32(_mm_max_ss(m2, _mm_shuffle_ps(m2, m2, 1)));
}

__attribute__((target("avx"))) void SoftmaxRowAvx(float* row, int64_t n) {
  if (n <= 0) {
    return;
  }
  // Sixteen elements per step, lanes 0..7 in lo and 8..15 in hi: element i goes to lane
  // i % 16, as in the scalar sum. Masked-off lanes keep the max and add +0 to the sum.
  __m256 max_lo = _mm256_set1_ps(row[0]);
  __m256 max_hi = max_lo;
  for (int64_t i = 0; i < n; i += 16) {
    const __m256i mask_lo = AvxMask(std::clamp<int64_t>(n - i, 0, 8));
    const __m256i mask_hi = AvxMask(std::clamp<int64_t>(n - i - 8, 0, 8));
    max_lo = _mm256_blendv_ps(max_lo,
                              _mm256_max_ps(_mm256_maskload_ps(row + i, mask_lo), max_lo),
                              _mm256_castsi256_ps(mask_lo));
    max_hi = _mm256_blendv_ps(max_hi,
                              _mm256_max_ps(_mm256_maskload_ps(row + i + 8, mask_hi), max_hi),
                              _mm256_castsi256_ps(mask_hi));
  }
  const __m256 mv = _mm256_set1_ps(MaxLanesAvx(_mm256_max_ps(max_lo, max_hi)));
  __m256 sum_lo = _mm256_setzero_ps();
  __m256 sum_hi = _mm256_setzero_ps();
  for (int64_t i = 0; i < n; i += 16) {
    const __m256i mask_lo = AvxMask(std::clamp<int64_t>(n - i, 0, 8));
    const __m256i mask_hi = AvxMask(std::clamp<int64_t>(n - i - 8, 0, 8));
    const __m256 e_lo =
        _mm256_and_ps(ExpAvx(_mm256_sub_ps(_mm256_maskload_ps(row + i, mask_lo), mv)),
                      _mm256_castsi256_ps(mask_lo));
    const __m256 e_hi =
        _mm256_and_ps(ExpAvx(_mm256_sub_ps(_mm256_maskload_ps(row + i + 8, mask_hi), mv)),
                      _mm256_castsi256_ps(mask_hi));
    _mm256_maskstore_ps(row + i, mask_lo, e_lo);
    _mm256_maskstore_ps(row + i + 8, mask_hi, e_hi);
    sum_lo = _mm256_add_ps(sum_lo, e_lo);
    sum_hi = _mm256_add_ps(sum_hi, e_hi);
  }
  const __m256 inv = _mm256_set1_ps(1.0f / ReduceLanesAvx(sum_lo, sum_hi));
  for (int64_t i = 0; i < n; i += 8) {
    const __m256i mask = AvxMask(std::min<int64_t>(n - i, 8));
    _mm256_maskstore_ps(row + i, mask, _mm256_mul_ps(_mm256_maskload_ps(row + i, mask), inv));
  }
}

__attribute__((target("avx"))) void SiluAvx(float* x, int64_t n) {
  const __m256 sign = _mm256_set1_ps(-0.0f);
  const __m256 one = _mm256_set1_ps(1.0f);
  for (int64_t i = 0; i < n; i += 8) {
    const __m256i mask = AvxMask(std::min<int64_t>(n - i, 8));
    const __m256 v = _mm256_maskload_ps(x + i, mask);
    const __m256 e = ExpAvx(_mm256_xor_ps(v, sign));
    _mm256_maskstore_ps(x + i, mask, _mm256_div_ps(v, _mm256_add_ps(one, e)));
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

// The canonical reduction tree of four 16-lane accumulators at once; returns their four
// sums in lanes 0..3. Every add pairs the lanes the scalar tree pairs, so each sum is
// the one ReduceLanesAvx gives for that accumulator alone.
__attribute__((target("avx512f"))) inline __m128 ReduceLanes4Avx512(__m512 a, __m512 b,
                                                                    __m512 c, __m512 d) {
  // w = 8: 128-bit quarters {0, 1} plus {2, 3}, two accumulators per add.
  const __m512 ab =
      _mm512_add_ps(_mm512_shuffle_f32x4(a, b, 0x44), _mm512_shuffle_f32x4(a, b, 0xEE));
  const __m512 cd =
      _mm512_add_ps(_mm512_shuffle_f32x4(c, d, 0x44), _mm512_shuffle_f32x4(c, d, 0xEE));
  // w = 4: quarter 0 plus quarter 1 of each 8-lane sum, one accumulator per quarter.
  const __m512 s4 =
      _mm512_add_ps(_mm512_shuffle_f32x4(ab, cd, 0x88), _mm512_shuffle_f32x4(ab, cd, 0xDD));
  // w = 2, then w = 1, within each quarter.
  const __m512 s2 = _mm512_add_ps(s4, _mm512_shuffle_ps(s4, s4, _MM_SHUFFLE(3, 2, 3, 2)));
  const __m512 s1 = _mm512_add_ps(s2, _mm512_shuffle_ps(s2, s2, _MM_SHUFFLE(1, 1, 1, 1)));
  const __m512i first_lanes = _mm512_setr_epi32(0, 4, 8, 12, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0);
  return _mm512_castps512_ps128(_mm512_permutexvar_ps(first_lanes, s1));
}

__attribute__((target("avx512f"))) inline float ReduceLanesAvx512(__m512 acc) {
  return ReduceLanesAvx(_mm512_castps512_ps256(acc),
                        _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(acc), 1)));
}

template <int NQ>
__attribute__((target("avx512f"))) void QkDotsAvx512Block(const float* q, int64_t ldq,
                                                          const float* const* rows,
                                                          int64_t offset, int64_t len,
                                                          int64_t d, float* out, int64_t ldo) {
  // Masked-off lanes add 0 * 0 = +0 to an accumulator that started at +0: a no-op.
  int64_t j = 0;
  // Four keys at a time: NQ x 4 accumulators, and one four-way tree per query.
  for (; j + 4 <= len; j += 4) {
    __m512 acc[NQ][4];
    for (int r = 0; r < NQ; ++r) {
      for (int c = 0; c < 4; ++c) {
        acc[r][c] = _mm512_setzero_ps();
      }
    }
    for (int64_t e = 0; e < d; e += 16) {
      const __mmask16 mask = LaneMask16(d - e);
      __m512 kv[4];
      for (int c = 0; c < 4; ++c) {
        kv[c] = _mm512_maskz_loadu_ps(mask, rows[j + c] + offset + e);
      }
      for (int r = 0; r < NQ; ++r) {
        const __m512 qv = _mm512_maskz_loadu_ps(mask, q + r * ldq + e);
        for (int c = 0; c < 4; ++c) {
          acc[r][c] = _mm512_add_ps(acc[r][c], _mm512_mul_ps(qv, kv[c]));
        }
      }
    }
    for (int r = 0; r < NQ; ++r) {
      _mm_storeu_ps(out + r * ldo + j,
                    ReduceLanes4Avx512(acc[r][0], acc[r][1], acc[r][2], acc[r][3]));
    }
  }
  for (; j < len; ++j) {
    __m512 acc[NQ];
    for (int r = 0; r < NQ; ++r) {
      acc[r] = _mm512_setzero_ps();
    }
    for (int64_t e = 0; e < d; e += 16) {
      const __mmask16 mask = LaneMask16(d - e);
      const __m512 kv = _mm512_maskz_loadu_ps(mask, rows[j] + offset + e);
      for (int r = 0; r < NQ; ++r) {
        acc[r] = _mm512_add_ps(acc[r],
                               _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, q + r * ldq + e), kv));
      }
    }
    for (int r = 0; r < NQ; ++r) {
      out[r * ldo + j] = ReduceLanesAvx512(acc[r]);
    }
  }
}

template <int NQ>
__attribute__((target("avx512f"))) void WeightedRowsAvx512Block(const float* w, int64_t ldw,
                                                                const float* const* rows,
                                                                int64_t offset, int64_t len,
                                                                int64_t d, float* out,
                                                                int64_t ldo) {
  // Four zmm accumulators per query (64 columns, a whole head_dim-64 head) stay in
  // registers across all rows.
  for (int64_t e0 = 0; e0 < d; e0 += 64) {
    __mmask16 mask[4];
    __m512 acc[NQ][4];
    for (int v = 0; v < 4; ++v) {
      mask[v] = LaneMask16(d - e0 - 16 * v);
      for (int r = 0; r < NQ; ++r) {
        acc[r][v] = _mm512_maskz_loadu_ps(mask[v], out + r * ldo + e0 + 16 * v);
      }
    }
    for (int64_t j = 0; j < len; ++j) {
      const float* row = rows[j] + offset + e0;
      __m512 vv[4];
      for (int v = 0; v < 4; ++v) {
        vv[v] = _mm512_maskz_loadu_ps(mask[v], row + 16 * v);
      }
      for (int r = 0; r < NQ; ++r) {
        const __m512 wj = _mm512_set1_ps(w[r * ldw + j]);
        for (int v = 0; v < 4; ++v) {
          acc[r][v] = _mm512_add_ps(acc[r][v], _mm512_mul_ps(wj, vv[v]));
        }
      }
    }
    for (int v = 0; v < 4; ++v) {
      for (int r = 0; r < NQ; ++r) {
        _mm512_mask_storeu_ps(out + r * ldo + e0 + 16 * v, mask[v], acc[r][v]);
      }
    }
  }
}

constexpr AttnBlockFn kQkAvx512[kAttnBlock] = {QkDotsAvx512Block<1>, QkDotsAvx512Block<2>,
                                             QkDotsAvx512Block<3>, QkDotsAvx512Block<4>};
constexpr AttnBlockFn kAvAvx512[kAttnBlock] = {
    WeightedRowsAvx512Block<1>, WeightedRowsAvx512Block<2>, WeightedRowsAvx512Block<3>,
    WeightedRowsAvx512Block<4>};

void QkDotsAvx512(const float* q, int64_t ldq, int64_t nq, const float* const* rows,
                  int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo) {
  CheckAttnBlock(nq);
  Dispatch(kQkAvx512, nq, q, ldq, rows, offset, len, d, out, ldo);
}

void WeightedRowsAvx512(const float* w, int64_t ldw, int64_t nq, const float* const* rows,
                        int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo) {
  CheckAttnBlock(nq);
  Dispatch(kAvAvx512, nq, w, ldw, rows, offset, len, d, out, ldo);
}

// CanonicalExp on 16 lanes.
__attribute__((target("avx512f"))) inline __m512 ExpAvx512(__m512 x) {
  __m512 xc = _mm512_max_ps(x, _mm512_set1_ps(kExpMin));
  xc = _mm512_min_ps(xc, _mm512_set1_ps(kExpMax));
  const __m512 t =
      _mm512_add_ps(_mm512_mul_ps(xc, _mm512_set1_ps(kLog2e)), _mm512_set1_ps(kRound));
  const __m512 n = _mm512_sub_ps(t, _mm512_set1_ps(kRound));
  __m512 r = _mm512_sub_ps(xc, _mm512_mul_ps(n, _mm512_set1_ps(kLn2Hi)));
  r = _mm512_sub_ps(r, _mm512_mul_ps(n, _mm512_set1_ps(kLn2Lo)));
  __m512 p = _mm512_set1_ps(kExpC6);
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpC5));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpC4));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpC3));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(kExpC2));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(1.0f));
  p = _mm512_add_ps(_mm512_mul_ps(p, r), _mm512_set1_ps(1.0f));
  const __m512i ni = _mm512_sub_epi32(_mm512_castps_si512(t), _mm512_set1_epi32(kRoundBits));
  const __m512i n1 = _mm512_srai_epi32(ni, 1);
  const __m512i bias = _mm512_set1_epi32(127);
  const __m512 scale1 = _mm512_castsi512_ps(_mm512_slli_epi32(_mm512_add_epi32(n1, bias), 23));
  const __m512 scale2 = _mm512_castsi512_ps(
      _mm512_slli_epi32(_mm512_add_epi32(_mm512_sub_epi32(ni, n1), bias), 23));
  const __m512 y = _mm512_mul_ps(_mm512_mul_ps(p, scale1), scale2);
  return _mm512_mask_mov_ps(y, _mm512_cmp_ps_mask(x, x, _CMP_UNORD_Q), x);
}

__attribute__((target("avx512f"))) void ExpAvx512Rows(const float* x, int64_t n, float* out) {
  for (int64_t i = 0; i < n; i += 16) {
    const __mmask16 mask = LaneMask16(n - i);
    _mm512_mask_storeu_ps(out + i, mask, ExpAvx512(_mm512_maskz_loadu_ps(mask, x + i)));
  }
}

__attribute__((target("avx512f"))) void SoftmaxRowAvx512(float* row, int64_t n) {
  if (n <= 0) {
    return;
  }
  // Element i goes to lane i % 16, as in the scalar sum. Masked-off lanes keep the max
  // and add +0 to the sum.
  __m512 max_v = _mm512_set1_ps(row[0]);
  for (int64_t i = 0; i < n; i += 16) {
    const __mmask16 mask = LaneMask16(n - i);
    max_v = _mm512_mask_max_ps(max_v, mask, _mm512_maskz_loadu_ps(mask, row + i), max_v);
  }
  const __m512 mv = _mm512_set1_ps(_mm512_reduce_max_ps(max_v));
  __m512 sum = _mm512_setzero_ps();
  for (int64_t i = 0; i < n; i += 16) {
    const __mmask16 mask = LaneMask16(n - i);
    const __m512 e = _mm512_maskz_mov_ps(
        mask, ExpAvx512(_mm512_sub_ps(_mm512_maskz_loadu_ps(mask, row + i), mv)));
    _mm512_mask_storeu_ps(row + i, mask, e);
    sum = _mm512_add_ps(sum, e);
  }
  const __m512 inv = _mm512_set1_ps(1.0f / ReduceLanesAvx512(sum));
  for (int64_t i = 0; i < n; i += 16) {
    const __mmask16 mask = LaneMask16(n - i);
    _mm512_mask_storeu_ps(row + i, mask, _mm512_mul_ps(_mm512_maskz_loadu_ps(mask, row + i), inv));
  }
}

__attribute__((target("avx512f"))) void SiluAvx512(float* x, int64_t n) {
  const __m512i sign = _mm512_set1_epi32(static_cast<int32_t>(0x80000000u));
  const __m512 one = _mm512_set1_ps(1.0f);
  for (int64_t i = 0; i < n; i += 16) {
    const __mmask16 mask = LaneMask16(n - i);
    const __m512 v = _mm512_maskz_loadu_ps(mask, x + i);
    const __m512 e =
        ExpAvx512(_mm512_castsi512_ps(_mm512_xor_si512(_mm512_castps_si512(v), sign)));
    _mm512_mask_storeu_ps(x + i, mask, _mm512_div_ps(v, _mm512_add_ps(one, e)));
  }
}

#endif  // HCACHE_TENSOR_X86

// --------------------------------- dispatch -------------------------------------

constexpr TensorKernels kScalarKernels = {GemmBlockScalar,  QkDotsScalar, WeightedRowsScalar,
                                          ExpScalar,        SoftmaxRowScalar, SiluScalar};

#if HCACHE_TENSOR_X86
constexpr TensorKernels kAvxKernels = {GemmBlockAvx, QkDotsAvx,     WeightedRowsAvx,
                                       ExpAvxRows,   SoftmaxRowAvx, SiluAvx};
constexpr TensorKernels kAvx512Kernels = {GemmBlockAvx512, QkDotsAvx512,     WeightedRowsAvx512,
                                          ExpAvx512Rows,   SoftmaxRowAvx512, SiluAvx512};
#else
constexpr TensorKernels kAvxKernels = kScalarKernels;
constexpr TensorKernels kAvx512Kernels = kScalarKernels;
#endif

constexpr TensorKernels kKernelTables[kNumSimdTiers] = {kScalarKernels, kAvxKernels,
                                                        kAvxKernels, kAvx512Kernels};

}  // namespace

float CanonicalExp(float x) { return ExpLane(x); }

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
