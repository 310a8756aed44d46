// Hand-written, tier-dispatched compute kernels of the functional plane: the GEMM
// block kernel every projection runs through, attention's query-blocked QK dots and AV
// update, the softmax row and SiLU, and the canonical vector exp the last two share.
//
// Each SimdTier (src/common/simd.h, the tier the codec reads too) has one table:
//
//   kScalar      — the reference loops (4x16 register tile, one strip per row kernel).
//   kF16c/kAvx2  — 256-bit AVX float math: a 6x16 tile, a 1x64 row kernel.
//   kAvx512      — 512-bit: an 8x32 tile, a 1x128 row kernel.
//
// Every tier is bit-identical to scalar (pinned by tests/tensor/kernel_matrix_test.cc).
// That holds because each output element is reduced in one fixed order that does not
// depend on the tile shape, the vector width, the query block or the batch size, and
// because the kernels multiply and add separately, never with FMA: kernels.cc turns
// floating-point contraction off for its whole translation unit, so no compiler flag
// can fuse them. No kernel calls libm: exp is the one CanonicalExp below on every tier.
#ifndef HCACHE_SRC_TENSOR_KERNELS_H_
#define HCACHE_SRC_TENSOR_KERNELS_H_

#include <cstdint>

#include "src/common/simd.h"

namespace hcache {

// GEMM cache blocking, shared by the driver (gemm.cc), the packed weight layout and
// the kernels. op(B) is consumed in kGemmNr-column strips: strip s holds columns
// [s*kGemmNr, (s+1)*kGemmNr), row p of the strip at offset p*kGemmNr, columns past
// the matrix edge zero-filled. The driver walks k in kGemmKc blocks, columns in
// kGemmNc blocks and rows in kGemmMc blocks.
inline constexpr int64_t kGemmMc = 64;
inline constexpr int64_t kGemmKc = 256;
inline constexpr int64_t kGemmNc = 256;
inline constexpr int64_t kGemmNr = 16;

// Query rows per attention block: qk_dots and weighted_rows take up to this many query
// rows of one head.
inline constexpr int64_t kAttnBlock = 4;

// The canonical exp every tier computes, bit for bit (the scalar reference; kernels.cc
// holds the vector twins). Range reduction x = n ln2 + r with |r| <= ln2/2 (n rounded
// to nearest even, ln2 split in a hi/lo pair), a degree-6 polynomial in r evaluated by
// Horner's rule with separate multiply and add, then a scale by 2^n in two exact halves
// so denormal results round once. Within 2 ulp of std::exp on [-87, 0]; x <= -104
// (and -inf) gives +0, x >= 89 (and +inf) gives +inf, NaN is returned unchanged.
float CanonicalExp(float x);

struct TensorKernels {
  // One kc-deep block of C[m, n] = A * op(B). A is row-major with leading dimension
  // lda; op(B) is ceil(n / kGemmNr) strips, strip s starting at b + s * strip_stride.
  // Per element: acc = 0; acc = acc + a[i][p] * b[p][j] for p = 0, 1, ..., kc-1; then
  // C = acc when `assign`, else C = C + acc. A lone row (m == 1, the decode shape)
  // runs a dedicated row kernel over wide strip groups, since it has no A reuse.
  void (*gemm_block)(const float* a, int64_t lda, const float* b, int64_t strip_stride,
                     int64_t kc, float* c, int64_t ldc, int64_t m, int64_t n, bool assign);
  // Attention's QK dots for a block of nq query rows (1 <= nq <= kAttnBlock) of one
  // head, query r at q + r * ldq:
  //   out[r * ldo + j] = CanonicalDot(q + r * ldq, rows[j] + offset, d), j in [0, len),
  // where the canonical dot is: 16 lanes, lane l summing q[e] * k[e] over e = l, l+16,
  // l+32, ... in ascending order from +0; then lanes[l] = lanes[l] + lanes[l + w] for
  // w = 8, 4, 2, 1; the result is lane 0. The vector tiers load each K row once for
  // the whole block; every dot is the one an nq == 1 call computes.
  void (*qk_dots)(const float* q, int64_t ldq, int64_t nq, const float* const* rows,
                  int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo);
  // The AV update for a block of nq query rows (1 <= nq <= kAttnBlock):
  //   out[r * ldo + e] = out[r * ldo + e] + w[r * ldw + j] * rows[j][offset + e]
  // for j = 0, 1, ..., len-1 in that order, for every e in [0, d). The vector tiers load
  // each V row once for the whole block; every output is the one an nq == 1 call
  // computes, and a call over [0, a) followed by one over [a, len) equals one call over
  // [0, len).
  void (*weighted_rows)(const float* w, int64_t ldw, int64_t nq, const float* const* rows,
                        int64_t offset, int64_t len, int64_t d, float* out, int64_t ldo);
  // out[i] = CanonicalExp(x[i]) for i in [0, n): the vector exp softmax_row and silu
  // run, exposed so every tier's exp can be checked against the scalar one directly.
  void (*exp)(const float* x, int64_t n, float* out);
  // In-place softmax of row[0, n): m = the row's max; row[i] = CanonicalExp(row[i] - m);
  // sum = the canonical 16-lane sum of the row[i] (lane l adds i = l, l+16, ... in
  // ascending order, then the 8/4/2/1 tree); row[i] = row[i] * (1 / sum).
  void (*softmax_row)(float* row, int64_t n);
  // In-place SiLU: x[i] = x[i] / (1 + CanonicalExp(-x[i])) for i in [0, n).
  void (*silu)(float* x, int64_t n);
};

// The table for one specific tier. CHECK-fails if `tier` exceeds DetectedSimdTier().
const TensorKernels& TensorKernelsFor(SimdTier tier);

// The table the functional plane dispatches through (TensorKernelsFor(ActiveSimdTier())).
const TensorKernels& ActiveTensorKernels();

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_KERNELS_H_
