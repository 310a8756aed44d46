// Hand-written, tier-dispatched compute kernels of the functional plane: the GEMM
// block kernel every projection runs through, and attention's QK dot and AV update.
//
// Each SimdTier (src/common/simd.h, the tier the codec reads too) has one table:
//
//   kScalar      — the reference loops (4x16 register tile, one strip per row kernel).
//   kF16c/kAvx2  — 256-bit AVX float math: a 6x16 tile, a 1x64 row kernel.
//   kAvx512      — 512-bit: an 8x32 tile, a 1x128 row kernel.
//
// Every tier is bit-identical to scalar (pinned by tests/tensor/kernel_matrix_test.cc).
// That holds because each output element is reduced in one fixed order that does not
// depend on the tile shape, the vector width or the batch size, and because the
// kernels multiply and add separately, never with FMA: kernels.cc turns floating-point
// contraction off for its whole translation unit, so no compiler flag can fuse them.
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

struct TensorKernels {
  // One kc-deep block of C[m, n] = A * op(B). A is row-major with leading dimension
  // lda; op(B) is ceil(n / kGemmNr) strips, strip s starting at b + s * strip_stride.
  // Per element: acc = 0; acc = acc + a[i][p] * b[p][j] for p = 0, 1, ..., kc-1; then
  // C = acc when `assign`, else C = C + acc. A lone row (m == 1, the decode shape)
  // runs a dedicated row kernel over wide strip groups, since it has no A reuse.
  void (*gemm_block)(const float* a, int64_t lda, const float* b, int64_t strip_stride,
                     int64_t kc, float* c, int64_t ldc, int64_t m, int64_t n, bool assign);
  // out[j] = CanonicalDot(q, rows[j] + offset, d) for j in [0, len), where the
  // canonical dot is: 16 lanes, lane l summing q[e] * k[e] over e = l, l+16, l+32, ...
  // in ascending order from +0; then lanes[l] = lanes[l] + lanes[l + w] for w = 8, 4,
  // 2, 1; the result is lane 0.
  void (*qk_dots)(const float* q, const float* const* rows, int64_t offset, int64_t len,
                  int64_t d, float* out);
  // out[e] = out[e] + w[j] * rows[j][offset + e] for j = 0, 1, ..., len-1 in that
  // order, for every e in [0, d).
  void (*weighted_rows)(const float* w, const float* const* rows, int64_t offset,
                        int64_t len, int64_t d, float* out);
};

// The table for one specific tier. CHECK-fails if `tier` exceeds DetectedSimdTier().
const TensorKernels& TensorKernelsFor(SimdTier tier);

// The table the functional plane dispatches through (TensorKernelsFor(ActiveSimdTier())).
const TensorKernels& ActiveTensorKernels();

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_KERNELS_H_
