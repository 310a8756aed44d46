// Dense matrix multiplication kernels.
//
// The transformer stores weight matrices as [out_features, in_features] (the layout
// used by Llama/OPT checkpoints), so the projection of activations X [m, in] is
// X * W^T — provided here as GemmNT, and as GemmPacked over a weight packed once into
// the kernels' panel layout. Plain GemmNN covers the remaining [k, n] operands.
//
// The drivers here do BLIS-style cache blocking and threading; the register-tiled
// inner loops are the hand-written, tier-dispatched kernels of kernels.h (scalar,
// AVX, AVX-512 — the repo builds for baseline x86-64, so without them GCC would emit
// SSE2 only). Determinism matters more than speed: every output element is reduced
// in one fixed order — k in kGemmKc blocks, ascending within a block — whatever the
// tier, the tile shape, the thread count or the number of rows in the batch, which
// the lossless-restoration tests rely on.
#ifndef HCACHE_SRC_TENSOR_GEMM_H_
#define HCACHE_SRC_TENSOR_GEMM_H_

#include <cstdint>
#include <cstdlib>
#include <memory>

#include "src/tensor/tensor.h"

namespace hcache {

// C[m,n] = A[m,k] * B[k,n]  (+ C when accumulate).
void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate = false);

// C[m,n] = A[m,k] * B[n,k]^T  (+ C when accumulate). B is row-major [n, k].
void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate = false);

// A weight W [n, k] (row-major, applied as X * W^T) packed once into the kernels'
// kGemmNr-column strips, each the full k deep. Projections against a fixed weight
// then skip GemmNT's per-call transposing copy — most of a 1-row (decode) GEMM's time.
class PackedWeights {
 public:
  PackedWeights() = default;
  explicit PackedWeights(const Tensor& w);  // w is [n, k]; an empty tensor packs empty

  int64_t rows() const { return n_; }  // n: output features
  int64_t cols() const { return k_; }  // k: input features
  // Bytes the panels occupy (n rounded up to whole strips, times k).
  int64_t bytes() const;
  const float* panels() const { return panels_.get(); }

 private:
  struct FreeDeleter {
    void operator()(float* p) const { std::free(p); }
  };
  int64_t n_ = 0;
  int64_t k_ = 0;
  std::unique_ptr<float, FreeDeleter> panels_;  // 64-byte aligned
};

// C[m,n] = A[m,k] * W^T (+ C when accumulate), n = w.rows(), k = w.cols().
// Bit-identical to GemmNT over the unpacked W.
void GemmPacked(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool accumulate = false);

// Tensor conveniences (shapes are checked).
Tensor MatMul(const Tensor& a, const Tensor& b);                      // [m,k]x[k,n]
Tensor MatMulTransposedB(const Tensor& x, const Tensor& w);           // [m,k]x[n,k]^T
Tensor MatMulPacked(const Tensor& x, const PackedWeights& w);         // [m,k]x[n,k]^T

// FLOP count of a GEMM under the paper's convention (one multiply-add = 2 FLOPs).
constexpr double GemmFlops(int64_t m, int64_t k, int64_t n) {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) * static_cast<double>(n);
}

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_GEMM_H_
