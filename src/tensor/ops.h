// Elementwise / reduction kernels for the transformer forward pass.
//
// These cover both model families the paper evaluates:
//   * Llama2 uses RMSNorm + SwiGLU FFN,
//   * OPT uses LayerNorm + GELU(ReLU in some variants) FFN.
#ifndef HCACHE_SRC_TENSOR_OPS_H_
#define HCACHE_SRC_TENSOR_OPS_H_

#include <cstdint>

#include "src/tensor/tensor.h"

namespace hcache {

// In-place numerically-stable softmax over row[0, n): the active tier's softmax_row
// kernel (kernels.h), so the exp is CanonicalExp and the sum runs in the canonical
// 16-lane order — the same bits on every tier.
void SoftmaxRow(float* row, int64_t n);

// Softmax over the last dimension of a rank-2 tensor, row by row.
void SoftmaxLastDim(Tensor& t);

// out[i] = x[i] * rsqrt(mean(x^2) + eps) * weight[i], per row of x [tokens, dim].
void RmsNorm(const Tensor& x, const float* weight, float eps, Tensor& out);

// Classic LayerNorm with learned scale+bias, per row of x [tokens, dim].
void LayerNorm(const Tensor& x, const float* weight, const float* bias, float eps,
               Tensor& out);

// SiLU (x * sigmoid(x) = x / (1 + exp(-x))), in place: the active tier's silu kernel
// (kernels.h) over element ranges, with CanonicalExp, so every tier gives the same bits.
void SiluInPlace(Tensor& t);

// Tanh-approximated GELU, in place. Stays on std::tanh, outside the kernel tables: the
// OPT- and ALiBi-family models run it, but the Llama-family (SwiGLU) path the serving
// benchmark times does not, and a vector tanh would need its own canonical form.
void GeluInPlace(Tensor& t);

// ReLU, in place.
void ReluInPlace(Tensor& t);

// out[i] += a[i].
void AddInPlace(Tensor& out, const Tensor& a);

// out[i] *= a[i] (used by SwiGLU's gate).
void MulInPlace(Tensor& out, const Tensor& a);

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_OPS_H_
