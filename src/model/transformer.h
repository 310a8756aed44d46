// A real (CPU, FP32) decoder-only transformer forward pass over the paged KV cache,
// with the hidden-state capture hook HCache needs.
//
// This is the functional plane of the reproduction: everything the paper claims about
// restoring KV from hidden states is checked against this implementation bit-for-bit.
// Determinism contract: all kernels accumulate in a fixed, batch-size-independent order
// per output row, so computing K/V for a token during prefill and recomputing it later
// from the saved layer input produces *identical* floats. The order is also independent
// of the SIMD tier (src/common/simd.h): the GEMM, attention, softmax and SiLU kernels of
// every tier are bit-identical to the scalar reference, so a forward pass on one tier
// and a restore on another agree too (tests/tensor/kernel_matrix_test.cc). Each GEMM
// step is one fused multiply-add on every tier (one rounding, which IEEE-754 fixes);
// everything else, the row ops and RoPE included, multiplies and adds separately and
// compiles with contraction off, whatever the build flags. Attention
// runs queries in blocks of kAttnBlock that share each K/V row load, and the block
// changes no query's bits; softmax and SiLU exponentiate with the one CanonicalExp
// (src/tensor/kernels.h), never libm, and RoPE reads one angle table built per model.
//
// Structure (pre-norm, as in Llama2 and OPT):
//   h_L  --(capture: this is HCache's hidden state for layer L)-->
//   x   = Norm1(h_L)
//   q,k,v = x W{q,k,v}^T (+bias)     k,q get RoPE for Llama-family models
//   KV  -> paged cache
//   h   = h_L + (MHA(q, KV) W_o^T)
//   h_{L+1} = h + FFN(Norm2(h))
#ifndef HCACHE_SRC_MODEL_TRANSFORMER_H_
#define HCACHE_SRC_MODEL_TRANSFORMER_H_

#include <cstdint>
#include <vector>

#include "src/common/rng.h"
#include "src/model/kv_cache.h"
#include "src/model/weights.h"
#include "src/tensor/gemm.h"
#include "src/tensor/rope.h"
#include "src/tensor/tensor.h"

namespace hcache {

// Receives each layer's input activations during a forward pass. HCache's saving path
// implements this to snapshot hidden states; passing nullptr disables capture.
class HiddenStateSink {
 public:
  virtual ~HiddenStateSink() = default;

  // `hidden` is [n, hidden_dim]: the input to `layer` for the n tokens whose absolute
  // positions are positions[0..n). Called once per layer per forward pass, in layer
  // order — the "layer-before-token" generation order of Fig 6a.
  virtual void OnLayerInput(int64_t layer, const Tensor& hidden, const int32_t* positions,
                            int64_t n) = 0;
};

class Transformer {
 public:
  // `weights` must outlive the transformer and stay unchanged: its projection matrices
  // are packed here, once, into the GEMM kernels' panel layout.
  explicit Transformer(const ModelWeights* weights);

  const ModelConfig& config() const { return weights_->config; }

  // Runs the forward pass for `tokens` appended at positions
  // [seq->num_tokens(), seq->num_tokens() + tokens.size()). Writes K/V into `seq`
  // (capacity is allocated here; CHECK-fails if the pool is exhausted — serving-level
  // admission control is responsible for not letting that happen) and commits the
  // tokens. Returns the final-norm output activations [n, hidden_dim].
  //
  // Works for both phases: prefill (n > 1) and decode (n == 1). The sequence's existing
  // KV must be present (seq->has_kv()); restore first if it was evicted.
  Tensor Forward(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                 HiddenStateSink* sink = nullptr);

  // Runs only the first `num_layers` transformer layers, writing their K/V, and
  // returns the *un-normalized* input activations to layer `num_layers`. Tokens are
  // committed once layer 0 has run, so `num_layers == 0` commits nothing and returns
  // the embedding. Under the token-recomputation complement (§4.1.2: "the first L_O
  // layers are restored with token recomputation") the restore engine runs
  // ForwardPartial(tokens, seq, L_O - 1) and then RestoreLayerKv(L_O - 1, ...) on its
  // result: layer L_O - 1's output is never used, so only its K/V are computed.
  Tensor ForwardPartial(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                        int64_t num_layers, HiddenStateSink* sink = nullptr);

  // Projects final activations to vocabulary logits; `hidden` is [n, hidden_dim].
  Tensor Logits(const Tensor& hidden) const;

  // Greedy-decodes `steps` tokens starting from the sequence's current state; the
  // caller provides the first input token. Returns the generated token ids. Used by
  // tests to prove generation after restoration matches generation without eviction.
  std::vector<int32_t> GreedyDecode(int32_t first_token, int64_t steps, PagedKvSequence* seq,
                                    HiddenStateSink* sink = nullptr);

  // Stochastic decoding with temperature + top-k, driven by the caller's seeded RNG.
  // Deterministic for a given (rng state, KV state): bit-identical restored KV plus an
  // equal seed reproduce the exact same sampled text — the user-visible form of the
  // lossless-restoration guarantee. `top_k == 0` disables the top-k filter.
  std::vector<int32_t> SampleDecode(int32_t first_token, int64_t steps, double temperature,
                                    int64_t top_k, Rng& rng, PagedKvSequence* seq,
                                    HiddenStateSink* sink = nullptr);

  // === The HCache restoration primitive (paper §3.1) ===
  // Computes layer `layer`'s K/V for tokens with the given `positions` from that
  // layer's saved input `hidden` [n, hidden_dim], applying exactly the operations the
  // forward pass applies (pre-norm, projection, bias, RoPE with original positions).
  // Outputs are [n, kv_dim]. Bit-identical to what Forward wrote for those tokens.
  void RestoreLayerKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                      Tensor* k_out, Tensor* v_out) const;

 private:
  Tensor Embed(const std::vector<int32_t>& tokens, const int32_t* positions) const;
  void Normalize(const Tensor& x, const Tensor& weight, const Tensor& bias, Tensor* out) const;
  // Projects normed activations to K/V (+bias, +RoPE). Shared verbatim by the forward
  // pass and RestoreLayerKv — sharing the code path is what makes restoration lossless.
  void ProjectKv(int64_t layer, const Tensor& normed, const int32_t* positions,
                 Tensor* k_out, Tensor* v_out) const;
  float AlibiSlope(int64_t head) const;
  Tensor Attention(int64_t layer, const Tensor& q, const PagedKvSequence& seq,
                   const int32_t* positions, int64_t n) const;
  Tensor Ffn(int64_t layer, const Tensor& x) const;
  static void AddBiasRows(Tensor& t, const Tensor& bias);

  // One layer's projections in panel form (w_gate stays empty for non-SwiGLU models).
  struct PackedLayer {
    PackedWeights wq, wk, wv, wo, w_gate, w_up, w_down;
  };

  const ModelWeights* weights_;
  std::vector<PackedLayer> packed_;
  PackedWeights lm_head_;
  // RoPE angles of every position below max_position (empty for non-RoPE models):
  // built once here, read by every thread that rotates Q or K.
  RopeTable rope_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_MODEL_TRANSFORMER_H_
