#include "src/model/transformer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <utility>

#include "src/common/thread_pool.h"
#include "src/tensor/gemm.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/rope.h"

namespace hcache {

Transformer::Transformer(const ModelWeights* weights) : weights_(weights) {
  CHECK(weights != nullptr);
  packed_.reserve(weights->layers.size());
  for (const LayerWeights& lw : weights->layers) {
    packed_.push_back({PackedWeights(lw.wq), PackedWeights(lw.wk), PackedWeights(lw.wv),
                       PackedWeights(lw.wo), PackedWeights(lw.w_gate), PackedWeights(lw.w_up),
                       PackedWeights(lw.w_down)});
  }
  lm_head_ = PackedWeights(weights->lm_head);
  if (weights->config.position == PositionKind::kRope) {
    rope_ = RopeTable(weights->config.max_position, weights->config.head_dim());
  }
}

Tensor Transformer::Embed(const std::vector<int32_t>& tokens, const int32_t* positions) const {
  const ModelConfig& cfg = config();
  const int64_t n = static_cast<int64_t>(tokens.size());
  Tensor h({n, cfg.hidden_dim});
  for (int64_t i = 0; i < n; ++i) {
    const int32_t tok = tokens[static_cast<size_t>(i)];
    CHECK_GE(tok, 0);
    CHECK_LT(tok, cfg.vocab_size);
    std::memcpy(h.row(i), weights_->embedding.row(tok),
                static_cast<size_t>(cfg.hidden_dim) * sizeof(float));
    if (cfg.position == PositionKind::kLearned) {
      CHECK_LT(positions[i], cfg.max_position);
      const float* pe = weights_->pos_embedding.row(positions[i]);
      float* row = h.row(i);
      for (int64_t d = 0; d < cfg.hidden_dim; ++d) {
        row[d] += pe[d];
      }
    }
  }
  return h;
}

void Transformer::Normalize(const Tensor& x, const Tensor& weight, const Tensor& bias,
                            Tensor* out) const {
  const ModelConfig& cfg = config();
  if (cfg.norm == NormKind::kRmsNorm) {
    RmsNorm(x, weight.data(), cfg.norm_eps, *out);
  } else {
    LayerNorm(x, weight.data(), bias.data(), cfg.norm_eps, *out);
  }
}

void Transformer::AddBiasRows(Tensor& t, const Tensor& bias) {
  if (bias.empty()) {
    return;
  }
  CHECK_EQ(t.dim(1), bias.numel());
  for (int64_t r = 0; r < t.dim(0); ++r) {
    float* row = t.row(r);
    for (int64_t c = 0; c < t.dim(1); ++c) {
      row[c] += bias.at(c);
    }
  }
}

void Transformer::ProjectKv(int64_t layer, const Tensor& normed, const int32_t* positions,
                            Tensor* k_out, Tensor* v_out) const {
  const ModelConfig& cfg = config();
  const LayerWeights& lw = weights_->layers[static_cast<size_t>(layer)];
  const PackedLayer& pw = packed_[static_cast<size_t>(layer)];
  *k_out = MatMulPacked(normed, pw.wk);
  *v_out = MatMulPacked(normed, pw.wv);
  AddBiasRows(*k_out, lw.bk);
  AddBiasRows(*v_out, lw.bv);
  if (cfg.position == PositionKind::kRope) {
    ApplyRope(*k_out, positions, cfg.num_kv_heads, rope_);
  }
}

float Transformer::AlibiSlope(int64_t head) const {
  // Standard ALiBi geometric slopes: m_h = 2^(-8*(h+1)/H).
  const double exponent = -8.0 * static_cast<double>(head + 1) /
                          static_cast<double>(config().num_heads);
  return static_cast<float>(std::pow(2.0, exponent));
}

Tensor Transformer::Attention(int64_t layer, const Tensor& q, const PagedKvSequence& seq,
                              const int32_t* positions, int64_t n) const {
  const ModelConfig& cfg = config();
  const int64_t head_dim = cfg.head_dim();
  const int64_t num_heads = cfg.num_heads;
  // GQA: query head h reads KV head h / group_size.
  const int64_t group = cfg.num_heads / cfg.num_kv_heads;
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  const bool alibi = cfg.position == PositionKind::kAlibi;

  Tensor out({n, cfg.hidden_dim});
  // Row pointers into the paged cache, resolved once for every token and head.
  const int64_t max_len = *std::max_element(positions, positions + n) + 1;
  std::vector<const float*> k_rows(static_cast<size_t>(max_len));
  std::vector<const float*> v_rows(static_cast<size_t>(max_len));
  for (int64_t j = 0; j < max_len; ++j) {
    k_rows[static_cast<size_t>(j)] = seq.KeyRow(layer, j);
    v_rows[static_cast<size_t>(j)] = seq.ValueRow(layer, j);
  }
  const TensorKernels& kern = ActiveTensorKernels();
  // Tokens go in blocks of kAttnBlock. Keys [0, shared) are visible to every query of a
  // block, so the block kernels load each of those K/V rows once for the whole block;
  // each query's causal tail [shared, causal_len) runs as a block of one. The QK dot and
  // the AV update run in the kernels' canonical orders (kernels.h), which a block does
  // not change and which the tail continues in ascending j, so every output is the
  // per-query, per-key result on every tier. Each (block, head) task reads shared K/V
  // and writes only its own slice of `out`, so the tasks parallelize freely and the
  // output is bit-identical at any thread count.
  const int64_t num_blocks = (n + kAttnBlock - 1) / kAttnBlock;
  const int64_t tasks = num_blocks * num_heads;
  const int64_t ld = cfg.hidden_dim;
  // A layer with less QK + AV work than kAttnInlineMacs (a decode step over a few
  // hundred keys: microseconds) runs inline, since waking the pool would cost more.
  constexpr int64_t kAttnInlineMacs = int64_t{1} << 17;
  const int64_t grain = n * num_heads * max_len * head_dim < kAttnInlineMacs ? tasks : 1;
  ParallelFor(0, tasks, grain, [&](int64_t t0, int64_t t1) {
    thread_local std::vector<float> scores;  // kAttnBlock rows of max_len, per thread
    scores.resize(static_cast<size_t>(kAttnBlock * max_len));
    for (int64_t t = t0; t < t1; ++t) {
      const int64_t i0 = (t / num_heads) * kAttnBlock;
      const int64_t h = t % num_heads;
      const int64_t nq = std::min(kAttnBlock, n - i0);
      int64_t shared = max_len;
      for (int64_t r = 0; r < nq; ++r) {
        shared = std::min<int64_t>(shared, positions[i0 + r] + 1);
      }
      const float* q_head = q.row(i0) + h * head_dim;
      float* out_head = out.row(i0) + h * head_dim;
      const int64_t kv_head_off = (h / group) * head_dim;
      kern.qk_dots(q_head, ld, nq, k_rows.data(), kv_head_off, shared, head_dim,
                   scores.data(), max_len);
      const float slope = alibi ? AlibiSlope(h) : 0.0f;
      for (int64_t r = 0; r < nq; ++r) {
        const int64_t causal_len = positions[i0 + r] + 1;  // absolute 0..pos inclusive
        float* s = scores.data() + r * max_len;
        kern.qk_dots(q_head + r * ld, ld, 1, k_rows.data() + shared, kv_head_off,
                     causal_len - shared, head_dim, s + shared, max_len);
        for (int64_t j = 0; j < causal_len; ++j) {
          s[j] *= scale;
          if (alibi) {
            // Linear distance penalty on the score; K stays position-free, which is why
            // ALiBi models restore with a bare projection.
            s[j] -= slope * static_cast<float>(positions[i0 + r] - static_cast<int32_t>(j));
          }
        }
        kern.softmax_row(s, causal_len);
      }
      kern.weighted_rows(scores.data(), max_len, nq, v_rows.data(), kv_head_off, shared,
                         head_dim, out_head, ld);
      for (int64_t r = 0; r < nq; ++r) {
        const int64_t causal_len = positions[i0 + r] + 1;
        kern.weighted_rows(scores.data() + r * max_len + shared, max_len, 1,
                           v_rows.data() + shared, kv_head_off, causal_len - shared, head_dim,
                           out_head + r * ld, ld);
      }
    }
  });
  return out;
}

Tensor Transformer::Ffn(int64_t layer, const Tensor& x) const {
  const ModelConfig& cfg = config();
  const LayerWeights& lw = weights_->layers[static_cast<size_t>(layer)];
  const PackedLayer& pw = packed_[static_cast<size_t>(layer)];
  if (cfg.activation == ActivationKind::kSwiGlu) {
    Tensor gate = MatMulPacked(x, pw.w_gate);
    Tensor up = MatMulPacked(x, pw.w_up);
    SiluInPlace(gate);
    MulInPlace(gate, up);
    return MatMulPacked(gate, pw.w_down);
  }
  Tensor mid = MatMulPacked(x, pw.w_up);
  AddBiasRows(mid, lw.b_up);
  if (cfg.activation == ActivationKind::kGelu) {
    GeluInPlace(mid);
  } else {
    ReluInPlace(mid);
  }
  Tensor out = MatMulPacked(mid, pw.w_down);
  AddBiasRows(out, lw.b_down);
  return out;
}

Tensor Transformer::Forward(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                            HiddenStateSink* sink) {
  Tensor h = ForwardPartial(tokens, seq, config().num_layers, sink);
  Tensor final_out({h.dim(0), config().hidden_dim});
  Normalize(h, weights_->final_norm_weight, weights_->final_norm_bias, &final_out);
  return final_out;
}

Tensor Transformer::ForwardPartial(const std::vector<int32_t>& tokens, PagedKvSequence* seq,
                                   int64_t num_layers, HiddenStateSink* sink) {
  const ModelConfig& cfg = config();
  const int64_t n = static_cast<int64_t>(tokens.size());
  CHECK_GT(n, 0);
  CHECK_GE(num_layers, 0);
  CHECK_LE(num_layers, cfg.num_layers);
  CHECK(seq->has_kv()) << "forward on a sequence with evicted KV; restore it first";
  const int64_t start = seq->num_tokens();
  CHECK(seq->EnsureCapacity(start + n)) << "KV pool exhausted";

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), static_cast<int32_t>(start));

  Tensor h = Embed(tokens, positions.data());
  Tensor normed({n, cfg.hidden_dim});
  for (int64_t layer = 0; layer < num_layers; ++layer) {
    const LayerWeights& lw = weights_->layers[static_cast<size_t>(layer)];
    const PackedLayer& pw = packed_[static_cast<size_t>(layer)];
    if (sink != nullptr) {
      sink->OnLayerInput(layer, h, positions.data(), n);
    }

    Normalize(h, lw.attn_norm_weight, lw.attn_norm_bias, &normed);
    Tensor q = MatMulPacked(normed, pw.wq);
    AddBiasRows(q, lw.bq);
    if (cfg.position == PositionKind::kRope) {
      ApplyRope(q, positions.data(), cfg.num_heads, rope_);
    }
    Tensor k, v;
    ProjectKv(layer, normed, positions.data(), &k, &v);
    seq->WriteKv(layer, start, k, v);
    if (layer == 0) {
      // Tokens become visible to attention once their layer-0 K/V exist; later layers
      // reuse the same committed range.
      seq->CommitTokens(n);
    }

    Tensor attn = Attention(layer, q, *seq, positions.data(), n);
    Tensor o = MatMulPacked(attn, pw.wo);
    AddBiasRows(o, lw.bo);
    AddInPlace(h, o);

    Normalize(h, lw.ffn_norm_weight, lw.ffn_norm_bias, &normed);
    Tensor f = Ffn(layer, normed);
    AddInPlace(h, f);
  }
  return h;
}

Tensor Transformer::Logits(const Tensor& hidden) const {
  return MatMulPacked(hidden, lm_head_);
}

std::vector<int32_t> Transformer::GreedyDecode(int32_t first_token, int64_t steps,
                                               PagedKvSequence* seq, HiddenStateSink* sink) {
  std::vector<int32_t> generated;
  generated.reserve(static_cast<size_t>(steps));
  int32_t token = first_token;
  for (int64_t s = 0; s < steps; ++s) {
    Tensor out = Forward({token}, seq, sink);
    Tensor logits = Logits(out);
    int32_t best = 0;
    float best_v = logits.at(0, 0);
    for (int64_t v = 1; v < logits.dim(1); ++v) {
      if (logits.at(0, v) > best_v) {
        best_v = logits.at(0, v);
        best = static_cast<int32_t>(v);
      }
    }
    generated.push_back(best);
    token = best;
  }
  return generated;
}

std::vector<int32_t> Transformer::SampleDecode(int32_t first_token, int64_t steps,
                                               double temperature, int64_t top_k, Rng& rng,
                                               PagedKvSequence* seq, HiddenStateSink* sink) {
  CHECK_GT(temperature, 0.0);
  const int64_t vocab = config().vocab_size;
  std::vector<int32_t> generated;
  generated.reserve(static_cast<size_t>(steps));
  std::vector<std::pair<float, int32_t>> ranked(static_cast<size_t>(vocab));
  int32_t token = first_token;
  for (int64_t s = 0; s < steps; ++s) {
    Tensor out = Forward({token}, seq, sink);
    Tensor logits = Logits(out);
    for (int64_t v = 0; v < vocab; ++v) {
      ranked[static_cast<size_t>(v)] = {logits.at(0, v), static_cast<int32_t>(v)};
    }
    int64_t pool = vocab;
    if (top_k > 0 && top_k < vocab) {
      std::partial_sort(ranked.begin(), ranked.begin() + top_k, ranked.end(),
                        [](const auto& a, const auto& b) { return a.first > b.first; });
      pool = top_k;
    }
    // Softmax over the candidate pool at the given temperature.
    float max_logit = ranked[0].first;
    for (int64_t v = 1; v < pool; ++v) {
      max_logit = std::max(max_logit, ranked[static_cast<size_t>(v)].first);
    }
    double total = 0.0;
    std::vector<double> probs(static_cast<size_t>(pool));
    for (int64_t v = 0; v < pool; ++v) {
      probs[static_cast<size_t>(v)] =
          std::exp((ranked[static_cast<size_t>(v)].first - max_logit) / temperature);
      total += probs[static_cast<size_t>(v)];
    }
    double u = rng.NextDouble() * total;
    int32_t pick = ranked[static_cast<size_t>(pool - 1)].second;
    for (int64_t v = 0; v < pool; ++v) {
      u -= probs[static_cast<size_t>(v)];
      if (u <= 0.0) {
        pick = ranked[static_cast<size_t>(v)].second;
        break;
      }
    }
    generated.push_back(pick);
    token = pick;
  }
  return generated;
}

void Transformer::RestoreLayerKv(int64_t layer, const Tensor& hidden, const int32_t* positions,
                                 Tensor* k_out, Tensor* v_out) const {
  const ModelConfig& cfg = config();
  CHECK_GE(layer, 0);
  CHECK_LT(layer, cfg.num_layers);
  CHECK_EQ(hidden.rank(), 2);
  CHECK_EQ(hidden.dim(1), cfg.hidden_dim);
  const LayerWeights& lw = weights_->layers[static_cast<size_t>(layer)];
  // The paper's K = W_k * H elides the (cheap, per-row) pre-norm; including it here is
  // required for exactness and is covered by the epsilon term of §3.2's cost analysis.
  Tensor normed({hidden.dim(0), cfg.hidden_dim});
  Normalize(hidden, lw.attn_norm_weight, lw.attn_norm_bias, &normed);
  ProjectKv(layer, normed, positions, k_out, v_out);
}

}  // namespace hcache
