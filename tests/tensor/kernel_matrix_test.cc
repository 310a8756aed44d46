// Bit-exactness matrix for the tier-dispatched compute kernels (kernels.h): every GEMM
// entry point, attention's query-blocked QK dots and AV update, the canonical exp, the
// softmax row, SiLU, and a whole forward pass followed by RestoreLayerKv must produce
// floats identical to the scalar tier on every ISA path the machine can execute —
// across shapes that straddle the register tiles, the kGemmNr strip, the kGemmKc/kGemmNc
// blocks, the 16-lane vectors and the query block. This is what keeps restored KV
// bit-identical when the saving and the restoring replica run different tiers.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <vector>

#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/model/kv_cache.h"
#include "src/model/transformer.h"
#include "src/tensor/gemm.h"
#include "src/tensor/kernels.h"

namespace hcache {
namespace {

// Every tier this machine can actually execute (always includes kScalar).
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

// Restores the pre-test active tier even when an assertion fails mid-loop.
class KernelMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_tier_ = ActiveSimdTier(); }
  void TearDown() override { ForceSimdTier(entry_tier_); }

 private:
  SimdTier entry_tier_ = SimdTier::kScalar;
};

Tensor RandomMatrix(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t({r, c});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

bool BitEqual(const float* a, const float* b, int64_t n) {
  return std::memcmp(a, b, static_cast<size_t>(n) * sizeof(float)) == 0;
}

const int64_t kMs[] = {1, 2, 3, 4, 5, 14, 63, 64, 65, 220};
const int64_t kKs[] = {1, 255, 256, 257, 512};
// Around the 16-column strip and the 256-column block.
const int64_t kNs[] = {1, 15, 16, 17, 47, 255, 256, 257};

// The three GEMM entry points on one shape, under the active tier; `base` seeds C so
// the accumulate path is covered too.
std::vector<Tensor> AllGemms(const Tensor& a, const Tensor& b_kn, const Tensor& w_nk,
                             const PackedWeights& packed, const Tensor& base) {
  const int64_t m = a.dim(0), k = a.dim(1), n = w_nk.dim(0);
  Tensor nn({m, n}), nt({m, n}), pk = base.Clone();
  GemmNN(a.data(), b_kn.data(), nn.data(), m, k, n);
  GemmNT(a.data(), w_nk.data(), nt.data(), m, k, n);
  GemmPacked(a.data(), packed, pk.data(), m, /*accumulate=*/true);
  std::vector<Tensor> out;
  out.push_back(std::move(nn));
  out.push_back(std::move(nt));
  out.push_back(std::move(pk));
  return out;
}

TEST_F(KernelMatrixTest, GemmTiersMatchScalar) {
  const char* const kNames[] = {"GemmNN", "GemmNT", "GemmPacked(accumulate)"};
  uint64_t seed = 1;
  for (const int64_t k : kKs) {
    for (const int64_t n : kNs) {
      const Tensor w = RandomMatrix(n, k, seed++);  // [n, k]
      const Tensor b = RandomMatrix(k, n, seed++);  // [k, n]
      const PackedWeights packed(w);
      for (const int64_t m : kMs) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        const Tensor a = RandomMatrix(m, k, seed++);
        const Tensor base = RandomMatrix(m, n, seed++);
        ForceSimdTier(SimdTier::kScalar);
        const std::vector<Tensor> want = AllGemms(a, b, w, packed, base);
        for (const SimdTier tier : RunnableTiers()) {
          ASSERT_EQ(tier, ForceSimdTier(tier));
          const std::vector<Tensor> got = AllGemms(a, b, w, packed, base);
          for (size_t g = 0; g < got.size(); ++g) {
            ASSERT_TRUE(Tensor::BitwiseEqual(want[g], got[g]))
                << SimdTierName(tier) << " " << kNames[g];
          }
        }
      }
    }
  }
}

TEST_F(KernelMatrixTest, PackedMatchesGemmNT) {
  // Packing once is a layout change only: the same floats as the per-call path.
  const Tensor w = RandomMatrix(257, 513, 40);
  const PackedWeights packed(w);
  EXPECT_EQ(packed.rows(), 257);
  EXPECT_EQ(packed.cols(), 513);
  EXPECT_EQ(packed.bytes(), 272 * 513 * static_cast<int64_t>(sizeof(float)));
  for (const int64_t m : {1, 9, 70}) {
    const Tensor x = RandomMatrix(m, 513, 41 + static_cast<uint64_t>(m));
    EXPECT_TRUE(Tensor::BitwiseEqual(MatMulTransposedB(x, w), MatMulPacked(x, packed)))
        << "m=" << m;
  }
}

TEST_F(KernelMatrixTest, RowsIndependentOfBatchOnEveryTier) {
  // A 1-row GEMM takes the dedicated row kernel, a batch the register tiles; the row
  // must come out the same either way, on every tier.
  const Tensor w = RandomMatrix(45, 300, 50);
  const PackedWeights packed(w);
  const Tensor big = RandomMatrix(70, 300, 51);
  for (const SimdTier tier : RunnableTiers()) {
    ASSERT_EQ(tier, ForceSimdTier(tier));
    const Tensor full_nt = MatMulTransposedB(big, w);
    const Tensor full_pk = MatMulPacked(big, packed);
    for (const int64_t r : {0, 5, 63, 64, 69}) {
      Tensor one({1, 300});
      std::memcpy(one.data(), big.row(r), 300 * sizeof(float));
      const Tensor single_nt = MatMulTransposedB(one, w);
      const Tensor single_pk = MatMulPacked(one, packed);
      EXPECT_TRUE(BitEqual(full_nt.row(r), single_nt.data(), 45))
          << SimdTierName(tier) << " GemmNT row " << r;
      EXPECT_TRUE(BitEqual(full_pk.row(r), single_pk.data(), 45))
          << SimdTierName(tier) << " GemmPacked row " << r;
    }
  }
}

const int64_t kHeadDims[] = {1, 7, 15, 16, 17, 24, 33, 64, 72, 100, 130};

TEST_F(KernelMatrixTest, AttentionKernelsMatchScalar) {
  const TensorKernels& ref = TensorKernelsFor(SimdTier::kScalar);
  constexpr int64_t kLen = 37;
  for (const int64_t d : kHeadDims) {
    // Rows with a per-head offset into a wider row, as the paged cache hands them out.
    const int64_t offset = 3;
    const Tensor k = RandomMatrix(kLen, d + offset, 60 + static_cast<uint64_t>(d));
    const Tensor q = RandomMatrix(1, d, 61 + static_cast<uint64_t>(d));
    const Tensor w = RandomMatrix(1, kLen, 62 + static_cast<uint64_t>(d));
    const Tensor out0 = RandomMatrix(1, d, 63 + static_cast<uint64_t>(d));
    std::vector<const float*> rows(kLen);
    for (int64_t j = 0; j < kLen; ++j) {
      rows[static_cast<size_t>(j)] = k.row(j);
    }
    std::vector<float> want_dots(kLen), got_dots(kLen);
    ref.qk_dots(q.data(), d, 1, rows.data(), offset, kLen, d, want_dots.data(), kLen);
    Tensor want_out = out0.Clone();
    ref.weighted_rows(w.data(), kLen, 1, rows.data(), offset, kLen, d, want_out.data(), d);

    // The scalar tier is the documented canonical order, spelled out.
    for (int64_t j = 0; j < kLen; ++j) {
      float lanes[16] = {};
      for (int64_t e = 0; e < d; ++e) {
        lanes[e % 16] = lanes[e % 16] + q.at(e) * k.at(j, offset + e);
      }
      for (int width = 8; width >= 1; width /= 2) {
        for (int l = 0; l < width; ++l) {
          lanes[l] = lanes[l] + lanes[l + width];
        }
      }
      ASSERT_TRUE(BitEqual(&lanes[0], &want_dots[static_cast<size_t>(j)], 1))
          << "d=" << d << " j=" << j;
    }

    for (const SimdTier tier : RunnableTiers()) {
      const TensorKernels& kern = TensorKernelsFor(tier);
      kern.qk_dots(q.data(), d, 1, rows.data(), offset, kLen, d, got_dots.data(), kLen);
      EXPECT_TRUE(BitEqual(want_dots.data(), got_dots.data(), kLen))
          << SimdTierName(tier) << " qk_dots d=" << d;
      Tensor got_out = out0.Clone();
      kern.weighted_rows(w.data(), kLen, 1, rows.data(), offset, kLen, d, got_out.data(), d);
      EXPECT_TRUE(Tensor::BitwiseEqual(want_out, got_out))
          << SimdTierName(tier) << " weighted_rows d=" << d;
    }
  }
}

TEST_F(KernelMatrixTest, BlockedAttentionMatchesSingleQuery) {
  // A block of nq queries over the keys they all see, then each query's causal tail as
  // a block of one — the way Transformer::Attention calls the kernels — must give every
  // query the dots and the AV output that one nq == 1 call over its whole causal range
  // gives, on every tier, and the scalar tier's bits.
  constexpr int64_t kMaxLen = 45;
  const int64_t offset = 5;
  for (const int64_t d : kHeadDims) {
    const int64_t width = d + offset + 2;  // query / output rows sit in wider rows
    const Tensor k = RandomMatrix(kMaxLen, width, 70 + static_cast<uint64_t>(d));
    const Tensor v = RandomMatrix(kMaxLen, width, 71 + static_cast<uint64_t>(d));
    const Tensor q = RandomMatrix(kAttnBlock, width, 72 + static_cast<uint64_t>(d));
    const Tensor w = RandomMatrix(kAttnBlock, kMaxLen, 73 + static_cast<uint64_t>(d));
    const Tensor out0 = RandomMatrix(kAttnBlock, width, 74 + static_cast<uint64_t>(d));
    std::vector<const float*> k_rows(kMaxLen), v_rows(kMaxLen);
    for (int64_t j = 0; j < kMaxLen; ++j) {
      k_rows[static_cast<size_t>(j)] = k.row(j);
      v_rows[static_cast<size_t>(j)] = v.row(j);
    }
    for (int64_t nq = 1; nq <= kAttnBlock; ++nq) {
      // Staggered causal lengths: query r sees shared + r * 3 keys (shared from 0 up).
      for (const int64_t shared : {0, 1, 3, 4, 5, 17, 32}) {
        SCOPED_TRACE(testing::Message() << "d=" << d << " nq=" << nq << " shared=" << shared);
        std::vector<int64_t> lens(static_cast<size_t>(nq));
        for (int64_t r = 0; r < nq; ++r) {
          lens[static_cast<size_t>(r)] = shared + r * 3;
        }
        std::vector<float> want_dots(static_cast<size_t>(kAttnBlock * kMaxLen), -1.0f);
        Tensor want_out = out0.Clone();
        const TensorKernels& ref = TensorKernelsFor(SimdTier::kScalar);
        for (int64_t r = 0; r < nq; ++r) {
          const int64_t len = lens[static_cast<size_t>(r)];
          ref.qk_dots(q.row(r) + 2, width, 1, k_rows.data(), offset, len, d,
                      want_dots.data() + r * kMaxLen, kMaxLen);
          ref.weighted_rows(w.row(r), kMaxLen, 1, v_rows.data(), offset, len, d,
                            want_out.row(r) + 1, width);
        }
        for (const SimdTier tier : RunnableTiers()) {
          const TensorKernels& kern = TensorKernelsFor(tier);
          for (const bool blocked : {false, true}) {
            std::vector<float> dots(static_cast<size_t>(kAttnBlock * kMaxLen), -1.0f);
            Tensor out = out0.Clone();
            const int64_t head = blocked ? shared : 0;
            if (blocked) {
              kern.qk_dots(q.row(0) + 2, width, nq, k_rows.data(), offset, shared, d,
                           dots.data(), kMaxLen);
              kern.weighted_rows(w.data(), kMaxLen, nq, v_rows.data(), offset, shared, d,
                                 out.data() + 1, width);
            }
            for (int64_t r = 0; r < nq; ++r) {
              const int64_t tail = lens[static_cast<size_t>(r)] - head;
              kern.qk_dots(q.row(r) + 2, width, 1, k_rows.data() + head, offset, tail, d,
                           dots.data() + r * kMaxLen + head, kMaxLen);
              kern.weighted_rows(w.row(r) + head, kMaxLen, 1, v_rows.data() + head, offset,
                                 tail, d, out.row(r) + 1, width);
            }
            EXPECT_TRUE(BitEqual(want_dots.data(), dots.data(), kAttnBlock * kMaxLen))
                << SimdTierName(tier) << (blocked ? " blocked" : " per-query") << " qk_dots";
            EXPECT_TRUE(Tensor::BitwiseEqual(want_out, out))
                << SimdTierName(tier) << (blocked ? " blocked" : " per-query")
                << " weighted_rows";
          }
        }
      }
    }
  }
}

// Distance in units in the last place between two finite floats of the same sign.
int64_t UlpDistance(float a, float b) {
  return std::abs(static_cast<int64_t>(std::bit_cast<int32_t>(a)) -
                  static_cast<int64_t>(std::bit_cast<int32_t>(b)));
}

TEST_F(KernelMatrixTest, CanonicalExpMatchesScalarOnEveryTier) {
  std::vector<float> xs;
  // A dense sweep over [-88, 89] ...
  for (int64_t i = 0; i <= 1770000; ++i) {
    xs.push_back(-88.0f + static_cast<float>(i) * 1e-4f);
  }
  // ... the 4096 floats around each of 0, 1, the underflow (-87.34, -103.97) and
  // overflow (88.72) edges and the clamps (-104, 89) ...
  for (const float c : {0.0f, -87.33654f, -103.972f, 88.72284f, -104.0f, 89.0f, 1.0f}) {
    float lo = c, hi = c;
    for (int i = 0; i < 2048; ++i) {
      xs.push_back(lo);
      xs.push_back(hi);
      lo = std::nextafter(lo, -std::numeric_limits<float>::infinity());
      hi = std::nextafter(hi, std::numeric_limits<float>::infinity());
    }
  }
  // ... and the special values.
  const float kInf = std::numeric_limits<float>::infinity();
  for (const float c : {-kInf, kInf, -0.0f, 0.0f, std::numeric_limits<float>::quiet_NaN(),
                        -std::numeric_limits<float>::quiet_NaN(),
                        std::numeric_limits<float>::denorm_min(),
                        -std::numeric_limits<float>::denorm_min(),
                        std::numeric_limits<float>::min(), -1e30f, 1e30f}) {
    xs.push_back(c);
  }
  const int64_t n = static_cast<int64_t>(xs.size());
  std::vector<float> want(xs.size()), got(xs.size());
  TensorKernelsFor(SimdTier::kScalar).exp(xs.data(), n, want.data());

  int64_t max_ulp = 0;
  for (int64_t i = 0; i < n; ++i) {
    const float x = xs[static_cast<size_t>(i)];
    const float y = want[static_cast<size_t>(i)];
    const float one = CanonicalExp(x);
    ASSERT_TRUE(BitEqual(&y, &one, 1)) << "x=" << x;
    if (x >= -87.0f && x <= 0.0f) {
      max_ulp = std::max(max_ulp, UlpDistance(y, std::exp(x)));
    }
  }
  EXPECT_LE(max_ulp, 2);
  EXPECT_EQ(CanonicalExp(0.0f), 1.0f);
  EXPECT_EQ(CanonicalExp(-0.0f), 1.0f);
  EXPECT_EQ(std::bit_cast<uint32_t>(CanonicalExp(-kInf)), 0u);  // +0
  EXPECT_EQ(std::bit_cast<uint32_t>(CanonicalExp(-104.0f)), 0u);
  EXPECT_EQ(CanonicalExp(kInf), kInf);
  EXPECT_EQ(CanonicalExp(89.0f), kInf);
  EXPECT_EQ(CanonicalExp(88.8f), kInf);
  EXPECT_TRUE(std::isnan(CanonicalExp(std::numeric_limits<float>::quiet_NaN())));
  // Denormal results round once, close to std::exp's.
  EXPECT_GT(CanonicalExp(-100.0f), 0.0f);
  EXPECT_LT(CanonicalExp(-100.0f), std::numeric_limits<float>::min());
  EXPECT_NEAR(CanonicalExp(-100.0f), std::exp(-100.0f), 2 * std::numeric_limits<float>::denorm_min());
  EXPECT_NEAR(CanonicalExp(88.0f), std::exp(88.0f), 2e-7 * std::exp(88.0f));

  for (const SimdTier tier : RunnableTiers()) {
    // Unaligned lengths and starts so every vector tail path runs.
    for (const int64_t start : {0, 1, 7}) {
      std::fill(got.begin(), got.end(), -1.0f);
      TensorKernelsFor(tier).exp(xs.data() + start, n - start, got.data());
      EXPECT_TRUE(BitEqual(want.data() + start, got.data(), n - start))
          << SimdTierName(tier) << " start=" << start;
    }
  }
}

TEST_F(KernelMatrixTest, SoftmaxAndSiluMatchScalarOnEveryTier) {
  const TensorKernels& ref = TensorKernelsFor(SimdTier::kScalar);
  for (int64_t n = 1; n <= 257; ++n) {
    SCOPED_TRACE(testing::Message() << "n=" << n);
    // Scores at attention's scale, with a wide spread so some exps underflow.
    Tensor x = RandomMatrix(1, n, 80 + static_cast<uint64_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      x.at(i) *= (i % 5 == 0) ? 40.0f : 3.0f;
    }
    Tensor want_soft = x.Clone();
    ref.softmax_row(want_soft.data(), n);
    Tensor want_silu = x.Clone();
    ref.silu(want_silu.data(), n);

    // The scalar tier against a double-precision softmax of the same float differences
    // x[i] - max, and a double-precision SiLU.
    float max_v = x.at(0);
    for (int64_t i = 1; i < n; ++i) {
      max_v = std::max(max_v, x.at(i));
    }
    double sum = 0;
    for (int64_t i = 0; i < n; ++i) {
      sum += std::exp(static_cast<double>(x.at(i) - max_v));
    }
    for (int64_t i = 0; i < n; ++i) {
      const double p = std::exp(static_cast<double>(x.at(i) - max_v)) / sum;
      ASSERT_NEAR(want_soft.at(i), p, 1e-6 * p + 1e-44) << "softmax i=" << i;
      // Below x = -88.72, exp(-x) overflows float and x / (1 + inf) is -0, as it is
      // with std::exp.
      const double s = x.at(i) < -88.73f
                           ? 0.0
                           : x.at(i) / (1.0 + std::exp(-static_cast<double>(x.at(i))));
      ASSERT_NEAR(want_silu.at(i), s, 1e-6 * std::abs(s) + 1e-44) << "silu i=" << i;
    }

    for (const SimdTier tier : RunnableTiers()) {
      const TensorKernels& kern = TensorKernelsFor(tier);
      Tensor soft = x.Clone();
      kern.softmax_row(soft.data(), n);
      EXPECT_TRUE(Tensor::BitwiseEqual(want_soft, soft)) << SimdTierName(tier) << " softmax";
      Tensor silu = x.Clone();
      kern.silu(silu.data(), n);
      EXPECT_TRUE(Tensor::BitwiseEqual(want_silu, silu)) << SimdTierName(tier) << " silu";
    }
  }
}

// Keeps every layer's input rows by absolute position.
class RecordingSink : public HiddenStateSink {
 public:
  explicit RecordingSink(const ModelConfig& cfg)
      : layers_(static_cast<size_t>(cfg.num_layers)) {}

  void OnLayerInput(int64_t layer, const Tensor& hidden, const int32_t* positions,
                    int64_t n) override {
    for (int64_t i = 0; i < n; ++i) {
      layers_[static_cast<size_t>(layer)][positions[i]] =
          std::vector<float>(hidden.row(i), hidden.row(i) + hidden.dim(1));
    }
  }

  Tensor LayerHidden(int64_t layer, int64_t num_tokens, int64_t hidden_dim) const {
    Tensor t({num_tokens, hidden_dim});
    for (int64_t p = 0; p < num_tokens; ++p) {
      const std::vector<float>& row =
          layers_[static_cast<size_t>(layer)].at(static_cast<int32_t>(p));
      std::copy(row.begin(), row.end(), t.row(p));
    }
    return t;
  }

 private:
  std::vector<std::map<int32_t, std::vector<float>>> layers_;
};

// Everything one tier's run of a prefill plus decode steps produces.
struct ForwardRun {
  std::vector<Tensor> outputs;  // final-norm activations of each forward call
  std::vector<Tensor> k, v;     // per-layer K/V of the whole sequence
  std::vector<Tensor> hidden;   // per-layer saved inputs
};

ForwardRun RunForward(Transformer& model, const ModelConfig& cfg,
                      const std::vector<int32_t>& prompt, const std::vector<int32_t>& chunk,
                      const std::vector<int32_t>& steps) {
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, /*num_blocks=*/32, /*block_tokens=*/16));
  PagedKvSequence seq(&pool);
  RecordingSink sink(cfg);
  ForwardRun run;
  run.outputs.push_back(model.Forward(prompt, &seq, &sink));
  // A second prefill starting mid-block: its attention blocks see a shared history
  // plus staggered causal tails.
  run.outputs.push_back(model.Forward(chunk, &seq, &sink));
  for (const int32_t tok : steps) {
    run.outputs.push_back(model.Forward({tok}, &seq, &sink));
  }
  const int64_t n = seq.num_tokens();
  for (int64_t l = 0; l < cfg.num_layers; ++l) {
    Tensor k, v;
    seq.ReadKv(l, 0, n, &k, &v);
    run.k.push_back(std::move(k));
    run.v.push_back(std::move(v));
    run.hidden.push_back(sink.LayerHidden(l, n, cfg.hidden_dim));
  }
  return run;
}

TEST_F(KernelMatrixTest, ForwardAndRestoreMatchScalarOnEveryTier) {
  // head_dim 64 (the bench model's), 24 (not a multiple of 16) under RoPE, a GQA
  // model (two query heads per KV head), and an ALiBi model, whose score bias runs
  // beside the QK kernel.
  const ModelConfig configs[] = {ModelConfig::TinyLlama(2, 256, 4),
                                 ModelConfig::TinyLlama(2, 72, 3),
                                 ModelConfig::TinyGqa(2, 128, 4, 2),
                                 ModelConfig::TinyAlibi(2, 80, 4)};
  for (const ModelConfig& cfg : configs) {
    SCOPED_TRACE(testing::Message() << cfg.name << " head_dim=" << cfg.head_dim());
    const ModelWeights weights = ModelWeights::Random(cfg, 11);
    Transformer model(&weights);
    Rng rng(12);
    std::vector<int32_t> prompt(37);
    for (auto& t : prompt) {
      t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
    }
    const std::vector<int32_t> chunk = {2, 7, 1, 8, 2, 8};
    const std::vector<int32_t> steps = {3, 1, 4};
    const int64_t n = static_cast<int64_t>(prompt.size() + chunk.size() + steps.size());
    std::vector<int32_t> positions(static_cast<size_t>(n));
    std::iota(positions.begin(), positions.end(), 0);

    ForceSimdTier(SimdTier::kScalar);
    const ForwardRun want = RunForward(model, cfg, prompt, chunk, steps);
    for (const SimdTier tier : RunnableTiers()) {
      ASSERT_EQ(tier, ForceSimdTier(tier));
      const ForwardRun got = RunForward(model, cfg, prompt, chunk, steps);
      for (size_t s = 0; s < want.outputs.size(); ++s) {
        EXPECT_TRUE(Tensor::BitwiseEqual(want.outputs[s], got.outputs[s]))
            << SimdTierName(tier) << " forward call " << s;
      }
      for (int64_t l = 0; l < cfg.num_layers; ++l) {
        const size_t li = static_cast<size_t>(l);
        EXPECT_TRUE(Tensor::BitwiseEqual(want.k[li], got.k[li]))
            << SimdTierName(tier) << " K layer " << l;
        EXPECT_TRUE(Tensor::BitwiseEqual(want.v[li], got.v[li]))
            << SimdTierName(tier) << " V layer " << l;
        EXPECT_TRUE(Tensor::BitwiseEqual(want.hidden[li], got.hidden[li]))
            << SimdTierName(tier) << " hidden layer " << l;
        // Restoring on this tier from the scalar tier's saved hidden states gives back
        // the scalar tier's KV exactly.
        Tensor k, v;
        model.RestoreLayerKv(l, want.hidden[li], positions.data(), &k, &v);
        EXPECT_TRUE(Tensor::BitwiseEqual(want.k[li], k))
            << SimdTierName(tier) << " restored K layer " << l;
        EXPECT_TRUE(Tensor::BitwiseEqual(want.v[li], v))
            << SimdTierName(tier) << " restored V layer " << l;
      }
    }
  }
}

}  // namespace
}  // namespace hcache
