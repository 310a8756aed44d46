// Bit-exactness matrix for the tier-dispatched compute kernels (kernels.h): every GEMM
// entry point, attention's query-blocked QK dots and AV update, the canonical exp, the
// softmax row, SiLU, and a whole forward pass followed by RestoreLayerKv must produce
// floats identical to the scalar tier on every ISA path the machine can execute —
// across shapes that straddle the register tiles, the kGemmNr strip, the kGemmKc/kGemmNc
// blocks, the 16-lane vectors and the query block. This is what keeps restored KV
// bit-identical when the saving and the restoring replica run different tiers.
//
// The GEMM's step is one fused multiply-add (kernels.h), so besides matching scalar every
// tier must match a spelled-out std::fmaf loop — a check that still fails if every tier
// drifted from the rule together — and the no-FMA tables the 256-bit tiers fall back to
// run here too (ForceGemmFma). The spelled-out attention reference rounds every product
// before its add; with contraction on, an FMA-capable build (-march=native) would fuse
// them and the reference would stop being the canonical order.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <string>
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

// A kernel table this machine can run: a tier, and whether the 256-bit tiers' GEMM is
// the FMA tile or the fallback a CPU without FMA gets (the scalar reference).
struct KernelConfig {
  SimdTier tier;
  bool fma;
};

std::string ConfigName(const KernelConfig& config) {
  return std::string(SimdTierName(config.tier)) + (config.fma ? "" : " (no FMA)");
}

// Every runnable tier, plus each 256-bit tier's no-FMA table on an FMA host.
std::vector<KernelConfig> RunnableConfigs() {
  const bool fma = ForceGemmFma(true);
  std::vector<KernelConfig> configs;
  for (const SimdTier tier : RunnableTiers()) {
    configs.push_back({tier, fma});
    if (fma && (tier == SimdTier::kF16c || tier == SimdTier::kAvx2)) {
      configs.push_back({tier, false});
    }
  }
  return configs;
}

// Makes `config` the table the functional plane dispatches through.
void Install(const KernelConfig& config) {
  ASSERT_EQ(config.tier, ForceSimdTier(config.tier));
  ASSERT_EQ(config.fma, ForceGemmFma(config.fma));
}

// Restores the pre-test active tier and the CPU's FMA setting even when an assertion
// fails mid-loop.
class KernelMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_tier_ = ActiveSimdTier(); }
  void TearDown() override {
    ForceSimdTier(entry_tier_);
    ForceGemmFma(true);
  }

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

Tensor Transposed(const Tensor& t) {
  Tensor out({t.dim(1), t.dim(0)});
  for (int64_t i = 0; i < t.dim(0); ++i) {
    for (int64_t j = 0; j < t.dim(1); ++j) {
      out.at(j, i) = t.at(i, j);
    }
  }
  return out;
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

// C = A * W^T (+ C when accumulate), W stored [n, k], by the rule kernels.h documents,
// spelled out: for each kGemmKc block of k in ascending order, acc = +0, then acc =
// fmaf(a[i][p], w[j][p], acc) for p ascending, then C = acc for an assigning call's
// first block and C = C + acc otherwise.
void FusedReferenceGemm(const float* a, const float* w, float* c, int64_t m, int64_t k,
                        int64_t n, bool accumulate) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      float out = c[i * n + j];
      for (int64_t p0 = 0; p0 < k; p0 += kGemmKc) {
        float acc = 0.0f;
        for (int64_t p = p0; p < std::min(k, p0 + kGemmKc); ++p) {
          acc = std::fmaf(a[i * k + p], w[j * k + p], acc);
        }
        out = p0 == 0 && !accumulate ? acc : out + acc;
      }
      c[i * n + j] = out;
    }
  }
}

TEST_F(KernelMatrixTest, GemmMatchesFusedReferenceOnEveryTier) {
  const std::vector<KernelConfig> configs = RunnableConfigs();
  const char* const kNames[] = {"GemmNN", "GemmNT", "GemmPacked(accumulate)"};

  // Values where one rounding and two differ. x = 1 + 2^-12, so x * x = 1 + 2^-11 +
  // 2^-24 exactly, which rounds (to even) to 1 + 2^-11. Row and column counts reach the
  // row kernel, the tiles and their ragged edges.
  const float x = 1.0f + 0x1p-12f;
  for (const int64_t m : {1, 3, 9}) {
    for (const int64_t n : {1, 17, 40}) {
      SCOPED_TRACE(testing::Message() << "m=" << m << " n=" << n);
      // k = 2: a row (-1, x) times a column (1, x) is fma(x, x, fma(-1, 1, +0)) =
      // 2^-11 + 2^-24; a separate multiply and add would give 2^-11.
      Tensor a2({m, 2}), b2({2, n}), w2({n, 2});
      for (int64_t i = 0; i < m; ++i) {
        a2.at(i, 0) = -1.0f;
        a2.at(i, 1) = x;
      }
      for (int64_t j = 0; j < n; ++j) {
        b2.at(0, j) = w2.at(j, 0) = 1.0f;
        b2.at(1, j) = w2.at(j, 1) = x;
      }
      // k = 1 accumulating onto C = -1: acc = fma(x, x, +0) rounds like the plain
      // product, and C + acc is a separate add, so the result is 2^-11.
      Tensor a1({m, 1}), w1({n, 1}), minus_one({m, n});
      a1.Fill(x);
      w1.Fill(x);
      minus_one.Fill(-1.0f);
      const PackedWeights packed2(w2), packed1(w1);
      const float fused = 0x1p-11f + 0x1p-24f;
      const float accumulated = 0x1p-11f;
      Tensor ref2({m, n}), ref1 = minus_one.Clone();
      FusedReferenceGemm(a2.data(), w2.data(), ref2.data(), m, 2, n, false);
      FusedReferenceGemm(a1.data(), w1.data(), ref1.data(), m, 1, n, true);
      ASSERT_EQ(ref2.at(0), fused);
      ASSERT_EQ(ref1.at(0), accumulated);
      for (const KernelConfig& config : configs) {
        Install(config);
        const std::vector<Tensor> got = AllGemms(a2, b2, w2, packed2, Tensor({m, n}));
        Tensor nn = minus_one.Clone(), nt = minus_one.Clone(), pk = minus_one.Clone();
        GemmNN(a1.data(), w1.data(), nn.data(), m, 1, n, /*accumulate=*/true);
        GemmNT(a1.data(), w1.data(), nt.data(), m, 1, n, /*accumulate=*/true);
        GemmPacked(a1.data(), packed1, pk.data(), m, /*accumulate=*/true);
        for (int64_t e = 0; e < m * n; ++e) {
          for (size_t g = 0; g < got.size(); ++g) {
            ASSERT_EQ(got[g].at(e), fused) << ConfigName(config) << " " << kNames[g] << " k=2";
          }
          ASSERT_EQ(nn.at(e), accumulated) << ConfigName(config) << " GemmNN k=1";
          ASSERT_EQ(nt.at(e), accumulated) << ConfigName(config) << " GemmNT k=1";
          ASSERT_EQ(pk.at(e), accumulated) << ConfigName(config) << " GemmPacked k=1";
        }
      }
    }
  }

  // Random operands over the shapes GemmTiersMatchScalar covers, on every tier. GemmNN
  // multiplies by B = W^T, so all three entry points share the reference's products.
  uint64_t seed = 101;
  for (const int64_t k : kKs) {
    for (const int64_t n : kNs) {
      const Tensor w = RandomMatrix(n, k, seed++);  // [n, k]
      const Tensor b = Transposed(w);              // [k, n]
      const PackedWeights packed(w);
      for (const int64_t m : kMs) {
        SCOPED_TRACE(testing::Message() << "m=" << m << " k=" << k << " n=" << n);
        const Tensor a = RandomMatrix(m, k, seed++);
        const Tensor base = RandomMatrix(m, n, seed++);
        Tensor product({m, n}), accumulated = base.Clone();
        FusedReferenceGemm(a.data(), w.data(), product.data(), m, k, n, false);
        FusedReferenceGemm(a.data(), w.data(), accumulated.data(), m, k, n, true);
        const Tensor* const want[] = {&product, &product, &accumulated};
        for (const SimdTier tier : RunnableTiers()) {
          ASSERT_EQ(tier, ForceSimdTier(tier));
          const std::vector<Tensor> got = AllGemms(a, b, w, packed, base);
          for (size_t g = 0; g < got.size(); ++g) {
            ASSERT_TRUE(Tensor::BitwiseEqual(*want[g], got[g]))
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
    for (const KernelConfig& config : RunnableConfigs()) {
      Install(config);
      const std::string tier = ConfigName(config);
      const ForwardRun got = RunForward(model, cfg, prompt, chunk, steps);
      for (size_t s = 0; s < want.outputs.size(); ++s) {
        EXPECT_TRUE(Tensor::BitwiseEqual(want.outputs[s], got.outputs[s]))
            << tier << " forward call " << s;
      }
      for (int64_t l = 0; l < cfg.num_layers; ++l) {
        const size_t li = static_cast<size_t>(l);
        EXPECT_TRUE(Tensor::BitwiseEqual(want.k[li], got.k[li]))
            << tier << " K layer " << l;
        EXPECT_TRUE(Tensor::BitwiseEqual(want.v[li], got.v[li]))
            << tier << " V layer " << l;
        EXPECT_TRUE(Tensor::BitwiseEqual(want.hidden[li], got.hidden[li]))
            << tier << " hidden layer " << l;
        // Restoring on this tier from the scalar tier's saved hidden states gives back
        // the scalar tier's KV exactly.
        Tensor k, v;
        model.RestoreLayerKv(l, want.hidden[li], positions.data(), &k, &v);
        EXPECT_TRUE(Tensor::BitwiseEqual(want.k[li], k))
            << tier << " restored K layer " << l;
        EXPECT_TRUE(Tensor::BitwiseEqual(want.v[li], v))
            << tier << " restored V layer " << l;
      }
    }
  }
}

}  // namespace
}  // namespace hcache
