// The row ops must not fuse a multiply into the add that consumes it: a fused
// multiply-add rounds once where the plain expression rounds twice, so a build with
// FMA (-march=native) would compute different Q/K and normalized-row bits than a
// baseline x86-64 build, and replicas built either way would not restore each other's
// KV bit for bit. Each reference below rounds every product on its own (a volatile
// store cannot fuse with anything), so it is the contraction-free result under any
// build flags; ApplyRope and LayerNorm must match it bitwise. CI runs this suite under
// -O3 -march=native, where an unguarded source would fail it.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off")
#endif

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/rng.h"
#include "src/tensor/ops.h"
#include "src/tensor/rope.h"

namespace hcache {
namespace {

Tensor RandomRows(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, dim});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

TEST(FpContractTest, RopeMatchesTheUnfusedRotation) {
  constexpr int64_t kTokens = 13, kHeads = 4, kHeadDim = 32;
  const RopeTable table(/*max_position=*/64, kHeadDim);
  Tensor x = RandomRows(kTokens, kHeads * kHeadDim, 3);
  Tensor want = x.Clone();
  std::vector<int32_t> positions(kTokens);
  for (int64_t t = 0; t < kTokens; ++t) {
    positions[static_cast<size_t>(t)] = static_cast<int32_t>(5 * t % 64);
    const float* angles = table.Angles(positions[static_cast<size_t>(t)]);
    for (int64_t h = 0; h < kHeads; ++h) {
      float* head = want.row(t) + h * kHeadDim;
      for (int64_t i = 0; i < kHeadDim / 2; ++i) {
        const float a = head[2 * i], b = head[2 * i + 1];
        const float cos_a = angles[2 * i], sin_a = angles[2 * i + 1];
        const volatile float a_cos = a * cos_a, b_sin = b * sin_a;
        const volatile float a_sin = a * sin_a, b_cos = b * cos_a;
        head[2 * i] = a_cos - b_sin;
        head[2 * i + 1] = a_sin + b_cos;
      }
    }
  }
  ApplyRope(x, positions.data(), kHeads, table);
  EXPECT_TRUE(Tensor::BitwiseEqual(x, want));
}

TEST(FpContractTest, LayerNormMatchesTheUnfusedRow) {
  constexpr int64_t kTokens = 9, kDim = 96;
  const Tensor x = RandomRows(kTokens, kDim, 5);
  const Tensor params = RandomRows(2, kDim, 7);
  const float* weight = params.row(0);
  const float* bias = params.row(1);
  constexpr float kEps = 1e-5f;
  Tensor want({kTokens, kDim});
  for (int64_t r = 0; r < kTokens; ++r) {
    const float* in = x.row(r);
    double mean = 0.0;
    for (int64_t i = 0; i < kDim; ++i) {
      mean += in[i];
    }
    mean /= static_cast<double>(kDim);
    double var = 0.0;
    for (int64_t i = 0; i < kDim; ++i) {
      const double d = in[i] - mean;
      const volatile double d2 = d * d;
      var += d2;
    }
    var /= static_cast<double>(kDim);
    const float inv = 1.0f / std::sqrt(static_cast<float>(var) + kEps);
    for (int64_t i = 0; i < kDim; ++i) {
      const volatile float scaled = (in[i] - static_cast<float>(mean)) * inv * weight[i];
      want.row(r)[i] = scaled + bias[i];
    }
  }
  Tensor got({kTokens, kDim});
  LayerNorm(x, weight, bias, kEps, got);
  EXPECT_TRUE(Tensor::BitwiseEqual(got, want));
}

}  // namespace
}  // namespace hcache
