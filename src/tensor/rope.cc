#include "src/tensor/rope.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/thread_pool.h"

namespace hcache {

namespace {

// Tokens per ParallelFor subrange: each token costs head_dim trig ops plus a rotation
// of every head, so a handful of tokens is already enough work to amortize dispatch.
constexpr int64_t kRopeGrainTokens = 8;

// Rotates every head of one token's row. A pair's angle depends only on (pos, i), so
// each cos/sin is computed once and applied to all heads.
void RopeRow(float* row, float pos, const float* freqs, int64_t num_heads, int64_t head_dim,
             int64_t half) {
  for (int64_t i = 0; i < half; ++i) {
    const float angle = pos * freqs[i];
    const float cos_a = std::cos(angle);
    const float sin_a = std::sin(angle);
    for (int64_t h = 0; h < num_heads; ++h) {
      float* pair = row + h * head_dim + 2 * i;
      const float a = pair[0];
      const float b = pair[1];
      pair[0] = a * cos_a - b * sin_a;
      pair[1] = a * sin_a + b * cos_a;
    }
  }
}

}  // namespace

void ApplyRope(Tensor& x, const int32_t* positions, int64_t num_heads, int64_t head_dim,
               float theta_base) {
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(x.dim(1), num_heads * head_dim);
  CHECK_EQ(head_dim % 2, 0);
  const int64_t half = head_dim / 2;
  std::vector<float> freqs(static_cast<size_t>(half));
  for (int64_t i = 0; i < half; ++i) {
    freqs[static_cast<size_t>(i)] =
        std::pow(theta_base, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
  }
  // Rows are independent (each token's rotation touches only its own row), so the
  // token partitioning cannot change any result bit.
  ParallelFor(0, x.dim(0), kRopeGrainTokens, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      RopeRow(x.row(t), static_cast<float>(positions[t]), freqs.data(), num_heads, head_dim,
              half);
    }
  });
}

void ApplyRopeContiguous(Tensor& x, int32_t start_pos, int64_t num_heads, int64_t head_dim,
                         float theta_base) {
  std::vector<int32_t> positions(static_cast<size_t>(x.dim(0)));
  std::iota(positions.begin(), positions.end(), start_pos);
  ApplyRope(x, positions.data(), num_heads, head_dim, theta_base);
}

}  // namespace hcache
