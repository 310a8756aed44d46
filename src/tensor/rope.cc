// Contraction off, as in kernels.cc: an FMA-capable build (-march=native) must not
// fuse a multiply into its add and change the Q/K bits. Precedes every function.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC optimize("fp-contract=off")
#endif

#include "src/tensor/rope.h"

#include <cmath>
#include <numeric>

#include "src/common/thread_pool.h"

namespace hcache {

namespace {

// Tokens per ParallelFor subrange: a token costs one rotation of every head, so a
// handful of tokens is already enough work to amortize dispatch.
constexpr int64_t kRopeGrainTokens = 8;

// Rotates every head of one token's row by that position's angles. The pair loop runs
// innermost, over memory contiguous in both the row and the table, so it vectorizes.
// The even lane's a*cos - b*sin is written a*cos + b*-sin (the same bits): GCC 12's
// vectorizer fuses an add lane beside a subtract lane into vfmaddsub even with
// contraction off.
void RopeRow(float* row, const float* cos_sin, int64_t num_heads, int64_t head_dim) {
  for (int64_t h = 0; h < num_heads; ++h) {
    float* head = row + h * head_dim;
    for (int64_t i = 0; i < head_dim / 2; ++i) {
      const float cos_a = cos_sin[2 * i];
      const float sin_a = cos_sin[2 * i + 1];
      const float a = head[2 * i];
      const float b = head[2 * i + 1];
      head[2 * i] = a * cos_a + b * -sin_a;
      head[2 * i + 1] = b * cos_a + a * sin_a;
    }
  }
}

}  // namespace

RopeTable::RopeTable(int64_t max_position, int64_t head_dim, float theta_base)
    : max_position_(max_position), head_dim_(head_dim) {
  CHECK_GE(max_position, 0);
  CHECK_GT(head_dim, 0);
  CHECK_EQ(head_dim % 2, 0);
  const int64_t half = head_dim / 2;
  std::vector<float> freqs(static_cast<size_t>(half));
  for (int64_t i = 0; i < half; ++i) {
    freqs[static_cast<size_t>(i)] =
        std::pow(theta_base, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
  }
  cos_sin_.resize(static_cast<size_t>(max_position * head_dim));
  for (int64_t pos = 0; pos < max_position; ++pos) {
    float* entry = cos_sin_.data() + static_cast<size_t>(pos * head_dim);
    for (int64_t i = 0; i < half; ++i) {
      const float angle = static_cast<float>(pos) * freqs[static_cast<size_t>(i)];
      entry[2 * i] = std::cos(angle);
      entry[2 * i + 1] = std::sin(angle);
    }
  }
}

void ApplyRope(Tensor& x, const int32_t* positions, int64_t num_heads, const RopeTable& table) {
  const int64_t head_dim = table.head_dim();
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(x.dim(1), num_heads * head_dim);
  // Rows are independent (each token's rotation touches only its own row), so the
  // token partitioning cannot change any result bit.
  ParallelFor(0, x.dim(0), kRopeGrainTokens, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      CHECK(positions[t] >= 0 && positions[t] < table.max_position())
          << "position " << positions[t] << " outside the RoPE table";
      RopeRow(x.row(t), table.Angles(positions[t]), num_heads, head_dim);
    }
  });
}

void ApplyRopeContiguous(Tensor& x, int32_t start_pos, int64_t num_heads,
                         const RopeTable& table) {
  std::vector<int32_t> positions(static_cast<size_t>(x.dim(0)));
  std::iota(positions.begin(), positions.end(), start_pos);
  ApplyRope(x, positions.data(), num_heads, table);
}

}  // namespace hcache
