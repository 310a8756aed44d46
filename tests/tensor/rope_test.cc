#include "src/tensor/rope.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "src/common/rng.h"
#include "src/common/thread_pool.h"

namespace hcache {
namespace {

Tensor RandomActivations(int64_t n, int64_t dim, uint64_t seed) {
  Rng rng(seed);
  Tensor t({n, dim});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

// Rotates x with every cos/sin evaluated at the call: the direct formula the table
// must reproduce bit for bit.
void DirectRope(Tensor& x, const int32_t* positions, int64_t num_heads, int64_t head_dim,
                float theta_base) {
  for (int64_t t = 0; t < x.dim(0); ++t) {
    for (int64_t i = 0; i < head_dim / 2; ++i) {
      const float freq =
          std::pow(theta_base, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
      const float angle = static_cast<float>(positions[t]) * freq;
      const float cos_a = std::cos(angle);
      const float sin_a = std::sin(angle);
      for (int64_t h = 0; h < num_heads; ++h) {
        float* pair = x.row(t) + h * head_dim + 2 * i;
        const float a = pair[0];
        const float b = pair[1];
        pair[0] = a * cos_a - b * sin_a;
        pair[1] = a * sin_a + b * cos_a;
      }
    }
  }
}

TEST(RopeTest, PositionZeroIsIdentity) {
  Tensor x = RandomActivations(1, 8, 1);
  Tensor orig = x.Clone();
  ApplyRopeContiguous(x, /*start_pos=*/0, /*num_heads=*/2, RopeTable(16, /*head_dim=*/4));
  EXPECT_TRUE(Tensor::BitwiseEqual(x, orig) || Tensor::MaxAbsDiff(x, orig) < 1e-7f);
}

TEST(RopeTest, PreservesPairNorms) {
  Tensor x = RandomActivations(3, 16, 2);
  Tensor orig = x.Clone();
  ApplyRopeContiguous(x, 5, 2, RopeTable(16, 8));
  for (int64_t t = 0; t < 3; ++t) {
    for (int64_t p = 0; p < 8; ++p) {  // 8 rotation pairs per row
      const float a0 = orig.row(t)[2 * p], b0 = orig.row(t)[2 * p + 1];
      const float a1 = x.row(t)[2 * p], b1 = x.row(t)[2 * p + 1];
      EXPECT_NEAR(a0 * a0 + b0 * b0, a1 * a1 + b1 * b1, 1e-4f);
    }
  }
}

TEST(RopeTest, ExplicitPositionsMatchContiguous) {
  const RopeTable table(16, 8);
  Tensor a = RandomActivations(4, 8, 3);
  Tensor b = a.Clone();
  ApplyRopeContiguous(a, 10, 1, table);
  const int32_t pos[] = {10, 11, 12, 13};
  ApplyRope(b, pos, 1, table);
  EXPECT_TRUE(Tensor::BitwiseEqual(a, b));
}

TEST(RopeTest, NonContiguousPositionsRotateIndependently) {
  // Token rotated at position 7 must equal the same data rotated at 7 in any batch —
  // this is what lets restoration re-apply RoPE with historical positions.
  const RopeTable table(128, 4);
  Tensor batch = RandomActivations(3, 8, 4);
  Tensor single({1, 8});
  for (int64_t i = 0; i < 8; ++i) {
    single.at(0, i) = batch.at(1, i);
  }
  const int32_t batch_pos[] = {3, 7, 100};
  ApplyRope(batch, batch_pos, 2, table);
  const int32_t one_pos[] = {7};
  ApplyRope(single, one_pos, 2, table);
  for (int64_t i = 0; i < 8; ++i) {
    EXPECT_EQ(batch.at(1, i), single.at(0, i));  // bitwise
  }
}

TEST(RopeTest, RelativeAngleProperty) {
  // For a single rotation pair, <rope(q,m), rope(k,n)> depends only on (m-n).
  const RopeTable table(128, /*head_dim=*/2);
  auto dot_at = [&](int32_t m, int32_t n) {
    Tensor q = Tensor::FromData({1, 2}, {1.0f, 0.5f});
    Tensor k = Tensor::FromData({1, 2}, {0.3f, -0.7f});
    ApplyRope(q, &m, 1, table);
    ApplyRope(k, &n, 1, table);
    return q.at(0, 0) * k.at(0, 0) + q.at(0, 1) * k.at(0, 1);
  };
  EXPECT_NEAR(dot_at(5, 3), dot_at(12, 10), 1e-4f);
  EXPECT_NEAR(dot_at(30, 7), dot_at(123, 100), 1e-3f);
}

TEST(RopeTest, DifferentThetaBasesDiffer) {
  Tensor a = RandomActivations(2, 8, 5);
  Tensor b = a.Clone();
  ApplyRopeContiguous(a, 3, 1, RopeTable(16, 8, 10000.0f));
  ApplyRopeContiguous(b, 3, 1, RopeTable(16, 8, 500.0f));
  EXPECT_GT(Tensor::MaxAbsDiff(a, b), 1e-4f);
}

TEST(RopeTest, TableMatchesDirectFormulaUpToMaxPosition) {
  // Every position of a 2048-entry table at the serving benchmark's head_dim (64), and a
  // head_dim (24) that is not a multiple of 16, under two theta bases.
  for (const int64_t head_dim : {64, 24}) {
    for (const float theta : {10000.0f, 500.0f}) {
      SCOPED_TRACE(testing::Message() << "head_dim=" << head_dim << " theta=" << theta);
      constexpr int64_t kMaxPosition = 2048;
      const RopeTable table(kMaxPosition, head_dim, theta);
      ASSERT_EQ(table.max_position(), kMaxPosition);
      ASSERT_EQ(table.head_dim(), head_dim);
      std::vector<int32_t> positions(kMaxPosition);
      for (int32_t p = 0; p < kMaxPosition; ++p) {
        positions[static_cast<size_t>(p)] = p;
      }
      const Tensor base = RandomActivations(kMaxPosition, 2 * head_dim, 6);
      Tensor want = base.Clone();
      DirectRope(want, positions.data(), 2, head_dim, theta);
      Tensor got = base.Clone();
      ApplyRope(got, positions.data(), 2, table);
      EXPECT_TRUE(Tensor::BitwiseEqual(want, got));
    }
  }
}

TEST(RopeTest, ConcurrentCallsFromPoolThreadsAgree) {
  // One table, rotated through by every pool worker at once (each call also fans out
  // over the shared pool): every result equals the serial one.
  const RopeTable table(512, 64);
  const Tensor base = RandomActivations(40, 4 * 64, 7);
  std::vector<int32_t> positions(40);
  for (size_t i = 0; i < positions.size(); ++i) {
    positions[i] = static_cast<int32_t>((37 * i + 5) % 512);
  }
  Tensor want = base.Clone();
  ApplyRope(want, positions.data(), 4, table);

  constexpr int kCalls = 16;
  std::vector<Tensor> got(kCalls);
  ThreadPool pool(4);
  for (int c = 0; c < kCalls; ++c) {
    pool.Submit([&, c] {
      Tensor x = base.Clone();
      ApplyRope(x, positions.data(), 4, table);
      got[static_cast<size_t>(c)] = std::move(x);
    });
  }
  pool.Drain();
  for (int c = 0; c < kCalls; ++c) {
    EXPECT_TRUE(Tensor::BitwiseEqual(want, got[static_cast<size_t>(c)])) << "call " << c;
  }
}

}  // namespace
}  // namespace hcache
