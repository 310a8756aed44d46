// Rotary position embedding (RoPE, Su et al.).
//
// HCache-relevant detail (§5 of the paper): the KV projection from hidden states yields
// *pre-rotation* keys, so restoration must re-apply RoPE with each token's original
// absolute position. ApplyRope therefore takes an explicit per-token position array
// instead of assuming positions 0..n-1 — the restoration path passes the historical
// positions, and bit-exactness versus the original forward pass follows from using the
// identical kernel and the identical angle table in both places.
#ifndef HCACHE_SRC_TENSOR_ROPE_H_
#define HCACHE_SRC_TENSOR_ROPE_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace hcache {

// cos and sin of every rotation angle pos * theta_base^(-2i/head_dim), for positions
// [0, max_position) and pairs i in [0, head_dim/2), computed once at construction with
// the float expressions a direct evaluation uses (std::pow, then std::cos/std::sin of
// the float angle), so a table lookup gives the direct formula's bits. Immutable after
// construction: every thread that rotates reads the one table without a lock. One
// table is max_position * head_dim floats (2048 x 64 is 0.5 MB).
class RopeTable {
 public:
  RopeTable() = default;
  RopeTable(int64_t max_position, int64_t head_dim, float theta_base = 10000.0f);

  int64_t max_position() const { return max_position_; }
  int64_t head_dim() const { return head_dim_; }

  // Position `pos`'s head_dim floats: entry 2i is the cos, 2i+1 the sin of pair i.
  const float* Angles(int32_t pos) const {
    return cos_sin_.data() + static_cast<size_t>(pos) * static_cast<size_t>(head_dim_);
  }

 private:
  int64_t max_position_ = 0;
  int64_t head_dim_ = 0;
  std::vector<float> cos_sin_;
};

// Rotates `x` in place. x is [num_tokens, num_heads * table.head_dim()]; positions has
// num_tokens entries, each in [0, table.max_position()). Pairs (x[2i], x[2i+1]) within
// each head are rotated by the table's angle for (position, i).
void ApplyRope(Tensor& x, const int32_t* positions, int64_t num_heads, const RopeTable& table);

// Convenience for contiguous positions [start, start + num_tokens).
void ApplyRopeContiguous(Tensor& x, int32_t start_pos, int64_t num_heads,
                         const RopeTable& table);

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_ROPE_H_
