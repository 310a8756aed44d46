#include "src/tensor/gemm.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "src/common/thread_pool.h"
#include "src/tensor/kernels.h"

namespace hcache {

namespace {

// BLIS-style cache blocking: a kKc x kNc B-panel (~256 KiB) stays L2-resident while a
// kMc x kKc A-block (~64 KiB) streams through it. The register tile belongs to the
// tier's kernel (kernels.h); A is read in place, B in kNr-column strips.
constexpr int64_t kMc = kGemmMc;
constexpr int64_t kKc = kGemmKc;
constexpr int64_t kNc = kGemmNc;
constexpr int64_t kNr = kGemmNr;

// Below this many multiply-adds, skip the shared pool entirely — decode-phase matmuls
// (m == 1) are latency-sensitive and the dispatch overhead dominates.
constexpr int64_t kParallelWorkThreshold = 1 << 16;

constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

// Where one kc x nc block of op(B) lives in strip form: strip s of the block starts at
// data + s * strip_stride.
struct PanelBlock {
  const float* data;
  int64_t strip_stride;
};

// Packs the kc x nc block of op(B) with top-left element (p0, j0) into kNr-column
// strips: bp[strip][p * kNr + j] = op(B)[p0 + p][j0 + strip * kNr + j]. For GemmNN,
// op(B) = B is row-major [k, n] (ldb == n); for GemmNT, op(B) = B^T where B is
// row-major [n, k] (ldb == k). Columns past nc are zero-filled.
template <bool kTransposed>
void PackB(const float* b, int64_t ldb, int64_t p0, int64_t j0, int64_t kc, int64_t nc,
           float* bp) {
  for (int64_t jc = 0; jc < nc; jc += kNr) {
    const int64_t cols = std::min(kNr, nc - jc);
    for (int64_t p = 0; p < kc; ++p) {
      float* dst = bp + p * kNr;
      if constexpr (kTransposed) {
        for (int64_t j = 0; j < cols; ++j) {
          dst[j] = b[(j0 + jc + j) * ldb + (p0 + p)];
        }
      } else {
        const float* src = b + (p0 + p) * ldb + j0 + jc;
        for (int64_t j = 0; j < cols; ++j) {
          dst[j] = src[j];
        }
      }
      for (int64_t j = cols; j < kNr; ++j) {
        dst[j] = 0.0f;
      }
    }
    bp += kc * kNr;
  }
}

// Computes rows [r0, r1) x cols [c0, c1) of C = A * op(B) (+ C when accumulate),
// serially; `panels(pc, jc, kc, nc)` yields each B block. Each output element's
// reduction runs over k in kKc blocks in ascending order with a fixed intra-block
// order, so results are bitwise identical no matter how the row/column ranges are
// partitioned across calls.
template <typename Panels>
void GemmSlab(const TensorKernels& kern, const float* a, float* c, int64_t k, int64_t ldc,
              int64_t r0, int64_t r1, int64_t c0, int64_t c1, bool accumulate,
              const Panels& panels) {
  for (int64_t jc = c0; jc < c1; jc += kNc) {
    const int64_t nc = std::min(kNc, c1 - jc);
    for (int64_t pc = 0; pc < k; pc += kKc) {
      const int64_t kc = std::min(kKc, k - pc);
      const PanelBlock blk = panels(pc, jc, kc, nc);
      const bool assign = !accumulate && pc == 0;
      for (int64_t ic = r0; ic < r1; ic += kMc) {
        kern.gemm_block(a + ic * k + pc, k, blk.data, blk.strip_stride, kc, c + ic * ldc + jc,
                        ldc, std::min(kMc, r1 - ic), nc, assign);
      }
    }
  }
}

// Shared driver: picks the parallel dimension (rows vs columns, whichever has more
// cache blocks) and work-shares grain-aligned slabs on the shared pool. The slab
// boundaries never affect per-element reduction order, so any thread count produces
// bit-identical output. Column slabs start at multiples of kNc, so whole strips.
template <typename Panels>
void GemmDriver(const float* a, float* c, int64_t m, int64_t k, int64_t n, bool accumulate,
                const Panels& panels) {
  if (m <= 0 || n <= 0) {
    return;
  }
  if (k <= 0) {
    if (!accumulate) {
      std::memset(c, 0, static_cast<size_t>(m) * static_cast<size_t>(n) * sizeof(float));
    }
    return;
  }
  const TensorKernels& kern = ActiveTensorKernels();
  if (m * n * k < kParallelWorkThreshold) {
    GemmSlab(kern, a, c, k, n, 0, m, 0, n, accumulate, panels);
    return;
  }
  if (CeilDiv(m, kMc) >= CeilDiv(n, kNc)) {
    ParallelFor(0, m, kMc, [&](int64_t r0, int64_t r1) {
      GemmSlab(kern, a, c, k, n, r0, r1, 0, n, accumulate, panels);
    });
  } else {
    ParallelFor(0, n, kNc, [&](int64_t c0, int64_t c1) {
      GemmSlab(kern, a, c, k, n, 0, m, c0, c1, accumulate, panels);
    });
  }
}

// GemmNN / GemmNT: op(B) is packed per block into a per-thread buffer.
template <bool kTransposed>
void GemmUnpacked(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
                  bool accumulate) {
  const int64_t ldb = kTransposed ? k : n;
  GemmDriver(a, c, m, k, n, accumulate, [&](int64_t pc, int64_t jc, int64_t kc, int64_t nc) {
    thread_local std::vector<float> b_pack;
    b_pack.resize(static_cast<size_t>(CeilDiv(kNc, kNr) * kNr * kKc));
    PackB<kTransposed>(b, ldb, pc, jc, kc, nc, b_pack.data());
    return PanelBlock{b_pack.data(), kc * kNr};
  });
}

}  // namespace

PackedWeights::PackedWeights(const Tensor& w) {
  if (w.empty()) {
    return;
  }
  CHECK_EQ(w.rank(), 2);
  n_ = w.dim(0);
  k_ = w.dim(1);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const size_t bytes = (static_cast<size_t>(this->bytes()) + 63) / 64 * 64;
  panels_.reset(static_cast<float*>(std::aligned_alloc(64, bytes)));
  CHECK(panels_ != nullptr) << "out of memory packing a " << n_ << "x" << k_ << " weight";
  // One strip is the full k deep: the kc block at pc starts pc * kNr into it.
  PackB<true>(w.data(), k_, 0, 0, k_, n_, panels_.get());
}

int64_t PackedWeights::bytes() const {
  return CeilDiv(n_, kNr) * kNr * k_ * static_cast<int64_t>(sizeof(float));
}

void GemmNN(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate) {
  GemmUnpacked<false>(a, b, c, m, k, n, accumulate);
}

void GemmNT(const float* a, const float* b, float* c, int64_t m, int64_t k, int64_t n,
            bool accumulate) {
  GemmUnpacked<true>(a, b, c, m, k, n, accumulate);
}

void GemmPacked(const float* a, const PackedWeights& w, float* c, int64_t m,
                bool accumulate) {
  const int64_t k = w.cols();
  GemmDriver(a, c, m, k, w.rows(), accumulate,
             [&](int64_t pc, int64_t jc, int64_t /*kc*/, int64_t /*nc*/) {
               return PanelBlock{w.panels() + (jc / kNr) * k * kNr + pc * kNr, k * kNr};
             });
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  CHECK_EQ(a.rank(), 2);
  CHECK_EQ(b.rank(), 2);
  CHECK_EQ(a.dim(1), b.dim(0));
  Tensor c({a.dim(0), b.dim(1)});
  GemmNN(a.data(), b.data(), c.data(), a.dim(0), a.dim(1), b.dim(1));
  return c;
}

Tensor MatMulTransposedB(const Tensor& x, const Tensor& w) {
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(w.rank(), 2);
  CHECK_EQ(x.dim(1), w.dim(1));
  Tensor c({x.dim(0), w.dim(0)});
  GemmNT(x.data(), w.data(), c.data(), x.dim(0), x.dim(1), w.dim(0));
  return c;
}

Tensor MatMulPacked(const Tensor& x, const PackedWeights& w) {
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(x.dim(1), w.cols());
  Tensor c({x.dim(0), w.rows()});
  GemmPacked(x.data(), w, c.data(), x.dim(0));
  return c;
}

}  // namespace hcache
