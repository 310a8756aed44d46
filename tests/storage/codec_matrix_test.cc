// Bit-exactness matrix for the SIMD codec tiers: every codec x every ISA path the
// machine can execute x aligned/unaligned/ragged-tail lengths must produce bytes
// identical to the scalar reference — including the column-range decodes the KV
// read path uses to de-interleave [K | V] rows. This is the contract that keeps
// restored state bit-stable across heterogeneous replicas (codec_simd.h).
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/codec_simd.h"

namespace hcache {
namespace {

float FloatOfBits(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Every tier this machine can actually execute (always includes kScalar).
std::vector<SimdTier> RunnableTiers() {
  std::vector<SimdTier> tiers;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

// Restores the pre-test active tier even when an assertion fails mid-loop.
class CodecMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { entry_tier_ = ActiveSimdTier(); }
  void TearDown() override { ForceSimdTier(entry_tier_); }

 private:
  SimdTier entry_tier_ = SimdTier::kScalar;
};

// Deterministic input mix: dense coverage of the value classes the fixups exist
// for (half-range normals, overflow boundary, Inf/NaN/sNaN, subnormals, signed
// zero, int8 rounding ties), padded with an LCG sweep of ordinary magnitudes.
std::vector<float> SpecialsInput(int64_t n) {
  static const float kSpecials[] = {
      0.0f, -0.0f, 1.0f, -1.0f, 0.5f, -2.5f, 3.5f, -3.5f,
      65504.0f, -65504.0f, 65519.9f, -65519.9f, 65520.0f, -65520.0f, 70000.0f,
      std::numeric_limits<float>::infinity(), -std::numeric_limits<float>::infinity(),
      std::numeric_limits<float>::quiet_NaN(), -std::numeric_limits<float>::quiet_NaN(),
      FloatOfBits(0x7f800001u),   // signaling NaN, minimal payload
      FloatOfBits(0xffa00000u),   // negative signaling NaN
      6.103515625e-05f,           // smallest normal half
      6.0975551605224609375e-05f, // largest subnormal half
      5.9604644775390625e-08f, -5.9604644775390625e-08f,  // smallest subnormal half
      2.9802322387695312e-08f,    // half of it: the round-to-zero tie
      FloatOfBits(0x00000001u),   // smallest FP32 subnormal
      1.5e-5f, -7.7e-6f, 127.0f, -127.5f, 126.5f, 0.49999997f,
  };
  std::vector<float> v(static_cast<size_t>(n));
  uint32_t lcg = 0x2545f491u;
  for (int64_t i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      v[static_cast<size_t>(i)] =
          kSpecials[static_cast<size_t>(i / 3) % (sizeof(kSpecials) / sizeof(float))];
    } else {
      lcg = lcg * 1664525u + 1013904223u;
      // [-8, 8): the O(1..100) hidden-state regime plus sign coverage.
      v[static_cast<size_t>(i)] =
          (static_cast<float>(lcg >> 8) / static_cast<float>(1 << 24) - 0.5f) * 16.0f;
    }
  }
  return v;
}

// Lengths crossing every vector width boundary: full blocks, off-by-one around
// 8/16/32-lane multiples, and short ragged tails the scalar epilogue handles.
const int64_t kLengths[] = {1, 2, 3, 5, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 63, 64, 65, 200};

TEST_F(CodecMatrixTest, Fp16EncodeMatchesScalarEveryTierAndLength) {
  const CodecKernels& ref = CodecKernelsFor(SimdTier::kScalar);
  for (SimdTier tier : RunnableTiers()) {
    const CodecKernels& k = CodecKernelsFor(tier);
    for (int64_t n : kLengths) {
      const std::vector<float> src = SpecialsInput(n + 3);
      for (int64_t offset = 0; offset < 3; ++offset) {  // unaligned starts
        std::vector<uint16_t> got(static_cast<size_t>(n), 0xdeadu);
        std::vector<uint16_t> want(static_cast<size_t>(n), 0xbeefu);
        k.fp16_encode(src.data() + offset, got.data(), n);
        ref.fp16_encode(src.data() + offset, want.data(), n);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 static_cast<size_t>(n) * sizeof(uint16_t)))
            << SimdTierName(tier) << " n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST_F(CodecMatrixTest, Fp16DecodeMatchesLutForAll65536Patterns) {
  const float* lut = Fp16DecodeTable();
  std::vector<uint16_t> bits(1u << 16);
  for (uint32_t i = 0; i < (1u << 16); ++i) {
    bits[i] = static_cast<uint16_t>(i);
  }
  std::vector<float> got(1u << 16);
  for (SimdTier tier : RunnableTiers()) {
    const CodecKernels& k = CodecKernelsFor(tier);
    k.fp16_decode(bits.data(), got.data(), 1 << 16);
    ASSERT_EQ(0, std::memcmp(got.data(), lut, (1u << 16) * sizeof(float)))
        << SimdTierName(tier) << " decode diverges from the scalar LUT";
  }
}

TEST_F(CodecMatrixTest, Fp16DecodeRaggedTailsAndUnalignedStarts) {
  const CodecKernels& ref = CodecKernelsFor(SimdTier::kScalar);
  std::vector<uint16_t> src(256 + 3);
  uint32_t lcg = 7u;
  for (auto& b : src) {
    lcg = lcg * 1664525u + 1013904223u;
    b = static_cast<uint16_t>(lcg >> 13);
  }
  for (SimdTier tier : RunnableTiers()) {
    const CodecKernels& k = CodecKernelsFor(tier);
    for (int64_t n : kLengths) {
      for (int64_t offset = 0; offset < 3; ++offset) {
        std::vector<float> got(static_cast<size_t>(n), -1.0f);
        std::vector<float> want(static_cast<size_t>(n), -2.0f);
        k.fp16_decode(src.data() + offset, got.data(), n);
        ref.fp16_decode(src.data() + offset, want.data(), n);
        ASSERT_EQ(0, std::memcmp(got.data(), want.data(),
                                 static_cast<size_t>(n) * sizeof(float)))
            << SimdTierName(tier) << " n=" << n << " offset=" << offset;
      }
    }
  }
}

TEST_F(CodecMatrixTest, Int8KernelsMatchScalarEveryTierAndLength) {
  const CodecKernels& ref = CodecKernelsFor(SimdTier::kScalar);
  for (SimdTier tier : RunnableTiers()) {
    const CodecKernels& k = CodecKernelsFor(tier);
    for (int64_t n : kLengths) {
      std::vector<float> src = SpecialsInput(n);
      // Add exact representable ties (i * 0.5 over the int8 range) so the RNE-vs-
      // half-away-from-zero fixup is exercised on every lane position.
      for (int64_t i = 0; i < n; ++i) {
        if (i % 4 == 1) {
          src[static_cast<size_t>(i)] =
              static_cast<float>((i % 509) - 254) * 0.5f;  // ties in [-127, 127]
        }
      }
      ASSERT_EQ(ref.max_abs(src.data(), n), k.max_abs(src.data(), n))
          << SimdTierName(tier) << " n=" << n;
      float ref_scale = 0.0f;
      std::vector<int8_t> want_q(static_cast<size_t>(n), 11);
      std::vector<int8_t> got_q(static_cast<size_t>(n), 22);
      Int8EncodeRow(src.data(), n, &ref_scale, want_q.data());  // dispatches active
      // Drive the tier under test through the same scale the scalar row computed so
      // the quantize comparison isolates the rounding path.
      const float scale = ref_scale;
      ref.int8_quantize(src.data(), 1.0f / scale, want_q.data(), n);
      k.int8_quantize(src.data(), 1.0f / scale, got_q.data(), n);
      ASSERT_EQ(0, std::memcmp(got_q.data(), want_q.data(), static_cast<size_t>(n)))
          << SimdTierName(tier) << " quantize n=" << n;
      std::vector<float> want_d(static_cast<size_t>(n), -1.0f);
      std::vector<float> got_d(static_cast<size_t>(n), -2.0f);
      ref.int8_dequantize(want_q.data(), scale, want_d.data(), n);
      k.int8_dequantize(got_q.data(), scale, got_d.data(), n);
      ASSERT_EQ(0, std::memcmp(got_d.data(), want_d.data(),
                               static_cast<size_t>(n) * sizeof(float)))
          << SimdTierName(tier) << " dequantize n=" << n;
    }
  }
}

// Whole-chunk round trip through the public codec entry points under ForceSimdTier:
// encoded payload bytes AND column-range decodes (the [K | V] de-interleave with its
// unaligned nonzero col0) must be identical to the scalar tier's.
TEST_F(CodecMatrixTest, ChunkEncodeAndColumnRangeDecodeMatchScalar) {
  const ChunkCodec codecs[] = {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8};
  const int64_t rows = 7;
  for (int64_t cols : {6L, 34L, 128L}) {
    const std::vector<float> src = SpecialsInput(rows * cols);
    for (ChunkCodec codec : codecs) {
      const int64_t payload_bytes = CodecRowBytes(codec, cols) * rows;
      // Scalar reference encode + full/split decode.
      ForceSimdTier(SimdTier::kScalar);
      std::vector<uint8_t> want_payload(static_cast<size_t>(payload_bytes), 0xa5);
      EncodeRowsInto(codec, src.data(), cols, rows, cols, want_payload.data());
      std::vector<uint8_t> chunk(sizeof(ChunkHeader) + static_cast<size_t>(payload_bytes));
      WriteChunkHeader(codec, rows, cols, chunk.data());
      std::memcpy(chunk.data() + sizeof(ChunkHeader), want_payload.data(),
                  static_cast<size_t>(payload_bytes));
      ChunkInfo info;
      ASSERT_TRUE(InspectChunk(chunk.data(), static_cast<int64_t>(chunk.size()), &info));
      const int64_t half = cols / 2;
      std::vector<float> want_lo(static_cast<size_t>(rows * half), -1.0f);
      std::vector<float> want_hi(static_cast<size_t>(rows * (cols - half)), -1.0f);
      DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, rows, 0,
                       half, want_lo.data(), half);
      DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, rows,
                       half, cols, want_hi.data(), cols - half);
      for (SimdTier tier : RunnableTiers()) {
        ASSERT_EQ(tier, ForceSimdTier(tier));
        std::vector<uint8_t> got_payload(static_cast<size_t>(payload_bytes), 0x5a);
        EncodeRowsInto(codec, src.data(), cols, rows, cols, got_payload.data());
        ASSERT_EQ(0, std::memcmp(got_payload.data(), want_payload.data(),
                                 static_cast<size_t>(payload_bytes)))
            << SimdTierName(tier) << " " << ChunkCodecName(codec) << " cols=" << cols;
        std::vector<float> got_lo(static_cast<size_t>(rows * half), -3.0f);
        std::vector<float> got_hi(static_cast<size_t>(rows * (cols - half)), -3.0f);
        DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, rows,
                         0, half, got_lo.data(), half);
        DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, rows,
                         half, cols, got_hi.data(), cols - half);
        ASSERT_EQ(0, std::memcmp(got_lo.data(), want_lo.data(),
                                 got_lo.size() * sizeof(float)))
            << SimdTierName(tier) << " " << ChunkCodecName(codec) << " K-half cols=" << cols;
        ASSERT_EQ(0, std::memcmp(got_hi.data(), want_hi.data(),
                                 got_hi.size() * sizeof(float)))
            << SimdTierName(tier) << " " << ChunkCodecName(codec) << " V-half cols=" << cols;
      }
    }
  }
}

TEST_F(CodecMatrixTest, ForceSimdTierClampsToDetected) {
  const SimdTier detected = DetectedSimdTier();
  // Requesting the maximum tier never selects something the CPU lacks.
  const SimdTier active = ForceSimdTier(SimdTier::kAvx512);
  EXPECT_LE(static_cast<int>(active), static_cast<int>(detected));
  EXPECT_EQ(SimdTier::kScalar, ForceSimdTier(SimdTier::kScalar));
  EXPECT_EQ(ActiveSimdTier(), SimdTier::kScalar);
}

TEST_F(CodecMatrixTest, TierNamesAreStable) {
  EXPECT_STREQ("scalar", SimdTierName(SimdTier::kScalar));
  EXPECT_STREQ("f16c", SimdTierName(SimdTier::kF16c));
  EXPECT_STREQ("avx2", SimdTierName(SimdTier::kAvx2));
  EXPECT_STREQ("avx512", SimdTierName(SimdTier::kAvx512));
}

}  // namespace
}  // namespace hcache
