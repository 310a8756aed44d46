// The durability plane's integrity primitives: CRC32C kernel correctness across
// SIMD tiers, v2 header sealing, VerifyChunkBytes' two-way verdict — the contract
// every backend's verified read path is built on — and the rejection of retired
// format versions.
#include "src/storage/integrity.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/codec_simd.h"
#include "src/storage/file_backend.h"
#include "src/storage/fsck.h"
#include "src/storage/layout.h"
#include "src/storage/memory_backend.h"
#include "tests/storage/sealed_chunk.h"

namespace hcache {
namespace {

// Restores whatever tier was active when the test started (other suites in this
// process depend on the default dispatch).
class TierGuard {
 public:
  TierGuard() : saved_(ActiveSimdTier()) {}
  ~TierGuard() { ForceSimdTier(saved_); }

 private:
  SimdTier saved_;
};

TEST(Crc32cTest, KnownVectors) {
  TierGuard guard;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    ForceSimdTier(static_cast<SimdTier>(t));
    SCOPED_TRACE(SimdTierName(ActiveSimdTier()));
    // The canonical Castagnoli check value.
    EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(Crc32c("", 0), 0u);
    // RFC 3720 (iSCSI) test vectors.
    const std::vector<uint8_t> zeros(32, 0x00);
    EXPECT_EQ(Crc32c(zeros.data(), 32), 0x8A9136AAu);
    const std::vector<uint8_t> ones(32, 0xFF);
    EXPECT_EQ(Crc32c(ones.data(), 32), 0x62A8AB43u);
  }
}

TEST(Crc32cTest, TiersMatchScalarOnRaggedLengths) {
  TierGuard guard;
  std::mt19937 rng(20260807);
  std::vector<uint8_t> buf(4096 + 9);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  const CodecKernels& scalar = CodecKernelsFor(SimdTier::kScalar);
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9},
                          int64_t{63}, int64_t{64}, int64_t{65}, int64_t{1000},
                          static_cast<int64_t>(buf.size())}) {
    const uint32_t want = scalar.crc32c(0xFFFFFFFFu, buf.data(), n) ^ 0xFFFFFFFFu;
    for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
      ForceSimdTier(static_cast<SimdTier>(t));
      EXPECT_EQ(Crc32c(buf.data(), n), want)
          << SimdTierName(ActiveSimdTier()) << " n=" << n;
      // Unaligned start (the payload begins 24 bytes into the chunk).
      if (n + 3 <= static_cast<int64_t>(buf.size())) {
        const uint32_t want_off =
            scalar.crc32c(0xFFFFFFFFu, buf.data() + 3, n) ^ 0xFFFFFFFFu;
        EXPECT_EQ(Crc32c(buf.data() + 3, n), want_off)
            << SimdTierName(ActiveSimdTier()) << " n=" << n << " off=3";
      }
    }
  }
}

TEST(Crc32cTest, KernelStateChainsAcrossSplits) {
  // The kernel operates on raw shift-register state, so CRC(a ++ b) must equal
  // feeding a then b without re-initializing — what an incremental verifier does.
  std::mt19937 rng(7);
  std::vector<uint8_t> buf(1 << 12);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  const uint32_t whole = Crc32c(buf.data(), static_cast<int64_t>(buf.size()));
  const CodecKernels& k = ActiveCodecKernels();
  for (const size_t split : {size_t{0}, size_t{1}, size_t{100}, buf.size() / 2,
                             buf.size() - 1, buf.size()}) {
    uint32_t crc = 0xFFFFFFFFu;
    crc = k.crc32c(crc, buf.data(), static_cast<int64_t>(split));
    crc = k.crc32c(crc, buf.data() + split, static_cast<int64_t>(buf.size() - split));
    EXPECT_EQ(crc ^ 0xFFFFFFFFu, whole) << "split=" << split;
  }
}

TEST(VerifyChunkBytesTest, SealedV2ChunkVerifies) {
  const auto chunk = SealedChunk(16, 32, 1);
  const int64_t bytes = static_cast<int64_t>(chunk.size());

  ChunkInfo info;
  ASSERT_EQ(ParseChunkHeader(chunk.data(), bytes, &info), ChunkParse::kOk);
  EXPECT_EQ(info.rows, 16);
  EXPECT_EQ(info.cols, 32);
  EXPECT_EQ(info.payload_crc32c,
            Crc32c(chunk.data() + sizeof(ChunkHeader), bytes - sizeof(ChunkHeader)));

  int64_t checked = 0;
  EXPECT_EQ(VerifyChunkBytes(chunk.data(), bytes, &checked), ChunkVerdict::kOkVerified);
  EXPECT_EQ(checked, bytes - static_cast<int64_t>(sizeof(ChunkHeader)));
}

TEST(VerifyChunkBytesTest, EveryPayloadBitFlipIsDetectedOnASmallChunk) {
  // Exhaustive over a small chunk: CRC32C catches ALL single-bit payload flips.
  const auto clean = SealedChunk(2, 4, 1);
  const int64_t bytes = static_cast<int64_t>(clean.size());
  for (size_t byte = sizeof(ChunkHeader); byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto chunk = clean;
      chunk[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_EQ(VerifyChunkBytes(chunk.data(), bytes, nullptr), ChunkVerdict::kCorrupt)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(VerifyChunkBytesTest, HeaderFieldFlipIsDetectedByHeaderCrc) {
  const auto clean = SealedChunk(16, 32, 1);
  const int64_t bytes = static_cast<int64_t>(clean.size());
  // Flip bits across the descriptor fields (version/codec/rows/cols) and the stored
  // payload CRC itself — the header CRC covers all of them.
  for (const size_t byte : {size_t{4}, size_t{6}, size_t{8}, size_t{12}, size_t{16}}) {
    auto chunk = clean;
    chunk[byte] ^= 0x10;
    EXPECT_EQ(VerifyChunkBytes(chunk.data(), bytes, nullptr), ChunkVerdict::kCorrupt)
        << "byte " << byte;
  }
}

TEST(VerifyChunkBytesTest, TruncationIsDetected) {
  const auto chunk = SealedChunk(16, 32, 1);
  for (const int64_t keep : {static_cast<int64_t>(chunk.size()) - 1,
                             static_cast<int64_t>(chunk.size()) / 2,
                             static_cast<int64_t>(sizeof(ChunkHeader)), int64_t{16},
                             int64_t{5}}) {
    EXPECT_EQ(VerifyChunkBytes(chunk.data(), keep, nullptr), ChunkVerdict::kCorrupt)
        << "kept " << keep;
  }
}

TEST(VerifyChunkBytesTest, NoMagicIsCorrupt) {
  // Every stored chunk is sealed, so bytes without the chunk magic are damage — a
  // flipped magic bit reads exactly like this — on both verification entry points.
  std::vector<uint8_t> blob(512, 0xAB);
  std::vector<uint8_t> dst(512);
  int64_t checked = -1;
  EXPECT_EQ(VerifyChunkBytes(blob.data(), 512, &checked), ChunkVerdict::kCorrupt);
  EXPECT_EQ(checked, 0);
  EXPECT_EQ(VerifyAndCopyChunk(blob.data(), 512, dst.data(), &checked),
            ChunkVerdict::kCorrupt);
  EXPECT_EQ(checked, 0);
  // So are headerless FP32 rows (the retired v0 format) and empty input.
  std::vector<float> legacy(64, 1.5f);
  EXPECT_EQ(VerifyChunkBytes(legacy.data(), 64 * 4, nullptr), ChunkVerdict::kCorrupt);
  EXPECT_EQ(VerifyChunkBytes(nullptr, 0, nullptr), ChunkVerdict::kCorrupt);
  // A sealed chunk with bit 0 (inside the magic) flipped.
  auto flipped = SealedChunk(16, 32, 1);
  flipped[0] ^= 0x01;
  EXPECT_EQ(VerifyChunkBytes(flipped.data(), static_cast<int64_t>(flipped.size()), nullptr),
            ChunkVerdict::kCorrupt);
}

TEST(VerifyChunkBytesTest, V1HeaderIsRejectedAsCorrupt) {
  // A 16-byte v1 chunk (magic, version 1, no checksums) written by an older build.
  // Only v2 is read: the retired version is a detected corruption on every path —
  // the verdict, a backend read, and fsck — so callers recompute, never decode it.
  const int64_t rows = 4, cols = 8;
  const int64_t v1_header = 16;
  const int64_t stride = CodecRowBytes(ChunkCodec::kFp32, cols);
  std::vector<uint8_t> chunk(static_cast<size_t>(v1_header + rows * stride), 0x3C);
  const uint32_t magic = kChunkMagic;
  const uint16_t version = 1;
  const uint32_t rows32 = static_cast<uint32_t>(rows), cols32 = static_cast<uint32_t>(cols);
  std::memcpy(chunk.data() + 0, &magic, 4);
  std::memcpy(chunk.data() + 4, &version, 2);
  chunk[6] = 0;  // kFp32
  chunk[7] = 0;
  std::memcpy(chunk.data() + 8, &rows32, 4);
  std::memcpy(chunk.data() + 12, &cols32, 4);
  const int64_t bytes = static_cast<int64_t>(chunk.size());

  ChunkInfo info;
  EXPECT_EQ(ParseChunkHeader(chunk.data(), bytes, &info), ChunkParse::kBadHeader);
  EXPECT_FALSE(InspectChunk(chunk.data(), bytes, &info));
  EXPECT_EQ(VerifyChunkBytes(chunk.data(), bytes, nullptr), ChunkVerdict::kCorrupt);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("hcache_integrity_v1_" + std::to_string(::getpid()));
  {
    MemoryBackend memory(1 << 16);
    FileBackend file(std::vector<std::string>{(dir / "d0").string()}, 1 << 16);
    for (StorageBackend* store : {static_cast<StorageBackend*>(&memory),
                                  static_cast<StorageBackend*>(&file)}) {
      SCOPED_TRACE(store->Name());
      ASSERT_TRUE(store->WriteChunk({1, 0, 0}, chunk.data(), bytes));
      std::vector<uint8_t> buf(static_cast<size_t>(bytes), 0);
      EXPECT_EQ(store->ReadChunk({1, 0, 0}, buf.data(), bytes), kChunkCorrupt);
      // A v1 chunk torn inside its header is a partial write, not corruption.
      ASSERT_TRUE(store->WriteChunk({2, 0, 0}, chunk.data(), 12));

      const FsckReport report = RunFsck(store);
      EXPECT_EQ(report.chunks_scanned, 2);
      EXPECT_EQ(report.corrupt, 1);
      EXPECT_EQ(report.partial, 1);
      EXPECT_EQ(report.clean, 0);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST(VerifyChunkBytesTest, VerdictStableAcrossSimdTiers) {
  TierGuard guard;
  const auto clean = SealedChunk(16, 32, 1);
  auto corrupt = clean;
  corrupt[sizeof(ChunkHeader) + 17] ^= 0x04;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    ForceSimdTier(static_cast<SimdTier>(t));
    SCOPED_TRACE(SimdTierName(ActiveSimdTier()));
    EXPECT_EQ(VerifyChunkBytes(clean.data(), static_cast<int64_t>(clean.size()), nullptr),
              ChunkVerdict::kOkVerified);
    EXPECT_EQ(
        VerifyChunkBytes(corrupt.data(), static_cast<int64_t>(corrupt.size()), nullptr),
        ChunkVerdict::kCorrupt);
  }
}

}  // namespace
}  // namespace hcache
