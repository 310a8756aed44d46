#include "src/storage/integrity.h"

#include <cstring>

#include "src/storage/codec.h"
#include "src/storage/codec_simd.h"
#include "src/storage/layout.h"

namespace hcache {

const char* ChunkVerdictName(ChunkVerdict verdict) {
  switch (verdict) {
    case ChunkVerdict::kOkVerified:
      return "ok-verified";
    case ChunkVerdict::kOkUnverified:
      return "ok-unverified";
    case ChunkVerdict::kCorrupt:
      return "corrupt";
  }
  return "?";
}

namespace {

// Parses the header and maps the outcome onto a verdict; kOk means "sealed chunk,
// payload CRC still to check" (the caller does that, fused or not).
ChunkVerdict ParseVerdict(const void* data, int64_t bytes, ChunkInfo* info) {
  switch (ParseChunkHeader(data, bytes, info)) {
    case ChunkParse::kOk:
      return ChunkVerdict::kOkVerified;
    case ChunkParse::kOpaque:
      return ChunkVerdict::kOkUnverified;
    case ChunkParse::kBadHeader:
    case ChunkParse::kTruncated:
      break;
  }
  // The bytes CLAIM the chunk format (the magic is present) but fail it — header bit
  // flip, bad header CRC, an unsupported version, or truncation: a detected
  // corruption, not an opaque blob.
  return ChunkVerdict::kCorrupt;
}

}  // namespace

ChunkVerdict VerifyChunkBytes(const void* data, int64_t bytes, int64_t* checked_bytes) {
  if (checked_bytes != nullptr) {
    *checked_bytes = 0;
  }
  ChunkInfo info;
  const ChunkVerdict verdict = ParseVerdict(data, bytes, &info);
  if (verdict != ChunkVerdict::kOkVerified) {
    return verdict;
  }
  const int64_t payload_bytes = bytes - static_cast<int64_t>(sizeof(ChunkHeader));
  if (Crc32c(static_cast<const uint8_t*>(data) + sizeof(ChunkHeader), payload_bytes) !=
      info.payload_crc32c) {
    return ChunkVerdict::kCorrupt;
  }
  if (checked_bytes != nullptr) {
    *checked_bytes = payload_bytes;
  }
  return ChunkVerdict::kOkVerified;
}

ChunkVerdict VerifyAndCopyChunk(const void* data, int64_t bytes, void* dst,
                                int64_t* checked_bytes) {
  if (checked_bytes != nullptr) {
    *checked_bytes = 0;
  }
  ChunkInfo info;
  const ChunkVerdict verdict = ParseVerdict(data, bytes, &info);
  if (verdict == ChunkVerdict::kOkUnverified && data != nullptr && bytes > 0) {
    std::memcpy(dst, data, static_cast<size_t>(bytes));  // opaque: plain copy
  }
  if (verdict != ChunkVerdict::kOkVerified) {
    return verdict;
  }
  // Sealed chunk: checksum the payload while it moves.
  const auto* src = static_cast<const uint8_t*>(data);
  auto* out = static_cast<uint8_t*>(dst);
  constexpr size_t kHeader = sizeof(ChunkHeader);
  std::memcpy(out, src, kHeader);
  const int64_t payload_bytes = bytes - static_cast<int64_t>(kHeader);
  const uint32_t crc = ActiveCodecKernels().crc32c_copy(0xFFFFFFFFu, src + kHeader,
                                                        out + kHeader, payload_bytes) ^
                       0xFFFFFFFFu;
  if (crc != info.payload_crc32c) {
    return ChunkVerdict::kCorrupt;  // dst contents unspecified
  }
  if (checked_bytes != nullptr) {
    *checked_bytes = payload_bytes;
  }
  return ChunkVerdict::kOkVerified;
}

}  // namespace hcache
