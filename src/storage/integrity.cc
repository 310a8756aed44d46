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
    case ChunkVerdict::kCorrupt:
      return "corrupt";
  }
  return "?";
}

ChunkVerdict VerifyChunkBytes(const void* data, int64_t bytes, int64_t* checked_bytes) {
  if (checked_bytes != nullptr) {
    *checked_bytes = 0;
  }
  ChunkInfo info;
  if (ParseChunkHeader(data, bytes, &info) != ChunkParse::kOk) {
    return ChunkVerdict::kCorrupt;
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
  if (ParseChunkHeader(data, bytes, &info) != ChunkParse::kOk) {
    return ChunkVerdict::kCorrupt;
  }
  // Checksum the payload while it moves.
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
