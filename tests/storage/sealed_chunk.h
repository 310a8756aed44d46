// Sealed v2 chunks for storage tests and benches. Every backend verifies a chunk's
// header and payload CRC on read, so test data is sealed exactly like saved state:
// payload rows first, then WriteChunkHeader over them.
#ifndef HCACHE_TESTS_STORAGE_SEALED_CHUNK_H_
#define HCACHE_TESTS_STORAGE_SEALED_CHUNK_H_

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "src/common/logging.h"
#include "src/storage/codec.h"
#include "src/storage/layout.h"

namespace hcache {

// A sealed chunk of `rows` x `cols` FP32 elements. The payload bytes are a fixed
// function of `salt`, which also fills the first payload bytes, so distinct salts
// give distinct chunks.
inline std::vector<uint8_t> SealedChunk(int64_t rows, int64_t cols, uint32_t salt) {
  std::vector<uint8_t> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, rows, cols)));
  uint8_t* payload = chunk.data() + sizeof(ChunkHeader);
  const size_t payload_bytes = chunk.size() - sizeof(ChunkHeader);
  for (size_t i = 0; i < payload_bytes; ++i) {
    payload[i] = static_cast<uint8_t>(salt + i * 13);
  }
  std::memcpy(payload, &salt, std::min(sizeof(salt), payload_bytes));
  WriteChunkHeader(ChunkCodec::kFp32, rows, cols, chunk.data());
  return chunk;
}

// A sealed chunk of exactly `bytes` stored bytes: one FP32 row filling everything
// past the header. `bytes` - sizeof(ChunkHeader) must be a positive multiple of 4.
inline std::vector<uint8_t> SealedChunkOfBytes(int64_t bytes, uint32_t salt) {
  const int64_t payload_bytes = bytes - static_cast<int64_t>(sizeof(ChunkHeader));
  CHECK(payload_bytes > 0 && payload_bytes % 4 == 0) << "no FP32 row fills " << bytes;
  return SealedChunk(/*rows=*/1, payload_bytes / static_cast<int64_t>(sizeof(float)),
                     salt);
}

// True when the `bytes` at `data` are exactly SealedChunkOfBytes(bytes, salt).
inline bool IsSealedChunkOfBytes(const void* data, int64_t bytes, uint32_t salt) {
  return std::memcmp(data, SealedChunkOfBytes(bytes, salt).data(),
                     static_cast<size_t>(bytes)) == 0;
}

}  // namespace hcache

#endif  // HCACHE_TESTS_STORAGE_SEALED_CHUNK_H_
