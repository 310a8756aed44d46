#include "src/storage/storage_backend.h"

#include "src/common/logging.h"

namespace hcache {

StorageBackend::StorageBackend(int64_t chunk_bytes) : chunk_bytes_(chunk_bytes) {
  CHECK_GT(chunk_bytes_, 0);
}

int64_t StorageBackend::ReadChunk(const ChunkKey& key, void* buf,
                                  int64_t buf_bytes) const {
  ChunkReadRequest req{key, buf, buf_bytes, -1};
  ReadChunks(std::span<ChunkReadRequest>(&req, 1));
  return req.result;
}

int64_t StorageBackend::ReadChunkUnverified(const ChunkKey& key, void* buf,
                                            int64_t buf_bytes) const {
  ChunkReadRequest req{key, buf, buf_bytes, -1};
  ReadChunksUnverified(std::span<ChunkReadRequest>(&req, 1));
  return req.result;
}

bool StorageBackend::WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) {
  ChunkWriteRequest req{key, data, bytes, false};
  WriteChunks(std::span<ChunkWriteRequest>(&req, 1));
  return req.ok;
}

}  // namespace hcache
