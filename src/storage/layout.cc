#include "src/storage/layout.h"

#include "src/common/logging.h"

namespace hcache {

const char* ChunkCodecName(ChunkCodec codec) {
  switch (codec) {
    case ChunkCodec::kFp32:
      return "fp32";
    case ChunkCodec::kFp16:
      return "fp16";
    case ChunkCodec::kInt8:
      return "int8";
  }
  return "?";
}

int64_t CodecRowBytes(ChunkCodec codec, int64_t cols) {
  CHECK_GT(cols, 0);
  switch (codec) {
    case ChunkCodec::kFp32:
      return cols * 4;
    case ChunkCodec::kFp16:
      return cols * 2;
    case ChunkCodec::kInt8:
      return cols + static_cast<int64_t>(sizeof(float));  // values + per-row scale
  }
  return cols * 4;
}

int64_t EncodedChunkBytes(ChunkCodec codec, int64_t rows, int64_t cols) {
  CHECK_GE(rows, 0);
  return static_cast<int64_t>(sizeof(ChunkHeader)) + rows * CodecRowBytes(codec, cols);
}

bool ChunkSizeCoversRows(int64_t stored_bytes, int64_t min_rows, int64_t max_rows,
                         int64_t cols, ChunkCodec expected) {
  CHECK_GT(cols, 0);
  CHECK_GE(max_rows, min_rows);
  // Header + rows * the EXPECTED codec's row stride must land exactly on a row
  // boundary with a row count in range.
  const int64_t row = CodecRowBytes(expected, cols);
  const int64_t payload = stored_bytes - static_cast<int64_t>(sizeof(ChunkHeader));
  if (payload < 0 || payload % row != 0) {
    return false;
  }
  return payload / row >= min_rows && payload / row <= max_rows;
}

namespace {

// Shared geometry of the per-layer restore read: chunked -> few large IOs of
// `chunk_tokens` rows; token-major -> one strided row per token (the layer's slice
// inside each token record).
IoPattern RestorePatternForRowBytes(StorageLayout layout, int64_t n, int64_t chunk_tokens,
                                    int64_t row_bytes) {
  CHECK_GT(chunk_tokens, 0);
  IoPattern p;
  if (n <= 0) {
    return p;
  }
  switch (layout) {
    case StorageLayout::kLayerChunked:
      p.num_ios = (n + chunk_tokens - 1) / chunk_tokens;
      p.io_size = chunk_tokens * row_bytes;
      break;
    case StorageLayout::kTokenMajor:
      p.num_ios = n;
      p.io_size = row_bytes;
      break;
  }
  return p;
}

}  // namespace

IoPattern RestoreLayerPattern(StorageLayout layout, const ModelConfig& cfg, int64_t n,
                              int64_t chunk_tokens, ChunkCodec codec) {
  return RestorePatternForRowBytes(layout, n, chunk_tokens,
                                   CodecRowBytes(codec, cfg.hidden_dim));
}

IoPattern KvRestoreLayerPattern(StorageLayout layout, const ModelConfig& cfg, int64_t n,
                                int64_t chunk_tokens) {
  return RestorePatternForRowBytes(layout, n, chunk_tokens, cfg.KvBytesPerTokenLayer());
}

}  // namespace hcache
