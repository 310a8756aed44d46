// Storage layout analysis for hidden states (paper §4.2.1, challenge C2) and the
// on-storage chunk format shared by every backend.
//
// Hidden states are *generated* layer-before-token (Fig 6a) but *restored*
// token-before-layer (Fig 6b). A layout can be contiguous for at most one of the two
// orders; the other order then issues many small IOs. This module turns a layout choice
// into concrete IO patterns that the SSD model (and the real chunk store) execute:
//
//   kLayerChunked (HCache's choice): tokens of one layer are grouped into fixed
//     64-token chunks, chunks striped round-robin over the SSDs. Restoration of a layer
//     reads ceil(n/64) large contiguous chunks; direct saving of one decode step would
//     touch every layer's open chunk (small writes) — which is exactly why the
//     two-stage saver exists.
//
//   kTokenMajor (the save-optimized strawman): each token's hidden states across all
//     layers are contiguous. One decode step appends one record per sequence (a single
//     medium write), but restoring a layer gathers n strided rows (small reads).
//
// Chunks are additionally *encoded*: restoration is bound by bytes moved per token
// (§3.2), so the precision of the stored rows is a first-class lever. A ChunkCodec
// selects the element encoding, and every stored chunk is self-describing via a
// versioned ChunkHeader so backends can hold a mix of codecs.
#ifndef HCACHE_SRC_STORAGE_LAYOUT_H_
#define HCACHE_SRC_STORAGE_LAYOUT_H_

#include <cstdint>

#include "src/model/config.h"

namespace hcache {

enum class StorageLayout { kLayerChunked, kTokenMajor };

// The paper fixes chunks at 64 tokens (§4.2.1); the ablation bench sweeps this.
inline constexpr int64_t kDefaultChunkTokens = 64;

// --- chunk codec: the element encoding of stored rows ---
//
//   kFp32 — raw floats, bit-lossless round trip (the functional plane's default, so
//           lossless-restoration tests stay exact).
//   kFp16 — IEEE half, round-to-nearest-even, saturating at ±65504. Halves the bytes;
//           error ≤ 0.5 ulp of half per element. The serving default: the paper's
//           hidden-state IO model is already sized for FP16 transport.
//   kInt8 — per-row symmetric quantization (CacheGen-style, §7): one FP32 scale
//           max|row|/127 per token row, then rounded int8 values. ~4x vs FP32; error
//           ≤ scale/2 per element (quantize.h's RowErrorBound).
enum class ChunkCodec : uint8_t { kFp32 = 0, kFp16 = 1, kInt8 = 2 };

const char* ChunkCodecName(ChunkCodec codec);

// Payload bytes one row of `cols` elements occupies under `codec` (the per-token
// transmission cost the restoration model charges). kInt8 carries its per-row scale.
int64_t CodecRowBytes(ChunkCodec codec, int64_t cols);

// Self-describing header at the front of every encoded chunk. 24 bytes, little-endian.
// codec.cc's ParseChunkHeader is the only reader of its fields.
//
// --- storage-format note (durability protocol) ---
//
//   v2 — {magic, version, codec, rows, cols} followed by two CRC32C checksums
//        (Castagnoli polynomial, ~0 init, final xor, i.e. the SSE4.2 `crc32`
//        instruction's convention):
//          payload_crc32c — over the rows * CodecRowBytes payload that follows the
//                           header. Backends verify it on EVERY read of a chunk
//                           (ReadChunk, ReadChunks, tiered promotion) and report a
//                           mismatch as kChunkCorrupt, never as decoded data.
//          header_crc32c  — over the first 20 header bytes, so a bit flip inside
//                           the header itself (rows, cols, codec) is detected
//                           before any field is trusted.
//   v2 is the only chunk kind a backend stores. Versions below 2 (v0 headerless
//   FP32, v1 without checksums) are rejected: a chunk bearing the magic with any
//   other version, and bytes without the magic, read as kChunkCorrupt.
//
//   Crash consistency: FileBackend publishes a chunk by writing `<path>.tmp`,
//   fsync-ing it, then rename(2)-ing it over the final path — a reader never
//   observes a half-written chunk, and a crash leaves at worst an orphaned `.tmp`
//   the startup recovery scan (or hcache-fsck) sweeps.
struct ChunkHeader {
  uint32_t magic = 0;    // kChunkMagic
  uint16_t version = 0;  // kChunkFormatVersion
  uint8_t codec = 0;     // ChunkCodec
  uint8_t reserved = 0;
  uint32_t rows = 0;     // tokens stored in this chunk
  uint32_t cols = 0;     // elements per row
  uint32_t payload_crc32c = 0;  // CRC32C over the payload (rows * CodecRowBytes)
  uint32_t header_crc32c = 0;   // CRC32C over the 20 header bytes above
};
static_assert(sizeof(ChunkHeader) == 24, "header layout is part of the storage format");

inline constexpr uint32_t kChunkMagic = 0x4b434348;  // "HCCK" little-endian
inline constexpr uint16_t kChunkFormatVersion = 2;

// Total stored size of an encoded chunk: header + rows * CodecRowBytes.
int64_t EncodedChunkBytes(ChunkCodec codec, int64_t rows, int64_t cols);

// True when `stored_bytes` is the exact size of a chunk encoded under `expected` (the
// codec the context's writer is configured with) holding between `min_rows` and
// `max_rows` rows of `cols` elements. The existence check completeness scans
// (LayerComplete, CanRestore) use when only ChunkSize() is known: a partially saved
// chunk fails it, so restoration reports the context incomplete and the caller falls
// back to recompute instead of CHECK-failing mid-decode. The codec must be pinned by
// the caller — accepting ANY codec's row stride would let a half-saved FP32 chunk
// alias to a full FP16 chunk (r rows x 4 bytes == 2r rows x 2 bytes, a deterministic
// 2:1 aliasing).
bool ChunkSizeCoversRows(int64_t stored_bytes, int64_t min_rows, int64_t max_rows,
                         int64_t cols, ChunkCodec expected);

struct IoPattern {
  int64_t num_ios = 0;
  int64_t io_size = 0;  // bytes per IO

  int64_t total_bytes() const { return num_ios * io_size; }
};

// IO pattern to restore ONE layer's hidden states for n history tokens. `codec` sets
// the per-row transmission bytes; the default kFp16 matches the paper's FP16 transport
// (and ModelConfig::state_dtype_bytes == 2). The 24-byte chunk header is amortized to
// noise (< 0.1% of a 64-token chunk) and not charged.
IoPattern RestoreLayerPattern(StorageLayout layout, const ModelConfig& cfg, int64_t n,
                              int64_t chunk_tokens = kDefaultChunkTokens,
                              ChunkCodec codec = ChunkCodec::kFp16);

// IO pattern to restore ONE layer's offloaded KV cache for n history tokens. KV chunks
// mirror the hidden chunk geometry but rows are 2 * kv_dim wide at the FP16 state
// dtype (KvBytesPerTokenLayer), independent of the hidden-state codec.
IoPattern KvRestoreLayerPattern(StorageLayout layout, const ModelConfig& cfg, int64_t n,
                                int64_t chunk_tokens = kDefaultChunkTokens);

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_LAYOUT_H_
