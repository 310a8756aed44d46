// Abstract storage backend — the seam under the paper's storage manager (§4.2).
//
// Everything above this interface (the two-stage saver, the restoration read path,
// the functional engine, the serving engine's state registry) speaks in fixed-size
// chunks keyed by (context, layer, chunk_index). Everything below it decides where
// the bytes live:
//
//   FileBackend            — one chunk per file, striped round-robin across N
//                            device directories (the paper's NVMe array, §4.2.1).
//   MemoryBackend          — DRAM-resident chunks (the paper's host-memory tier,
//                            §6.2.1; also the fast path for tests).
//   TieredBackend          — DRAM over a cold backend with a capacity budget,
//                            context-granular LRU eviction and write-back (the
//                            DRAM→SSD hierarchy the storage manager assumes).
//   DistributedColdBackend — chunks replicated across N storage nodes, with
//                            failover reads and background re-replication.
//   DedupBackend           — content-addressed single-instancing over any of the
//                            above.
//   InstrumentedBackend    — a forwarding wrapper that injects latency, write
//                            failures and hooks (tests, benches, node faults).
//
// Data moves in batches. A backend implements exactly three data-path methods —
// ReadChunks, ReadChunksUnverified and WriteChunks — and the single-chunk calls
// (ReadChunk, ReadChunkUnverified, WriteChunk) are batches of one submitted by this
// base class. The paper's restore streams whole layers of chunks, so the batch is
// the unit a backend optimizes; one chunk is just its smallest case.
//
// A backend stores sealed v2 chunks only (layout.h): verified reads treat any other
// bytes, including a chunk without the magic, as damage.
//
// Restoration speed is bounded by how fast a backend streams chunks back, so each
// backend exposes uniform stats — including per-tier hit counts — that serving
// reports surface.
#ifndef HCACHE_SRC_STORAGE_STORAGE_BACKEND_H_
#define HCACHE_SRC_STORAGE_STORAGE_BACKEND_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace hcache {

struct ChunkKey {
  int64_t context_id = 0;
  int64_t layer = 0;
  int64_t chunk_index = 0;

  friend auto operator<=>(const ChunkKey&, const ChunkKey&) = default;
};

// Read-path status for a chunk whose stored bytes FAILED integrity verification
// (ChunkHeader v2 payload-CRC mismatch, no chunk magic, or a header that
// contradicts itself).
// Distinct from -1 (absent / short buffer): a corrupt chunk EXISTS — callers must
// not retry the read or treat the key as free, they must fall back to recompute
// (and fsck can quarantine it). Returned in a ChunkReadRequest's `result`.
inline constexpr int64_t kChunkCorrupt = -2;

// One read of a batched ReadChunks submission. The caller owns `buf` (capacity
// `buf_bytes`) and keeps it alive until the batch's completion has run; `result` is
// written by the backend (see the ReadChunks contract below).
struct ChunkReadRequest {
  ChunkKey key;
  void* buf = nullptr;
  int64_t buf_bytes = 0;
  int64_t result = -1;
};

// One write of a batched WriteChunks submission. `ok` is written by the backend:
// true once the chunk is stored, false on IO failure.
struct ChunkWriteRequest {
  ChunkKey key;
  const void* data = nullptr;
  int64_t bytes = 0;
  bool ok = false;
};

// Invoked exactly once when every request of a batch has its result/ok field set.
using BatchCompletion = std::function<void()>;

// Uniform counters every backend maintains. Tier fields stay zero for single-tier
// backends; for TieredBackend a read is either a `dram_hits` (hot tier) or a
// `cold_hits` (served by the backing store).
//
// Hit counters come in chunks AND bytes: chunks are uniform only before the precision
// codec — an FP16 chunk occupies half the DRAM of an FP32 one — so capacity budgeting
// and tier-traffic accounting must read the byte-granular fields (`bytes_stored` and
// `*_hit_bytes` are *encoded* sizes, the real DRAM/SSD footprint).
struct StorageStats {
  int64_t chunks_stored = 0;
  int64_t bytes_stored = 0;  // encoded bytes currently resident
  int64_t total_writes = 0;
  int64_t total_reads = 0;

  int64_t dram_hits = 0;
  int64_t cold_hits = 0;
  int64_t dram_hit_bytes = 0;     // encoded bytes served from the hot tier
  int64_t cold_hit_bytes = 0;     // encoded bytes served from the cold tier
  int64_t evicted_contexts = 0;   // contexts pushed out of the hot tier
  int64_t writeback_chunks = 0;   // dirty chunks flushed to the cold tier
  int64_t writeback_bytes = 0;

  // Asynchronous write-back plane (TieredBackend only; zero elsewhere).
  int64_t drain_pending_bytes = 0;   // evicted bytes still queued for write-back
  int64_t drain_rescued_chunks = 0;  // reads served from the drain queue (DRAM hits)
  int64_t writer_stalls = 0;         // writes blocked on the drain high-water mark
  int64_t writeback_failures = 0;    // evictions rolled back on cold-tier write error
  int64_t promotions_skipped = 0;    // cold reads not admitted (chunk can't fit)
  int64_t writeback_retries = 0;     // transient cold write failures retried by drain

  // Integrity plane (ChunkHeader v2 CRC32C verification on the read paths).
  int64_t crc_failures = 0;       // reads rejected on checksum mismatch (kChunkCorrupt)
  int64_t crc_checked_bytes = 0;  // payload bytes CRC-verified on successful reads

  // Distributed cold plane (DistributedColdBackend only; zero elsewhere).
  int64_t failover_reads = 0;           // reads served by a non-primary replica
  int64_t nodes_down = 0;               // storage nodes currently marked down
  int64_t under_replicated_chunks = 0;  // chunks below the replication factor
  int64_t degraded_writes = 0;          // writes that reached >=1 but < R nodes
  int64_t re_replicated_chunks = 0;     // replica copies restored by the repair worker

  // Content-addressed dedup plane (DedupBackend only; zero elsewhere — TieredBackend
  // surfaces its cold tier's figures when dedup sits below it). `chunks_stored` /
  // `bytes_stored` stay LOGICAL for a dedup backend (consumers above the seam cannot
  // tell dedup happened); these three expose the physical reality.
  int64_t dedup_hits = 0;         // writes resolved by pointing at an existing chunk
  int64_t dedup_bytes_saved = 0;  // cumulative bytes those writes did NOT store
  int64_t unique_chunks = 0;      // physical chunks backing the logical set

  // Fraction of reads served from DRAM (1.0 for MemoryBackend, 0.0 for FileBackend).
  double DramHitRatio() const {
    const int64_t total = dram_hits + cold_hits;
    return total > 0 ? static_cast<double>(dram_hits) / static_cast<double>(total) : 0.0;
  }

  // Fraction of read *bytes* served from DRAM — the ratio that matters once chunks
  // are codec-mixed and no longer uniform in size.
  double DramHitByteRatio() const {
    const int64_t total = dram_hit_bytes + cold_hit_bytes;
    return total > 0 ? static_cast<double>(dram_hit_bytes) / static_cast<double>(total)
                     : 0.0;
  }

  int64_t ReadBytes() const { return dram_hit_bytes + cold_hit_bytes; }
};

class StorageBackend {
 public:
  explicit StorageBackend(int64_t chunk_bytes);
  virtual ~StorageBackend() = default;

  StorageBackend(const StorageBackend&) = delete;
  StorageBackend& operator=(const StorageBackend&) = delete;

  // --- data path: the three methods every backend implements ---
  //
  // ReadChunks contract (pinned across every backend by
  // tests/storage/read_chunks_test.cc and storage_backend_test.cc):
  //
  //   * Results: each request's `result` is the chunk's byte count on success, with
  //     `buf` holding the chunk bytes; -1 when the chunk is absent or larger than
  //     `buf_bytes`; kChunkCorrupt (-2) when the stored bytes exist but fail
  //     integrity verification (no sealed v2 chunk, or a CRC mismatch; counted in
  //     Stats().crc_failures, no data delivered). Requests may be serviced in any order and concurrently;
  //     duplicate keys in one batch are allowed (each is served independently).
  //   * Partial failure: an absent chunk, a short buffer or a corrupt chunk fails
  //     ONLY its own request. An absent chunk or short buffer writes nothing to
  //     `buf`, counts no read (or hit bytes) and has no side effects — for a tiered
  //     backend no cold IO, no promotion and no LRU update for that request.
  //     Callers distinguish "absent" from "too small" via ChunkSize.
  //   * Completion thread: every `result` is written before `done` runs; `done` is
  //     invoked exactly once, on the calling thread, and ReadChunks returns only
  //     after it — the call is a submission barrier. (Asynchrony is layered above:
  //     the pipelined restorer overlaps whole-batch submissions with compute.)
  //   * Stats: each successful request counts one read and its bytes (hit tiering
  //     included), so dram_hit_bytes + cold_hit_bytes equals the bytes delivered.
  virtual void ReadChunks(std::span<ChunkReadRequest> requests,
                          const BatchCompletion& done = {}) const = 0;

  // ReadChunks minus verification: delivers whatever bytes are stored, corrupt or
  // not, so fsck can inspect damage the verified path refuses to deliver, and so
  // benches can measure exactly what verification costs. Same contract otherwise.
  // Production restores use ReadChunks.
  virtual void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                    const BatchCompletion& done = {}) const = 0;

  // Durably stores each request's chunk (<= chunk_bytes), overwriting any existing
  // chunk at its key. Each request's `ok` is set (false on IO failure; failures are
  // per-request). Returns true iff every request succeeded. Same completion-before-
  // return barrier as ReadChunks. Concurrent writers on distinct chunks are safe.
  virtual bool WriteChunks(std::span<ChunkWriteRequest> requests,
                           const BatchCompletion& done = {}) = 0;

  // --- single-chunk calls: batches of one ---
  //
  // Each submits a one-request batch to the method above and returns its
  // result/ok. Virtual only so a pass-through wrapper can observe every call; a
  // backend implements the batched methods, never these.
  virtual int64_t ReadChunk(const ChunkKey& key, void* buf, int64_t buf_bytes) const;
  virtual int64_t ReadChunkUnverified(const ChunkKey& key, void* buf,
                                      int64_t buf_bytes) const;
  virtual bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes);

  virtual bool HasChunk(const ChunkKey& key) const = 0;
  virtual int64_t ChunkSize(const ChunkKey& key) const = 0;  // -1 when absent

  // Removes every chunk belonging to a context (session ended / state dropped).
  virtual void DeleteContext(int64_t context_id) = 0;

  // --- inspection / repair surface (hcache-fsck and recovery tooling) ---

  // Every resident (key, stored bytes) pair, in unspecified order — a scan
  // snapshot, not a consistency point. Default: empty (backend not enumerable).
  virtual std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const { return {}; }

  // Removes one chunk (fsck quarantine of a corrupt chunk so the context reads as
  // incomplete and falls back to recompute). Returns true if the key was resident.
  // Default: unsupported.
  virtual bool DeleteChunk(const ChunkKey& key) { (void)key; return false; }

  virtual StorageStats Stats() const = 0;
  virtual std::string Name() const = 0;

  // Completes background work (asynchronous write-back, deferred flushes). On
  // return every accepted write is durable in its final tier and Stats() is stable.
  // Single-tier backends have no background plane; the default is a no-op.
  virtual void Quiesce() {}

  int64_t chunk_bytes() const { return chunk_bytes_; }

  // --- stat accessors shared by tests and benches ---
  int64_t chunks_stored() const { return Stats().chunks_stored; }
  int64_t bytes_stored() const { return Stats().bytes_stored; }
  int64_t total_writes() const { return Stats().total_writes; }
  int64_t total_reads() const { return Stats().total_reads; }

 private:
  int64_t chunk_bytes_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_STORAGE_BACKEND_H_
