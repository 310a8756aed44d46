// Concurrency stress for the storage backends under the cluster's access pattern:
// many replicas hammering one shared backend with interleaved Put/Get/Delete. The
// backends' contract is per-operation atomicity and conserving stats: every counted
// read byte was actually served, chunk payloads are never torn, and the tier-hit
// counters sum exactly to the bytes read. Run under TSan in CI.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/storage_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/storage/sealed_chunk.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 4096;
constexpr int kThreads = 8;
constexpr int kOpsPerThread = 3000;

// Deterministic sealed chunk for a key: every byte is a function of the key and the
// size, so any torn or cross-wired read is detectable from the bytes alone.
std::vector<uint8_t> KeyChunk(const ChunkKey& key, int64_t bytes) {
  return SealedChunkOfBytes(
      bytes, static_cast<uint32_t>(key.context_id * 131 + key.layer * 31 + key.chunk_index));
}

// True when a successful read returned exactly KeyChunk(key, got).
bool ReadMatches(const ChunkKey& key, const std::vector<char>& buf, int64_t got) {
  return std::memcmp(buf.data(), KeyChunk(key, got).data(), static_cast<size_t>(got)) == 0;
}

struct ThreadTally {
  int64_t writes = 0;
  int64_t reads = 0;       // successful reads
  int64_t read_bytes = 0;  // bytes returned by successful reads
  int64_t corrupt = 0;     // payload mismatches or failed CRCs (must stay 0)
};

// xorshift: cheap per-thread deterministic op mixer (no libc rand, TSan-friendly).
uint64_t NextRand(uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

// Worker: mixed Put/Get/Delete over a context space shared with the other workers —
// the cluster pattern where any replica may read or age out any session's state.
void Hammer(StorageBackend* backend, int tid, ThreadTally* tally,
            int ops_per_thread = kOpsPerThread) {
  uint64_t rand_state = 0x9e3779b97f4a7c15ull + static_cast<uint64_t>(tid);
  std::vector<char> buf(kChunkBytes);
  for (int op = 0; op < ops_per_thread; ++op) {
    const uint64_t r = NextRand(rand_state);
    ChunkKey key;
    key.context_id = static_cast<int64_t>(r % 16);       // 16 shared contexts
    key.layer = static_cast<int64_t>((r >> 8) % 4);
    key.chunk_index = static_cast<int64_t>((r >> 16) % 8);
    // 256 .. 4092 bytes: a header plus a whole number of FP32 elements.
    const int64_t bytes = 24 + 4 * (58 + static_cast<int64_t>((r >> 24) % 960));
    const uint64_t kind = (r >> 56) % 10;
    if (kind < 5) {  // 50% writes
      const auto chunk = KeyChunk(key, bytes);
      ASSERT_TRUE(backend->WriteChunk(key, chunk.data(), bytes));
      ++tally->writes;
    } else if (kind < 9) {  // 40% reads
      const int64_t got = backend->ReadChunk(key, buf.data(), kChunkBytes);
      if (got >= 0) {
        ++tally->reads;
        tally->read_bytes += got;
        // Same-key writers write one chunk per size, so any successful read must
        // return one of them in full — a torn read or a stale-size copy breaks this.
        if (!ReadMatches(key, buf, got)) {
          ++tally->corrupt;
        }
      } else if (got == kChunkCorrupt) {
        ++tally->corrupt;
      }
    } else {  // 10% deletes (sessions ending)
      backend->DeleteContext(key.context_id);
    }
  }
}

void RunHammer(StorageBackend* backend, std::vector<ThreadTally>* tallies,
               int ops_per_thread = kOpsPerThread) {
  tallies->assign(kThreads, ThreadTally{});
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back(Hammer, backend, t, &(*tallies)[static_cast<size_t>(t)],
                         ops_per_thread);
  }
  for (auto& t : threads) {
    t.join();
  }
  backend->Quiesce();  // settle async write-back so the stats snapshot is exact
}

void ExpectStatsConserved(const StorageBackend& backend,
                          const std::vector<ThreadTally>& tallies) {
  int64_t writes = 0, reads = 0, read_bytes = 0, corrupt = 0;
  for (const ThreadTally& t : tallies) {
    writes += t.writes;
    reads += t.reads;
    read_bytes += t.read_bytes;
    corrupt += t.corrupt;
  }
  const StorageStats s = backend.Stats();
  EXPECT_EQ(corrupt, 0);
  EXPECT_EQ(s.total_writes, writes);
  EXPECT_EQ(s.total_reads, reads);
  // Byte-granular conservation: hit bytes across tiers sum exactly to the bytes the
  // callers saw come back.
  EXPECT_EQ(s.dram_hit_bytes + s.cold_hit_bytes, read_bytes);
  EXPECT_EQ(s.dram_hits + s.cold_hits, s.total_reads);
  EXPECT_GT(reads, 0);
  EXPECT_GT(writes, 0);
}

void ExpectDrainsClean(StorageBackend* backend) {
  for (int64_t ctx = 0; ctx < 16; ++ctx) {
    backend->DeleteContext(ctx);
  }
  EXPECT_EQ(backend->chunks_stored(), 0);
  EXPECT_EQ(backend->bytes_stored(), 0);
}

TEST(BackendConcurrencyTest, MemoryBackendConservesStats) {
  MemoryBackend backend(kChunkBytes);
  std::vector<ThreadTally> tallies;
  RunHammer(&backend, &tallies);
  ExpectStatsConserved(backend, tallies);
  // Single tier: every hit is a DRAM hit.
  EXPECT_EQ(backend.Stats().cold_hits, 0);
  ExpectDrainsClean(&backend);
}

TEST(BackendConcurrencyTest, TieredBackendConservesStatsUnderEvictionPressure) {
  // Hot-tier budget far below the working set: promotions, evictions, and write-backs
  // run concurrently with the foreground ops, and every byte must still be accounted.
  MemoryBackend cold(kChunkBytes);
  TieredBackend backend(&cold, 8 * kChunkBytes);
  std::vector<ThreadTally> tallies;
  RunHammer(&backend, &tallies);
  ExpectStatsConserved(backend, tallies);
  const StorageStats s = backend.Stats();
  EXPECT_GT(s.evicted_contexts, 0);
  EXPECT_GT(s.cold_hits, 0);
  EXPECT_LE(backend.dram_bytes(), 8 * kChunkBytes);
  ExpectDrainsClean(&backend);
  EXPECT_EQ(cold.chunks_stored(), 0);
}

TEST(BackendConcurrencyTest, TieredBackendWithAmpleBudgetStaysHot) {
  MemoryBackend cold(kChunkBytes);
  TieredBackend backend(&cold, int64_t{1} << 30);
  std::vector<ThreadTally> tallies;
  RunHammer(&backend, &tallies);
  ExpectStatsConserved(backend, tallies);
  EXPECT_EQ(backend.Stats().cold_hits, 0);
  EXPECT_EQ(backend.Stats().evicted_contexts, 0);
  ExpectDrainsClean(&backend);
}

TEST(BackendConcurrencyTest, ShardedAsyncTierSurvivesTheHammerWithSlowColdIO) {
  // The PR 5 configuration under fire: lock-striped hot tier, asynchronous
  // write-back drainer, and a cold tier with injected latency (each cold op sleeps,
  // standing in for NVMe service time) — so evictions queue up, writers hit the
  // high-water mark, and reads race in-flight write-backs. Every byte must still be
  // accounted and no payload torn. Runs under TSan in CI.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(200);
  TieredOptions opts;
  opts.num_shards = 8;
  opts.writeback = TieredOptions::Writeback::kAsync;
  TieredBackend backend(&cold, 8 * kChunkBytes, opts);
  EXPECT_EQ(backend.num_shards(), 8);
  std::vector<ThreadTally> tallies;
  RunHammer(&backend, &tallies, /*ops_per_thread=*/600);
  ExpectStatsConserved(backend, tallies);
  const StorageStats s = backend.Stats();
  EXPECT_GT(s.evicted_contexts, 0);
  EXPECT_GT(s.writeback_chunks, 0);
  EXPECT_EQ(s.writeback_failures, 0);
  EXPECT_EQ(s.drain_pending_bytes, 0);  // Quiesce retired the queue
  EXPECT_LE(backend.dram_bytes(), 8 * kChunkBytes);
  ExpectDrainsClean(&backend);
  EXPECT_EQ(cold.chunks_stored(), 0);
}

TEST(BackendConcurrencyTest, DistinctChunkWritersNeverCollide) {
  // The documented contract ("concurrent writers on distinct chunks are safe") under
  // its pure form: per-thread key spaces, then every chunk must hold its exact
  // payload and the index must account every byte.
  MemoryBackend cold(kChunkBytes);
  TieredBackend backend(&cold, 32 * kChunkBytes);
  std::vector<std::thread> threads;
  constexpr int kChunksPerThread = 200;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&backend, t] {
      for (int c = 0; c < kChunksPerThread; ++c) {
        const ChunkKey key{/*context_id=*/100 + t, /*layer=*/0, /*chunk_index=*/c};
        const int64_t bytes = 128 + (c % 8) * 64;
        ASSERT_TRUE(backend.WriteChunk(key, KeyChunk(key, bytes).data(), bytes));
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  int64_t expected_bytes = 0;
  std::vector<char> buf(kChunkBytes);
  for (int t = 0; t < kThreads; ++t) {
    for (int c = 0; c < kChunksPerThread; ++c) {
      const ChunkKey key{100 + t, 0, c};
      const int64_t bytes = 128 + (c % 8) * 64;
      expected_bytes += bytes;
      ASSERT_EQ(backend.ReadChunk(key, buf.data(), kChunkBytes), bytes);
      ASSERT_TRUE(ReadMatches(key, buf, bytes));
    }
  }
  EXPECT_EQ(backend.chunks_stored(), kThreads * kChunksPerThread);
  EXPECT_EQ(backend.bytes_stored(), expected_bytes);
}

}  // namespace
}  // namespace hcache
