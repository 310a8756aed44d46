// Cross-backend conformance for the batched read API (storage_backend.h's
// ReadChunks contract): a batch must deliver exactly what N single-chunk calls
// (batches of one) would — same bytes, same per-request failures, same stats — on
// every backend, and per-request failures (absent chunk, short buffer) must never
// poison the rest of the batch or leave side effects.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/storage_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/storage/sealed_chunk.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kChunkBytes = 4096;

// Per-key salt: every key's sealed chunk has its own bytes.
uint32_t Salt(const ChunkKey& key) {
  return static_cast<uint32_t>(key.context_id * 131 + key.layer * 31 + key.chunk_index * 7);
}

// Flips a payload bit of a sealed chunk at rest.
constexpr int64_t kPayloadBit = 8 * (sizeof(ChunkHeader) + 5) + 2;

// One backend under test plus everything needed to clean it up.
struct Fixture {
  std::string name;
  StorageBackend* backend = nullptr;
  // Order matters on teardown: wrappers before inner tiers, tiers before stores.
  std::vector<std::unique_ptr<StorageBackend>> owned;
  fs::path dir;

  ~Fixture() {
    owned.clear();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
};

std::vector<std::shared_ptr<Fixture>> MakeFixtures(const std::string& tag) {
  std::vector<std::shared_ptr<Fixture>> fixtures;

  {
    auto f = std::make_shared<Fixture>();
    f->name = "memory";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    f->backend = mem.get();
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "file";
    f->dir = fs::temp_directory_path() / ("read_chunks_" + tag + "_file");
    fs::remove_all(f->dir);
    auto file = std::make_unique<FileBackend>(
        std::vector<std::string>{(f->dir / "d0").string(), (f->dir / "d1").string(),
                                 (f->dir / "d2").string()},
        kChunkBytes);
    f->backend = file.get();
    f->owned.push_back(std::move(file));
    fixtures.push_back(std::move(f));
  }
  for (const auto mode :
       {TieredOptions::Writeback::kSync, TieredOptions::Writeback::kAsync}) {
    auto f = std::make_shared<Fixture>();
    f->name = mode == TieredOptions::Writeback::kSync ? "tiered_sync" : "tiered_async";
    auto cold = std::make_unique<MemoryBackend>(kChunkBytes);
    TieredOptions opts;
    opts.writeback = mode;
    // Budget for ~4 chunks: some of the working set below lives cold, so the batch
    // exercises DRAM hits, cold hits, and promotion in one submission.
    auto tiered =
        std::make_unique<TieredBackend>(cold.get(), 4 * kChunkBytes, opts);
    f->backend = tiered.get();
    f->owned.push_back(std::move(tiered));  // tiered destructs (quiesces) first
    f->owned.push_back(std::move(cold));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "instrumented";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    auto wrapped = std::make_unique<InstrumentedBackend>(mem.get());
    f->backend = wrapped.get();
    f->owned.push_back(std::move(wrapped));
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "distributed";
    auto dist = std::make_unique<DistributedColdBackend>(3, kChunkBytes);
    f->backend = dist.get();
    f->owned.push_back(std::move(dist));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "dedup";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    auto dedup = std::make_unique<DedupBackend>(mem.get());
    f->backend = dedup.get();
    f->owned.push_back(std::move(dedup));
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  {
    // A batch against the tiered stack whose cold tier single-instances: duplicate
    // logical keys of one shared chunk must still each get their bytes.
    auto f = std::make_shared<Fixture>();
    f->name = "tiered_dedup";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    auto dedup = std::make_unique<DedupBackend>(mem.get());
    auto tiered = std::make_unique<TieredBackend>(dedup.get(), 4 * kChunkBytes);
    f->backend = tiered.get();
    f->owned.push_back(std::move(tiered));
    f->owned.push_back(std::move(dedup));
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

// A working set spanning three contexts with varied chunk sizes.
std::vector<std::pair<ChunkKey, int64_t>> WorkingSet() {
  std::vector<std::pair<ChunkKey, int64_t>> set;
  for (int64_t ctx = 1; ctx <= 3; ++ctx) {
    for (int64_t layer = 0; layer < 2; ++layer) {
      for (int64_t c = 0; c < 4; ++c) {
        set.emplace_back(ChunkKey{ctx, layer, c}, kChunkBytes / 2 + 256 * c + 64 * layer);
      }
    }
  }
  return set;
}

TEST(ReadChunksTest, BatchMatchesSerialReadsOnEveryBackend) {
  for (const auto& f : MakeFixtures("serial_eq")) {
    SCOPED_TRACE(f->name);
    const auto set = WorkingSet();
    for (const auto& [key, bytes] : set) {
      const auto data = SealedChunkOfBytes(bytes, Salt(key));
      ASSERT_TRUE(f->backend->WriteChunk(key, data.data(), bytes));
    }
    // Serial reference pass on a twin set of buffers.
    std::vector<std::vector<char>> want(set.size());
    std::vector<int64_t> want_result(set.size());
    for (size_t i = 0; i < set.size(); ++i) {
      want[i].assign(kChunkBytes, '\0');
      want_result[i] =
          f->backend->ReadChunk(set[i].first, want[i].data(), kChunkBytes);
    }
    // Batched pass.
    std::vector<std::vector<char>> got(set.size());
    std::vector<ChunkReadRequest> reqs(set.size());
    for (size_t i = 0; i < set.size(); ++i) {
      got[i].assign(kChunkBytes, '\x7f');
      reqs[i] = ChunkReadRequest{set[i].first, got[i].data(), kChunkBytes, -1};
    }
    int completions = 0;
    f->backend->ReadChunks(reqs, [&completions] { ++completions; });
    EXPECT_EQ(1, completions) << "completion must run exactly once, before return";
    for (size_t i = 0; i < set.size(); ++i) {
      ASSERT_EQ(want_result[i], reqs[i].result) << "request " << i;
      ASSERT_GT(reqs[i].result, 0);
      ASSERT_EQ(0, std::memcmp(want[i].data(), got[i].data(),
                               static_cast<size_t>(reqs[i].result)))
          << "request " << i;
    }
  }
}

TEST(ReadChunksTest, MagicFlipReadsCorruptOnEveryBackend) {
  // Bit 0 of a sealed chunk sits in the chunk magic. Bytes without the magic are
  // damage like any other: every verified read reports kChunkCorrupt and counts no
  // read bytes, single or batched, and a tiered stack never promotes them.
  for (const auto& f : MakeFixtures("magic_flip")) {
    SCOPED_TRACE(f->name);
    const ChunkKey key{5, 0, 0};
    auto flipped = SealedChunk(4, 32, Salt(key));
    flipped[0] ^= 0x01;
    const auto bytes = static_cast<int64_t>(flipped.size());
    ASSERT_TRUE(f->backend->WriteChunk(key, flipped.data(), bytes));
    // DRAM bytes are trusted, so push the chunk to a tiered stack's cold tier (the
    // tier that models media damage) with a DRAM budget's worth of other context.
    const auto filler = SealedChunkOfBytes(kChunkBytes, 'f');
    for (int64_t c = 0; c < 5; ++c) {
      ASSERT_TRUE(f->backend->WriteChunk(ChunkKey{6, 0, c}, filler.data(), kChunkBytes));
    }
    f->backend->Quiesce();
    const auto* tiered = dynamic_cast<const TieredBackend*>(f->backend);
    if (tiered != nullptr) {
      ASSERT_FALSE(tiered->IsDramResident(key));
    }
    const StorageStats before = f->backend->Stats();

    std::vector<char> buf(kChunkBytes);
    EXPECT_EQ(kChunkCorrupt, f->backend->ReadChunk(key, buf.data(), kChunkBytes));
    ChunkReadRequest req{key, buf.data(), kChunkBytes, -7};
    f->backend->ReadChunks({&req, 1});
    EXPECT_EQ(kChunkCorrupt, req.result);
    const StorageStats after = f->backend->Stats();
    EXPECT_EQ(before.total_reads, after.total_reads);
    EXPECT_EQ(before.ReadBytes(), after.ReadBytes());
    if (tiered != nullptr) {
      EXPECT_FALSE(tiered->IsDramResident(key)) << "damaged bytes promoted";
    }
  }
}

TEST(ReadChunksTest, PerRequestFailuresDoNotPoisonTheBatch) {
  for (const auto& f : MakeFixtures("partial")) {
    SCOPED_TRACE(f->name);
    const ChunkKey present{1, 0, 0};
    const ChunkKey absent{1, 0, 9};
    const ChunkKey big{2, 0, 0};
    const auto present_data = SealedChunkOfBytes(1024, Salt(present));
    const auto big_data = SealedChunkOfBytes(2048, Salt(big));
    ASSERT_TRUE(f->backend->WriteChunk(present, present_data.data(), 1024));
    ASSERT_TRUE(f->backend->WriteChunk(big, big_data.data(), 2048));
    f->backend->Quiesce();
    const StorageStats before = f->backend->Stats();

    std::vector<char> buf_ok(kChunkBytes, '\0');
    std::vector<char> buf_absent(kChunkBytes, '\x3c');
    std::vector<char> buf_short(128, '\x3c');  // big is 2048 bytes: short buffer
    std::vector<char> buf_ok2(kChunkBytes, '\0');
    ChunkReadRequest reqs[] = {
        {present, buf_ok.data(), kChunkBytes, -7},
        {absent, buf_absent.data(), kChunkBytes, -7},
        {big, buf_short.data(), 128, -7},
        {big, buf_ok2.data(), kChunkBytes, -7},  // duplicate key, adequate buffer
    };
    f->backend->ReadChunks(reqs);

    EXPECT_EQ(1024, reqs[0].result);
    EXPECT_EQ(0, std::memcmp(buf_ok.data(), present_data.data(), 1024));
    EXPECT_EQ(-1, reqs[1].result);
    EXPECT_EQ(-1, reqs[2].result);
    EXPECT_EQ(2048, reqs[3].result);
    EXPECT_EQ(0, std::memcmp(buf_ok2.data(), big_data.data(), 2048));
    // Failed requests wrote nothing.
    for (char c : buf_absent) {
      ASSERT_EQ('\x3c', c);
    }
    for (char c : buf_short) {
      ASSERT_EQ('\x3c', c);
    }
    // Stats conservation: exactly the two successes are counted, and hit bytes
    // (dram + cold) equal the bytes actually delivered.
    const StorageStats after = f->backend->Stats();
    EXPECT_EQ(before.total_reads + 2, after.total_reads);
    EXPECT_EQ(before.ReadBytes() + 1024 + 2048, after.ReadBytes());
  }
}

TEST(ReadChunksTest, StatsConservationAcrossHotAndColdTiers) {
  // Tiered specifics: a batch spanning DRAM hits and cold misses must split its hit
  // accounting exactly, and dram_hit_bytes + cold_hit_bytes == bytes delivered.
  for (const auto mode :
       {TieredOptions::Writeback::kSync, TieredOptions::Writeback::kAsync}) {
    SCOPED_TRACE(mode == TieredOptions::Writeback::kSync ? "sync" : "async");
    MemoryBackend cold(kChunkBytes);
    TieredOptions opts;
    opts.writeback = mode;
    opts.num_shards = 1;
    TieredBackend tiered(&cold, 4 * kChunkBytes, opts);
    // Two contexts of 3 chunks each; budget 4 chunks, so writing ctx 1 then ctx 2
    // evicts ctx 1 to the cold tier.
    for (int64_t ctx = 1; ctx <= 2; ++ctx) {
      for (int64_t c = 0; c < 3; ++c) {
        const ChunkKey key{ctx, 0, c};
        const auto data = SealedChunkOfBytes(kChunkBytes, Salt(key));
        ASSERT_TRUE(tiered.WriteChunk(key, data.data(), kChunkBytes));
      }
    }
    tiered.Quiesce();
    ASSERT_FALSE(tiered.IsDramResident(ChunkKey{1, 0, 0}));
    ASSERT_TRUE(tiered.IsDramResident(ChunkKey{2, 0, 0}));

    std::vector<std::vector<char>> bufs(6, std::vector<char>(kChunkBytes));
    std::vector<ChunkReadRequest> reqs;
    for (int64_t ctx = 1; ctx <= 2; ++ctx) {
      for (int64_t c = 0; c < 3; ++c) {
        reqs.push_back(ChunkReadRequest{
            ChunkKey{ctx, 0, c},
            bufs[static_cast<size_t>((ctx - 1) * 3 + c)].data(), kChunkBytes, -1});
      }
    }
    const StorageStats before = tiered.Stats();
    tiered.ReadChunks(reqs);
    const StorageStats after = tiered.Stats();
    for (size_t i = 0; i < reqs.size(); ++i) {
      ASSERT_EQ(kChunkBytes, reqs[i].result) << i;
      const auto want = SealedChunkOfBytes(kChunkBytes, Salt(reqs[i].key));
      ASSERT_EQ(0, std::memcmp(bufs[i].data(), want.data(),
                               static_cast<size_t>(kChunkBytes)))
          << i;
    }
    EXPECT_EQ(before.total_reads + 6, after.total_reads);
    EXPECT_EQ(before.dram_hits + 3, after.dram_hits);
    EXPECT_EQ(before.cold_hits + 3, after.cold_hits);
    EXPECT_EQ(before.ReadBytes() + 6 * kChunkBytes, after.ReadBytes());
    // The cold misses travelled as ONE batched submission, visible in their
    // promotion back into DRAM (LRU: ctx 1 is now the most recently used).
    EXPECT_TRUE(tiered.IsDramResident(ChunkKey{1, 0, 0}));
  }
}

TEST(ReadChunksTest, TieredBatchMakesOneColdRoundTrip) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredOptions opts;
  opts.writeback = TieredOptions::Writeback::kSync;
  opts.num_shards = 1;
  TieredBackend tiered(&cold, 0, opts);  // 0 budget: everything lives cold
  std::vector<ChunkKey> keys;
  for (int64_t c = 0; c < 8; ++c) {
    const ChunkKey key{1, 0, c};
    const auto data = SealedChunkOfBytes(512, Salt(key));
    ASSERT_TRUE(tiered.WriteChunk(key, data.data(), 512));
    keys.push_back(key);
  }
  tiered.Quiesce();
  const int64_t batches_before = cold.read_batches();
  std::vector<std::vector<char>> bufs(keys.size(), std::vector<char>(kChunkBytes));
  std::vector<ChunkReadRequest> reqs;
  for (size_t i = 0; i < keys.size(); ++i) {
    reqs.push_back(ChunkReadRequest{keys[i], bufs[i].data(), kChunkBytes, -1});
  }
  tiered.ReadChunks(reqs);
  for (const auto& req : reqs) {
    ASSERT_EQ(512, req.result);
  }
  EXPECT_EQ(batches_before + 1, cold.read_batches())
      << "all 8 cold misses must share one batched cold-tier round trip";

  // Unverified batch over sealed chunks, two of them damaged at rest: one verified
  // cold round trip, then ONE unverified re-read of just the corrupt requests, which
  // deliver the damaged bytes (fsck's view) without being promoted.
  std::vector<std::vector<uint8_t>> sealed;
  for (int64_t c = 0; c < 8; ++c) {
    sealed.push_back(SealedChunk(4, 32, static_cast<uint32_t>(c)));
    ASSERT_TRUE(tiered.WriteChunk(ChunkKey{2, 0, c}, sealed.back().data(),
                                  static_cast<int64_t>(sealed.back().size())));
  }
  tiered.Quiesce();
  ASSERT_TRUE(cold.CorruptChunk(ChunkKey{2, 0, 3}, kPayloadBit));
  ASSERT_TRUE(cold.CorruptChunk(ChunkKey{2, 0, 6}, kPayloadBit));
  const int64_t unverified_before = cold.read_batches();
  for (size_t i = 0; i < reqs.size(); ++i) {
    reqs[i] = ChunkReadRequest{ChunkKey{2, 0, static_cast<int64_t>(i)}, bufs[i].data(),
                               kChunkBytes, -1};
  }
  bool completed = false;
  tiered.ReadChunksUnverified(reqs, [&completed] { completed = true; });
  EXPECT_TRUE(completed);
  EXPECT_EQ(unverified_before + 2, cold.read_batches())
      << "one verified round trip plus one unverified re-read of the corrupt chunks";
  for (size_t i = 0; i < reqs.size(); ++i) {
    const int64_t bytes = static_cast<int64_t>(sealed[i].size());
    ASSERT_EQ(bytes, reqs[i].result) << i;
    const bool damaged = i == 3 || i == 6;
    EXPECT_EQ(!damaged, std::memcmp(bufs[i].data(), sealed[i].data(),
                                    static_cast<size_t>(bytes)) == 0)
        << i;
  }
  EXPECT_EQ(2, tiered.Stats().crc_failures);

  // With room in DRAM, a clean cold chunk of the same unverified batch is promoted
  // and the damaged one is not.
  MemoryBackend warm_mem(kChunkBytes);
  InstrumentedBackend warm_cold(&warm_mem);
  TieredBackend warm(&warm_cold, 4 * kChunkBytes, opts);
  const auto pad = SealedChunkOfBytes(kChunkBytes, 'p');
  ASSERT_TRUE(warm.WriteChunk(ChunkKey{1, 0, 0}, sealed[0].data(),
                              static_cast<int64_t>(sealed[0].size())));
  ASSERT_TRUE(warm.WriteChunk(ChunkKey{1, 0, 1}, sealed[1].data(),
                              static_cast<int64_t>(sealed[1].size())));
  for (int64_t c = 0; c < 4; ++c) {  // evicts context 1 to the cold tier
    ASSERT_TRUE(warm.WriteChunk(ChunkKey{2, 0, c}, pad.data(), kChunkBytes));
  }
  warm.Quiesce();
  ASSERT_FALSE(warm.IsDramResident(ChunkKey{1, 0, 0}));
  ASSERT_TRUE(warm_cold.CorruptChunk(ChunkKey{1, 0, 0}, kPayloadBit));
  ChunkReadRequest pair[] = {
      {ChunkKey{1, 0, 0}, bufs[0].data(), kChunkBytes, -1},
      {ChunkKey{1, 0, 1}, bufs[1].data(), kChunkBytes, -1},
  };
  warm.ReadChunksUnverified(pair);
  EXPECT_EQ(static_cast<int64_t>(sealed[0].size()), pair[0].result);
  EXPECT_EQ(static_cast<int64_t>(sealed[1].size()), pair[1].result);
  EXPECT_FALSE(warm.IsDramResident(ChunkKey{1, 0, 0})) << "damaged bytes promoted";
  EXPECT_TRUE(warm.IsDramResident(ChunkKey{1, 0, 1}));
}

TEST(ReadChunksTest, InstrumentedForwardsBatchAndInjectsFailuresPerRequest) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend inner(&mem);  // observes what reaches the wrapped backend
  InstrumentedBackend wrapped(&inner);
  const ChunkKey k1{1, 0, 0};
  const ChunkKey k2{1, 0, 1};
  const ChunkKey k3{1, 0, 2};
  const auto d1 = SealedChunkOfBytes(700, Salt(k1));
  ChunkWriteRequest writes[] = {
      {k1, d1.data(), 700, false},
      {k2, d1.data(), 700, false},
      {k3, d1.data(), 700, false},
  };
  wrapped.FailNextWrites(1);
  EXPECT_FALSE(wrapped.WriteChunks(writes));
  EXPECT_FALSE(writes[0].ok);  // first request consumed the injected failure
  EXPECT_TRUE(writes[1].ok);
  EXPECT_TRUE(writes[2].ok);
  EXPECT_EQ(1, wrapped.injected_write_failures());
  EXPECT_EQ(1, wrapped.write_batches());
  EXPECT_FALSE(mem.HasChunk(k1));
  EXPECT_TRUE(mem.HasChunk(k2));

  std::vector<char> b2(kChunkBytes);
  std::vector<char> b3(kChunkBytes);
  ChunkReadRequest reads[] = {
      {k2, b2.data(), kChunkBytes, -1},
      {k3, b3.data(), kChunkBytes, -1},
  };
  wrapped.ReadChunks(reads);
  EXPECT_EQ(700, reads[0].result);
  EXPECT_EQ(700, reads[1].result);
  EXPECT_EQ(1, wrapped.read_batches());
  EXPECT_EQ(1, inner.read_batches());

  // The unverified path goes through the same forwarder: one batch counted, the
  // read hook fired per request, and one batch forwarded to the inner backend.
  std::vector<ChunkKey> hooked;
  wrapped.set_read_hook([&hooked](const ChunkKey& key) { hooked.push_back(key); });
  reads[0].result = reads[1].result = -7;
  wrapped.ReadChunksUnverified(reads);
  EXPECT_EQ(700, reads[0].result);
  EXPECT_EQ(700, reads[1].result);
  EXPECT_EQ(2, wrapped.read_batches());
  EXPECT_EQ((std::vector<ChunkKey>{k2, k3}), hooked);
  EXPECT_EQ(2, inner.read_batches());
}

TEST(ReadChunksTest, FileBackendConcurrentReadsOfSameChunkAreRaceFree) {
  // pread on a shared cached fd has no file position to race on: hammer one chunk
  // from several threads (serial and batched mixed) and require every read to come
  // back complete and correct.
  const fs::path dir = fs::temp_directory_path() / "read_chunks_pread_race";
  fs::remove_all(dir);
  {
    FileBackend file({(dir / "d0").string()}, kChunkBytes);
    const ChunkKey key{7, 3, 1};
    const auto data = SealedChunkOfBytes(kChunkBytes, Salt(key));
    ASSERT_TRUE(file.WriteChunk(key, data.data(), kChunkBytes));
    constexpr int kThreads = 4;
    constexpr int kIters = 200;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<char> buf(kChunkBytes);
        for (int i = 0; i < kIters; ++i) {
          int64_t got;
          if (i % 2 == 0) {
            got = file.ReadChunk(key, buf.data(), kChunkBytes);
          } else {
            ChunkReadRequest req{key, buf.data(), kChunkBytes, -1};
            file.ReadChunks({&req, 1});
            got = req.result;
          }
          if (got != kChunkBytes ||
              std::memcmp(buf.data(), data.data(), static_cast<size_t>(kChunkBytes)) != 0) {
            ++failures[static_cast<size_t>(t)];
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(0, failures[static_cast<size_t>(t)]) << "thread " << t;
    }
    const StorageStats stats = file.Stats();
    EXPECT_EQ(static_cast<int64_t>(kThreads) * kIters, stats.total_reads);
    EXPECT_EQ(static_cast<int64_t>(kThreads) * kIters * kChunkBytes, stats.ReadBytes());
  }
  fs::remove_all(dir);
}

TEST(ReadChunksTest, FileBackendFdCacheSurvivesOverwriteAndDelete) {
  const fs::path dir = fs::temp_directory_path() / "read_chunks_fd_inval";
  fs::remove_all(dir);
  {
    FileBackend file({(dir / "d0").string()}, kChunkBytes);
    const ChunkKey key{1, 0, 0};
    const auto v1 = SealedChunkOfBytes(512, Salt(key));
    ASSERT_TRUE(file.WriteChunk(key, v1.data(), 512));
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(512, file.ReadChunk(key, buf.data(), kChunkBytes));  // fd now cached
    // Overwrite with different bytes; the next read must observe them.
    const auto v2 = SealedChunkOfBytes(640, Salt(ChunkKey{9, 9, 9}));
    ASSERT_TRUE(file.WriteChunk(key, v2.data(), 640));
    ASSERT_EQ(640, file.ReadChunk(key, buf.data(), kChunkBytes));
    EXPECT_EQ(0, std::memcmp(buf.data(), v2.data(), 640));
    // Delete: reads fail and the context directory is actually gone.
    file.DeleteContext(key.context_id);
    EXPECT_EQ(-1, file.ReadChunk(key, buf.data(), kChunkBytes));
    EXPECT_FALSE(fs::exists(dir / "d0" / "ctx1"));
  }
  fs::remove_all(dir);
}

TEST(ReadChunksTest, SingleChunkCallsAreBatchesOfOne) {
  // A backend that implements only the batched entries: the base class's
  // ReadChunk / ReadChunkUnverified / WriteChunk must keep the single-chunk results
  // (absent, short buffer, corrupt) by submitting one-request batches.
  class BatchOnly : public StorageBackend {
   public:
    explicit BatchOnly(StorageBackend* inner)
        : StorageBackend(inner->chunk_bytes()), inner_(inner) {}
    void ReadChunks(std::span<ChunkReadRequest> requests,
                    const BatchCompletion& done = {}) const override {
      read_sizes.push_back(requests.size());
      inner_->ReadChunks(requests, done);
    }
    void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                              const BatchCompletion& done = {}) const override {
      unverified_sizes.push_back(requests.size());
      inner_->ReadChunksUnverified(requests, done);
    }
    bool WriteChunks(std::span<ChunkWriteRequest> requests,
                     const BatchCompletion& done = {}) override {
      write_sizes.push_back(requests.size());
      return inner_->WriteChunks(requests, done);
    }
    bool HasChunk(const ChunkKey& key) const override { return inner_->HasChunk(key); }
    int64_t ChunkSize(const ChunkKey& key) const override {
      return inner_->ChunkSize(key);
    }
    void DeleteContext(int64_t context_id) override { inner_->DeleteContext(context_id); }
    StorageStats Stats() const override { return inner_->Stats(); }
    std::string Name() const override { return "batch_only"; }

    mutable std::vector<size_t> read_sizes;
    mutable std::vector<size_t> unverified_sizes;
    std::vector<size_t> write_sizes;

   private:
    StorageBackend* inner_;
  };
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend chaos(&mem);
  BatchOnly backend(&mem);

  const ChunkKey key{1, 0, 0};
  const auto sealed = SealedChunk(4, 32, 9);
  const int64_t bytes = static_cast<int64_t>(sealed.size());
  ASSERT_TRUE(backend.WriteChunk(key, sealed.data(), bytes));
  EXPECT_EQ((std::vector<size_t>{1}), backend.write_sizes);

  std::vector<char> buf(kChunkBytes, '\0');
  EXPECT_EQ(bytes, backend.ReadChunk(key, buf.data(), kChunkBytes));
  EXPECT_EQ(0, std::memcmp(buf.data(), sealed.data(), static_cast<size_t>(bytes)));
  EXPECT_EQ(-1, backend.ReadChunk(ChunkKey{2, 0, 0}, buf.data(), kChunkBytes));

  // Short buffer: -1, nothing written, no read counted.
  const StorageStats before = backend.Stats();
  std::vector<char> small(static_cast<size_t>(bytes - 1), '\x3c');
  EXPECT_EQ(-1, backend.ReadChunk(key, small.data(), bytes - 1));
  EXPECT_EQ(-1, backend.ReadChunkUnverified(key, small.data(), bytes - 1));
  for (char c : small) {
    ASSERT_EQ('\x3c', c);
  }
  EXPECT_EQ(before.total_reads, backend.Stats().total_reads);
  EXPECT_EQ(before.ReadBytes(), backend.Stats().ReadBytes());

  // Damage at rest: the verified call reports kChunkCorrupt, the unverified call
  // still delivers the bytes.
  ASSERT_TRUE(chaos.CorruptChunk(key, kPayloadBit));
  EXPECT_EQ(kChunkCorrupt, backend.ReadChunk(key, buf.data(), kChunkBytes));
  EXPECT_EQ(before.crc_failures + 1, backend.Stats().crc_failures);
  EXPECT_EQ(bytes, backend.ReadChunkUnverified(key, buf.data(), kChunkBytes));
  EXPECT_NE(0, std::memcmp(buf.data(), sealed.data(), static_cast<size_t>(bytes)));

  EXPECT_EQ((std::vector<size_t>{1, 1, 1, 1}), backend.read_sizes);
  EXPECT_EQ((std::vector<size_t>{1, 1}), backend.unverified_sizes);
}

}  // namespace
}  // namespace hcache
