// Conformance suite run against every StorageBackend implementation: the interface
// contract (round trip, overwrite, delete, exact stats) must hold identically for
// file, DRAM, and tiered storage — consumers above the seam cannot tell them apart.
#include "src/storage/storage_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "src/storage/dedup_backend.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/storage/sealed_chunk.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 4096;

struct BackendFixture {
  std::unique_ptr<StorageBackend> inner;  // dedup stacks: the physical store
  std::unique_ptr<StorageBackend> cold;   // tiered stacks: the cold tier
  std::unique_ptr<StorageBackend> backend;
};

class StorageBackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    // A parameterized test's name ends in "/<param>": flatten it, so base_ is one
    // directory and TearDown's remove_all takes all of it.
    std::string test = ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(test.begin(), test.end(), '/', '_');
    base_ = std::filesystem::temp_directory_path() /
            ("hcache_backend_" + std::to_string(::getpid()) + "_" + test);
    const std::vector<std::string> dirs = {(base_ / "d0").string(), (base_ / "d1").string()};
    if (GetParam() == "file") {
      fx_.backend = std::make_unique<FileBackend>(dirs, kChunkBytes);
    } else if (GetParam() == "memory") {
      fx_.backend = std::make_unique<MemoryBackend>(kChunkBytes);
    } else if (GetParam() == "distributed") {
      fx_.backend = std::make_unique<DistributedColdBackend>(3, kChunkBytes);
    } else if (GetParam() == "tiered_dist") {
      // The ISSUE-8 production shape: DRAM hot tier over the replicated plane.
      fx_.cold = std::make_unique<DistributedColdBackend>(3, kChunkBytes);
      fx_.backend = std::make_unique<TieredBackend>(fx_.cold.get(), 8 * kChunkBytes);
    } else if (GetParam() == "dedup") {
      fx_.inner = std::make_unique<MemoryBackend>(kChunkBytes);
      fx_.backend = std::make_unique<DedupBackend>(fx_.inner.get());
    } else if (GetParam() == "tiered_dedup") {
      // Content-addressed cold plane under the DRAM tier: evicted chunks
      // single-instance on the way down.
      fx_.inner = std::make_unique<FileBackend>(dirs, kChunkBytes);
      fx_.cold = std::make_unique<DedupBackend>(fx_.inner.get());
      fx_.backend = std::make_unique<TieredBackend>(fx_.cold.get(), 8 * kChunkBytes);
    } else if (GetParam() == "dedup_dist") {
      // Fleet-wide single-instancing of the replicated cold plane.
      fx_.inner = std::make_unique<DistributedColdBackend>(3, kChunkBytes);
      fx_.backend = std::make_unique<DedupBackend>(fx_.inner.get());
    } else {
      fx_.cold = std::make_unique<FileBackend>(dirs, kChunkBytes);
      // Budget of 8 chunks: small enough that the suite exercises eviction.
      fx_.backend = std::make_unique<TieredBackend>(fx_.cold.get(), 8 * kChunkBytes);
    }
  }
  void TearDown() override {
    fx_.backend.reset();  // outermost wrapper (and its drainer) first
    fx_.cold.reset();
    fx_.inner.reset();
    std::filesystem::remove_all(base_);
  }

  StorageBackend& backend() { return *fx_.backend; }

  std::filesystem::path base_;
  BackendFixture fx_;
};

TEST_P(StorageBackendTest, WriteReadRoundTrip) {
  const auto data = SealedChunkOfBytes(1000, 'x');
  ASSERT_TRUE(backend().WriteChunk({1, 0, 0}, data.data(), 1000));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(backend().ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), 1000);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 1000), 0);
  EXPECT_TRUE(backend().HasChunk({1, 0, 0}));
  EXPECT_EQ(backend().ChunkSize({1, 0, 0}), 1000);
}

TEST_P(StorageBackendTest, MissingChunkReturnsMinusOne) {
  std::vector<char> buf(kChunkBytes);
  EXPECT_EQ(backend().ReadChunk({9, 9, 9}, buf.data(), kChunkBytes), -1);
  EXPECT_FALSE(backend().HasChunk({9, 9, 9}));
  EXPECT_EQ(backend().ChunkSize({9, 9, 9}), -1);
}

TEST_P(StorageBackendTest, SmallBufferRejected) {
  const auto data = SealedChunkOfBytes(1000, 'y');
  ASSERT_TRUE(backend().WriteChunk({1, 0, 0}, data.data(), 1000));
  std::vector<char> buf(10);
  EXPECT_EQ(backend().ReadChunk({1, 0, 0}, buf.data(), 10), -1);
  // Failed reads must not count — stats stay comparable across backends.
  EXPECT_EQ(backend().total_reads(), 0);
  EXPECT_EQ(backend().Stats().dram_hits + backend().Stats().cold_hits, 0);
}

TEST_P(StorageBackendTest, ShortBufferSemanticsAreUniformAcrossResidency) {
  // The ReadChunk short-buffer contract (storage_backend.h) must be observable-
  // identical no matter which tier currently holds the chunk: -1 with an untouched
  // buffer and zero stats on a one-byte-short buffer, success on an exact-fit one,
  // and every counted hit byte equal to what callers actually received. The write
  // volume here pushes the tiered fixture past its 8-chunk budget so some chunks are
  // answered by its cold tier, some by DRAM, and (async drain) some by the queue.
  constexpr int64_t kContexts = 12;
  constexpr int64_t kSize = 1500;
  for (int64_t ctx = 0; ctx < kContexts; ++ctx) {
    const auto data = SealedChunkOfBytes(kSize, static_cast<uint32_t>(ctx));
    ASSERT_TRUE(backend().WriteChunk({ctx, 0, 0}, data.data(), kSize));
  }
  backend().Quiesce();
  std::vector<char> buf(kChunkBytes);
  int64_t got_bytes = 0;
  for (int64_t ctx = 0; ctx < kContexts; ++ctx) {
    buf.assign(buf.size(), '\0');
    EXPECT_EQ(backend().ReadChunk({ctx, 0, 0}, buf.data(), kSize - 1), -1)
        << "ctx " << ctx;
    EXPECT_EQ(buf[0], '\0') << "short-buffer read wrote into the buffer";
    ASSERT_EQ(backend().ReadChunk({ctx, 0, 0}, buf.data(), kSize), kSize)
        << "ctx " << ctx;
    EXPECT_EQ(std::memcmp(buf.data(),
                          SealedChunkOfBytes(kSize, static_cast<uint32_t>(ctx)).data(), kSize),
              0);
    got_bytes += kSize;
  }
  const StorageStats s = backend().Stats();
  EXPECT_EQ(s.total_reads, kContexts);  // only the exact-fit reads counted
  EXPECT_EQ(s.dram_hits + s.cold_hits, s.total_reads);
  EXPECT_EQ(s.dram_hit_bytes + s.cold_hit_bytes, got_bytes);
}

TEST_P(StorageBackendTest, OverwriteReplacesContent) {
  const auto a = SealedChunkOfBytes(100, 'a');
  const auto b = SealedChunkOfBytes(60, 'b');
  ASSERT_TRUE(backend().WriteChunk({1, 2, 3}, a.data(), 100));
  ASSERT_TRUE(backend().WriteChunk({1, 2, 3}, b.data(), 60));
  std::vector<char> buf(kChunkBytes);
  EXPECT_EQ(backend().ReadChunk({1, 2, 3}, buf.data(), kChunkBytes), 60);
  EXPECT_EQ(std::memcmp(buf.data(), b.data(), 60), 0);
  EXPECT_EQ(backend().chunks_stored(), 1);
  EXPECT_EQ(backend().bytes_stored(), 60);
}

TEST_P(StorageBackendTest, DeleteContextRemovesOnlyThatContext) {
  const auto d = SealedChunkOfBytes(32, 'd');
  for (int64_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(backend().WriteChunk({1, 0, c}, d.data(), 32));
    ASSERT_TRUE(backend().WriteChunk({2, 0, c}, d.data(), 32));
  }
  backend().DeleteContext(1);
  EXPECT_FALSE(backend().HasChunk({1, 0, 0}));
  EXPECT_TRUE(backend().HasChunk({2, 0, 3}));
  EXPECT_EQ(backend().chunks_stored(), 4);
  EXPECT_EQ(backend().bytes_stored(), 128);
}

TEST_P(StorageBackendTest, ConcurrentWritersWithPollingReader) {
  // The two-stage saver's flush pool writes disjoint chunks of one context from many
  // threads while restoration-side code polls HasChunk. At quiesce, stats must be
  // exact: every write indexed once, no bytes double-counted.
  constexpr int kThreads = 8;
  constexpr int kChunksEach = 40;
  constexpr int64_t kBytes = 512;
  std::atomic<int> failures{0};
  std::atomic<bool> done{false};
  std::atomic<int64_t> observed_present{0};

  std::thread reader([this, &done, &observed_present] {
    // Poll chunks while writers run; presence must be monotone (a written chunk never
    // flickers back to absent).
    std::vector<bool> seen(kThreads * kChunksEach, false);
    while (!done.load(std::memory_order_acquire)) {
      for (int t = 0; t < kThreads; ++t) {
        for (int c = 0; c < kChunksEach; ++c) {
          const bool has = backend().HasChunk({1, t, c});
          const size_t idx = static_cast<size_t>(t * kChunksEach + c);
          if (seen[idx] && !has) {
            observed_present.fetch_sub(1000000);  // poison: regression observed
          }
          if (has && !seen[idx]) {
            seen[idx] = true;
            observed_present.fetch_add(1);
          }
        }
      }
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([this, &failures, t] {
      const auto d = SealedChunkOfBytes(kBytes, static_cast<uint32_t>(t));
      for (int c = 0; c < kChunksEach; ++c) {
        if (!backend().WriteChunk({1, t, c}, d.data(), kBytes)) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : writers) {
    th.join();
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_GE(observed_present.load(), 0) << "a stored chunk became absent mid-run";
  EXPECT_EQ(backend().chunks_stored(), kThreads * kChunksEach);
  EXPECT_EQ(backend().bytes_stored(), kThreads * kChunksEach * kBytes);
  EXPECT_EQ(backend().total_writes(), kThreads * kChunksEach);
  std::vector<char> buf(kChunkBytes);
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(backend().ReadChunk({1, t, kChunksEach - 1}, buf.data(), kChunkBytes), kBytes);
    EXPECT_EQ(std::memcmp(buf.data(), SealedChunkOfBytes(kBytes, static_cast<uint32_t>(t)).data(),
                          kBytes),
              0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackends, StorageBackendTest,
                         ::testing::Values("file", "memory", "tiered", "distributed",
                                           "tiered_dist", "dedup", "tiered_dedup",
                                           "dedup_dist"),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace hcache
