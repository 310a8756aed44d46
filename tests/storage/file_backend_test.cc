#include "src/storage/file_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "tests/storage/sealed_chunk.h"

namespace hcache {
namespace {

class FileBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("hcache_store_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    dirs_ = {base_ / "dev0", base_ / "dev1", base_ / "dev2"};
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  std::vector<std::string> DirStrings() const {
    return {dirs_[0].string(), dirs_[1].string(), dirs_[2].string()};
  }

  static int CountEntries(const std::filesystem::path& dir) {
    int count = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      (void)e;
      ++count;
    }
    return count;
  }

  std::filesystem::path base_;
  std::vector<std::filesystem::path> dirs_;
};

TEST_F(FileBackendTest, WriteReadRoundTrip) {
  FileBackend store(DirStrings(), 4096);
  const auto data = SealedChunkOfBytes(1000, 'x');
  ASSERT_TRUE(store.WriteChunk({1, 0, 0}, data.data(), 1000));
  std::vector<char> buf(4096);
  EXPECT_EQ(store.ReadChunk({1, 0, 0}, buf.data(), 4096), 1000);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 1000), 0);
}

TEST_F(FileBackendTest, MissingChunkReturnsMinusOne) {
  FileBackend store(DirStrings(), 4096);
  std::vector<char> buf(4096);
  EXPECT_EQ(store.ReadChunk({9, 9, 9}, buf.data(), 4096), -1);
  EXPECT_FALSE(store.HasChunk({9, 9, 9}));
  EXPECT_EQ(store.ChunkSize({9, 9, 9}), -1);
}

TEST_F(FileBackendTest, SmallBufferRejected) {
  FileBackend store(DirStrings(), 4096);
  const auto data = SealedChunkOfBytes(1000, 'y');
  ASSERT_TRUE(store.WriteChunk({1, 0, 0}, data.data(), 1000));
  std::vector<char> buf(10);
  EXPECT_EQ(store.ReadChunk({1, 0, 0}, buf.data(), 10), -1);
}

TEST_F(FileBackendTest, OverwriteReplacesContent) {
  FileBackend store(DirStrings(), 4096);
  const auto a = SealedChunkOfBytes(100, 'a');
  const auto b = SealedChunkOfBytes(60, 'b');
  ASSERT_TRUE(store.WriteChunk({1, 2, 3}, a.data(), 100));
  ASSERT_TRUE(store.WriteChunk({1, 2, 3}, b.data(), 60));
  std::vector<char> buf(4096);
  EXPECT_EQ(store.ReadChunk({1, 2, 3}, buf.data(), 4096), 60);
  EXPECT_EQ(std::memcmp(buf.data(), b.data(), 60), 0);
  EXPECT_EQ(store.chunks_stored(), 1);
}

TEST_F(FileBackendTest, RoundRobinStriping) {
  FileBackend store(DirStrings(), 4096);
  EXPECT_EQ(store.DeviceOf({1, 0, 0}), 0);
  EXPECT_EQ(store.DeviceOf({1, 0, 1}), 1);
  EXPECT_EQ(store.DeviceOf({1, 0, 2}), 2);
  EXPECT_EQ(store.DeviceOf({1, 0, 3}), 0);
  // Consecutive chunks of one layer land on different devices (bandwidth aggregation),
  // under the context's own subdirectory on each device.
  const auto d = SealedChunkOfBytes(32, 'd');
  for (int64_t c = 0; c < 6; ++c) {
    ASSERT_TRUE(store.WriteChunk({7, 0, c}, d.data(), 32));
  }
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_EQ(CountEntries(dirs_[dev] / "ctx7"), 2) << "device " << dev;
  }
}

TEST_F(FileBackendTest, DeleteContextRemovesOnlyThatContext) {
  FileBackend store(DirStrings(), 4096);
  const auto d = SealedChunkOfBytes(32, 'd');
  for (int64_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(store.WriteChunk({1, 0, c}, d.data(), 32));
    ASSERT_TRUE(store.WriteChunk({2, 0, c}, d.data(), 32));
  }
  store.DeleteContext(1);
  EXPECT_FALSE(store.HasChunk({1, 0, 0}));
  EXPECT_TRUE(store.HasChunk({2, 0, 3}));
  EXPECT_EQ(store.chunks_stored(), 4);
}

TEST_F(FileBackendTest, DeleteContextUnlinksPerContextDirs) {
  // Long serving runs must not leak one empty directory per dead context per device.
  FileBackend store(DirStrings(), 4096);
  const auto d = SealedChunkOfBytes(32, 'd');
  for (int64_t ctx = 1; ctx <= 3; ++ctx) {
    for (int64_t c = 0; c < 3; ++c) {
      ASSERT_TRUE(store.WriteChunk({ctx, 0, c}, d.data(), 32));
    }
  }
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_EQ(CountEntries(dirs_[dev]), 3) << "device " << dev;
  }
  store.DeleteContext(2);
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_FALSE(std::filesystem::exists(dirs_[dev] / "ctx2")) << "device " << dev;
    EXPECT_EQ(CountEntries(dirs_[dev]), 2) << "device " << dev;
  }
  store.DeleteContext(1);
  store.DeleteContext(3);
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_EQ(CountEntries(dirs_[dev]), 0) << "device " << dev;
  }
  // A deleted context can be written again (its directories are recreated).
  ASSERT_TRUE(store.WriteChunk({2, 0, 0}, d.data(), 32));
  EXPECT_TRUE(store.HasChunk({2, 0, 0}));
}

TEST_F(FileBackendTest, StatsTrackWritesAndBytes) {
  FileBackend store(DirStrings(), 4096);
  const auto d = SealedChunkOfBytes(100, 'd');
  const auto e = SealedChunkOfBytes(60, 'e');
  ASSERT_TRUE(store.WriteChunk({1, 0, 0}, d.data(), 100));
  ASSERT_TRUE(store.WriteChunk({1, 0, 1}, e.data(), 60));
  EXPECT_EQ(store.total_writes(), 2);
  EXPECT_EQ(store.bytes_stored(), 160);
  std::vector<char> buf(4096);
  store.ReadChunk({1, 0, 0}, buf.data(), 4096);
  EXPECT_EQ(store.total_reads(), 1);
  // Every FileBackend read is a cold-tier hit in the uniform stats.
  const StorageStats s = store.Stats();
  EXPECT_EQ(s.cold_hits, 1);
  EXPECT_EQ(s.dram_hits, 0);
}

}  // namespace
}  // namespace hcache
