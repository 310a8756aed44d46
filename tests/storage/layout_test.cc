#include "src/storage/layout.h"

#include <gtest/gtest.h>

namespace hcache {
namespace {

TEST(LayoutTest, ChunkedRestoreUsesFewLargeIos) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const IoPattern p = RestoreLayerPattern(StorageLayout::kLayerChunked, cfg, 1024, 64);
  EXPECT_EQ(p.num_ios, 16);
  EXPECT_EQ(p.io_size, 64 * cfg.HiddenBytesPerTokenLayer());
  EXPECT_EQ(p.total_bytes(), 1024 * cfg.HiddenBytesPerTokenLayer());
}

TEST(LayoutTest, ChunkedRestoreRoundsUpPartialChunk) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const IoPattern p = RestoreLayerPattern(StorageLayout::kLayerChunked, cfg, 100, 64);
  EXPECT_EQ(p.num_ios, 2);
}

TEST(LayoutTest, TokenMajorRestoreScattersPerToken) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  const IoPattern p = RestoreLayerPattern(StorageLayout::kTokenMajor, cfg, 1024, 64);
  EXPECT_EQ(p.num_ios, 1024);
  EXPECT_EQ(p.io_size, cfg.HiddenBytesPerTokenLayer());
  // Same bytes, radically different IO count — the C2 trade-off.
  const IoPattern chunked = RestoreLayerPattern(StorageLayout::kLayerChunked, cfg, 1024, 64);
  EXPECT_EQ(p.total_bytes(), chunked.total_bytes());
  EXPECT_GT(p.num_ios, 32 * chunked.num_ios);
}

TEST(LayoutTest, ZeroTokensYieldNoIo) {
  const ModelConfig cfg = ModelConfig::Llama2_7B();
  EXPECT_EQ(RestoreLayerPattern(StorageLayout::kLayerChunked, cfg, 0).num_ios, 0);
  EXPECT_EQ(RestoreLayerPattern(StorageLayout::kTokenMajor, cfg, 0).num_ios, 0);
}

}  // namespace
}  // namespace hcache
