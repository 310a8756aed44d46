// InstrumentedBackend's seeded latency distributions: the jitter sampler is a pure
// function of (seed, draw), bounded by the configured span, and mean-preserving —
// so a heterogeneous simulated fleet's per-node service times replay exactly while
// never touching stored bytes.
#include "src/storage/instrumented_backend.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "src/storage/memory_backend.h"
#include "tests/storage/sealed_chunk.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 4 * 1024;

TEST(InstrumentedJitterTest, SamplerIsDeterministicPerSeedAndDraw) {
  for (uint64_t draw = 0; draw < 64; ++draw) {
    EXPECT_EQ(InstrumentedBackend::JitteredLatencyMicros(100, 40, 7, draw),
              InstrumentedBackend::JitteredLatencyMicros(100, 40, 7, draw));
  }
  // Different seeds give different sequences (not necessarily every draw, but the
  // sequences as a whole must diverge — equal sequences would mean the seed is dead).
  int diffs = 0;
  for (uint64_t draw = 0; draw < 64; ++draw) {
    diffs += InstrumentedBackend::JitteredLatencyMicros(100, 40, 7, draw) !=
             InstrumentedBackend::JitteredLatencyMicros(100, 40, 8, draw);
  }
  EXPECT_GT(diffs, 0);
}

TEST(InstrumentedJitterTest, SamplesStayInsideTheSpanAndAboveZero) {
  constexpr int64_t kMean = 100, kJitter = 40;
  for (uint64_t draw = 0; draw < 4096; ++draw) {
    const int64_t lat =
        InstrumentedBackend::JitteredLatencyMicros(kMean, kJitter, 0x6a77, draw);
    EXPECT_GE(lat, kMean - kJitter);
    EXPECT_LE(lat, kMean + kJitter);
  }
  // Jitter wider than the mean clamps at zero instead of going negative.
  for (uint64_t draw = 0; draw < 4096; ++draw) {
    EXPECT_GE(InstrumentedBackend::JitteredLatencyMicros(10, 50, 0x6a77, draw), 0);
  }
}

TEST(InstrumentedJitterTest, ZeroJitterReproducesTheFixedLatency) {
  for (uint64_t draw = 0; draw < 16; ++draw) {
    EXPECT_EQ(InstrumentedBackend::JitteredLatencyMicros(250, 0, 123, draw), 250);
  }
}

TEST(InstrumentedJitterTest, MeanIsApproximatelyPreserved) {
  constexpr int64_t kMean = 200, kJitter = 80;
  constexpr int kDraws = 20000;
  double sum = 0;
  for (uint64_t draw = 0; draw < kDraws; ++draw) {
    sum += static_cast<double>(
        InstrumentedBackend::JitteredLatencyMicros(kMean, kJitter, 42, draw));
  }
  const double mean = sum / kDraws;
  // Uniform over [-80, +80]: the empirical mean over 20k draws sits within a few
  // micros of the setpoint.
  EXPECT_NEAR(mean, static_cast<double>(kMean), 3.0);
}

TEST(InstrumentedJitterTest, DistinctSeedsModelHeterogeneousNodes) {
  // Two "nodes" with the same mean but different seeds produce different latency
  // traces — the fleet is heterogeneous — yet each node's trace replays exactly.
  std::vector<int64_t> node_a, node_b;
  for (uint64_t draw = 0; draw < 256; ++draw) {
    node_a.push_back(InstrumentedBackend::JitteredLatencyMicros(150, 60, 1, draw));
    node_b.push_back(InstrumentedBackend::JitteredLatencyMicros(150, 60, 2, draw));
  }
  EXPECT_NE(node_a, node_b);
  std::vector<int64_t> replay_a;
  for (uint64_t draw = 0; draw < 256; ++draw) {
    replay_a.push_back(InstrumentedBackend::JitteredLatencyMicros(150, 60, 1, draw));
  }
  EXPECT_EQ(node_a, replay_a);
}

TEST(InstrumentedJitterTest, JitterNeverAffectsStoredBytes) {
  // The jitter plane is timing-only: data written through a jittered wrapper reads
  // back bit-exact, and counters advance as without jitter.
  MemoryBackend inner(kChunkBytes);
  InstrumentedBackend wrapped(&inner);
  wrapped.set_io_latency_micros(1);
  wrapped.set_io_latency_jitter(/*jitter_micros=*/1, /*seed=*/0xfeed);

  const auto data = SealedChunkOfBytes(kChunkBytes, 7);
  const ChunkKey key{1, 0, 0};
  ASSERT_TRUE(wrapped.WriteChunk(key, data.data(), kChunkBytes));
  std::vector<char> back(kChunkBytes);
  ASSERT_EQ(wrapped.ReadChunk(key, back.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(std::memcmp(data.data(), back.data(), static_cast<size_t>(kChunkBytes)), 0);
}

}  // namespace
}  // namespace hcache
