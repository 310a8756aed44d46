// ServingEngine x StorageBackend integration: the same conversation workload runs
// against file, DRAM, and tiered backends selected through ServingOptions, and the
// report surfaces what the storage layer saw (per-tier hit ratios, write-back volume).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <memory>

#include "src/serving/engine.h"
#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 64 * 1024;

class EngineBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("hcache_engine_backend_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  std::unique_ptr<FileBackend> MakeFile() {
    return std::make_unique<FileBackend>(
        std::vector<std::string>{(base_ / "d0").string(), (base_ / "d1").string()},
        kChunkBytes);
  }

  static ServingReport Run(StorageBackend* backend, uint64_t seed = 42) {
    ServingOptions o;
    o.method = RestoreMethod::kHCache;
    o.state_backend = backend;
    ServingEngine engine(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o);
    return engine.RunConversations(0.3, 24, 5.0, seed);
  }

  std::filesystem::path base_;
};

TEST_F(EngineBackendTest, RunsAgainstAllThreeBackends) {
  auto file = MakeFile();
  MemoryBackend memory(kChunkBytes);
  auto tiered_cold = MakeFile();
  TieredBackend tiered(tiered_cold.get(), 4 * kChunkBytes);

  const ServingReport r_file = Run(file.get());
  const ServingReport r_mem = Run(&memory);
  const ServingReport r_tier = Run(&tiered);

  for (const ServingReport* r : {&r_file, &r_mem, &r_tier}) {
    EXPECT_EQ(r->rounds_completed, r->rounds_submitted);
    EXPECT_GT(r->rounds_completed, 24);  // multi-round conversations
    EXPECT_GT(r->storage.total_writes, 0);
    EXPECT_GT(r->storage.total_reads, 0);
  }
  // The backend is an accounting plane: identical workload and timing model must give
  // identical simulated results regardless of where the bytes landed.
  EXPECT_EQ(r_file.rounds_completed, r_mem.rounds_completed);
  EXPECT_EQ(r_mem.rounds_completed, r_tier.rounds_completed);
  EXPECT_DOUBLE_EQ(r_file.makespan, r_mem.makespan);
  EXPECT_DOUBLE_EQ(r_mem.makespan, r_tier.makespan);

  // Tier attribution: file reads are all cold, memory reads all DRAM — in chunks AND
  // in (encoded) bytes, the quantity capacity budgeting must use.
  EXPECT_EQ(r_file.storage.dram_hits, 0);
  EXPECT_EQ(r_file.storage.cold_hits, r_file.storage.total_reads);
  EXPECT_EQ(r_file.storage.dram_hit_bytes, 0);
  EXPECT_GT(r_file.storage.cold_hit_bytes, 0);
  EXPECT_EQ(r_mem.storage.cold_hits, 0);
  EXPECT_EQ(r_mem.storage.dram_hits, r_mem.storage.total_reads);
  EXPECT_EQ(r_mem.storage.cold_hit_bytes, 0);
  EXPECT_GT(r_mem.storage.dram_hit_bytes, 0);
  EXPECT_DOUBLE_EQ(r_mem.storage.DramHitRatio(), 1.0);
  EXPECT_DOUBLE_EQ(r_mem.storage.DramHitByteRatio(), 1.0);

  // The default codec is FP16: the backend stores half the FP32-equivalent bytes, and
  // the report carries both sides of that ratio.
  for (const ServingReport* r : {&r_file, &r_mem, &r_tier}) {
    EXPECT_EQ(r->state_codec, ChunkCodec::kFp16);
    EXPECT_GT(r->state_encoded_bytes, 0);
    EXPECT_DOUBLE_EQ(r->StateCompressionRatio(), 2.0);
  }
}

TEST_F(EngineBackendTest, CodecScalesStoredBytes) {
  // Same workload, three codecs: encoded footprint (and therefore tiered-cache
  // pressure) tracks the codec, while the logical state is identical.
  int64_t encoded[3] = {0, 0, 0};
  int i = 0;
  for (const ChunkCodec codec :
       {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    MemoryBackend memory(kChunkBytes);
    ServingOptions o;
    o.method = RestoreMethod::kHCache;
    o.state_backend = &memory;
    o.state_codec = codec;
    ServingEngine engine(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o);
    const ServingReport r = engine.RunConversations(0.3, 24, 5.0, 42);
    EXPECT_EQ(r.rounds_completed, r.rounds_submitted);
    encoded[i++] = r.state_encoded_bytes;
  }
  EXPECT_EQ(encoded[0], 2 * encoded[1]);  // fp32 = 2x fp16
  EXPECT_LT(encoded[2], encoded[1]);      // int8 below fp16 (scale amortized at hidden_dim)
}

TEST_F(EngineBackendTest, SessionsDeleteTheirStateAtCompletion) {
  MemoryBackend memory(kChunkBytes);
  const ServingReport r = Run(&memory);
  EXPECT_EQ(r.rounds_completed, r.rounds_submitted);
  // Every session finished, so every context's descriptor chunks were dropped.
  EXPECT_EQ(memory.chunks_stored(), 0);
  EXPECT_EQ(memory.bytes_stored(), 0);
}

TEST_F(EngineBackendTest, TieredBackendReportsBothTiersUnderPressure) {
  // A DRAM budget far below the live working set forces evictions and write-backs;
  // restoration reads then split across tiers. Synchronous write-back pins the
  // tier attribution (with the async drainer, a read can legitimately rescue an
  // evicted chunk from the drain queue, which is a DRAM hit — the async split is
  // covered by tests/storage/tiered_async_test.cc).
  auto cold = MakeFile();
  TieredOptions opts;
  opts.writeback = TieredOptions::Writeback::kSync;
  TieredBackend tiered(cold.get(), kChunkBytes / 2, opts);
  const ServingReport r = Run(&tiered);
  EXPECT_EQ(r.rounds_completed, r.rounds_submitted);
  EXPECT_GT(r.storage.evicted_contexts, 0);
  EXPECT_GT(r.storage.writeback_chunks, 0);
  EXPECT_GT(r.storage.cold_hits, 0);
  EXPECT_EQ(r.storage.dram_hits + r.storage.cold_hits, r.storage.total_reads);
  const double ratio = r.storage.DramHitRatio();
  EXPECT_GE(ratio, 0.0);
  EXPECT_LT(ratio, 1.0);
}

TEST_F(EngineBackendTest, AmpleDramBudgetServesReadsFromDram) {
  auto cold = MakeFile();
  TieredBackend tiered(cold.get(), int64_t{1} << 30);
  const ServingReport r = Run(&tiered);
  EXPECT_EQ(r.storage.evicted_contexts, 0);
  EXPECT_EQ(r.storage.cold_hits, 0);
  EXPECT_DOUBLE_EQ(r.storage.DramHitRatio(), 1.0);
  // Nothing ever spilled: the cold tier is untouched.
  EXPECT_EQ(cold->total_writes(), 0);
}

TEST_F(EngineBackendTest, DamagedStateFallsBackToRecomputeNotDrop) {
  // The serving-level durability contract: state that comes back corrupt OR missing
  // at restore time costs recompute latency, never a wrong answer and never a
  // dropped round. Driven through the stepped interface so damage can be injected
  // between a session's rounds.
  MemoryBackend memory(kChunkBytes);
  ServingOptions o;
  o.method = RestoreMethod::kHCache;
  o.state_backend = &memory;
  ServingEngine engine(Platform::DefaultTestbed(1, 4), ModelConfig::Llama2_7B(), o);
  engine.StartExternal();
  std::vector<RoundCompletion> done;

  auto run_round = [&](int64_t session, int64_t history, double arrival,
                       bool last) -> RoundCompletion {
    engine.Submit(RoundTask{session, history, /*input=*/128, /*output=*/32, arrival, last});
    done.clear();
    // A generous-but-bounded horizon: Advance parks the idle clock AT the horizon,
    // so it must stay well below max_sim_seconds across all four rounds.
    engine.Advance(arrival + 60.0, &done);
    EXPECT_EQ(done.size(), 1u);
    if (done.empty()) {
      return RoundCompletion{};
    }
    EXPECT_FALSE(done[0].dropped) << "session " << session;
    return done[0];
  };

  // Two sessions complete their opening rounds and persist state.
  const RoundCompletion s7 = run_round(7, 0, 0.0, false);
  const RoundCompletion s8 = run_round(8, 0, s7.finish_time + 0.5, false);
  ASSERT_TRUE(memory.HasChunk({7, 0, 0}));
  ASSERT_TRUE(memory.HasChunk({8, 0, 0}));

  // Session 7's sealed descriptor rots in place: one payload bit flips at rest,
  // which the verified read path must flag.
  InstrumentedBackend chaos(&memory);
  ASSERT_TRUE(chaos.CorruptChunk({7, 0, 0}, 8 * (sizeof(ChunkHeader) + 3)));
  // Session 8's state is simply gone (a cold tier that lost the file).
  ASSERT_TRUE(memory.DeleteChunk({8, 0, 0}));

  const RoundCompletion s7b =
      run_round(7, s7.new_tokens, s8.finish_time + 0.5, true);
  const RoundCompletion s8b =
      run_round(8, s8.new_tokens, s7b.finish_time + 0.5, true);
  EXPECT_FALSE(s7b.dropped);
  EXPECT_FALSE(s8b.dropped);
  EXPECT_EQ(s7b.new_tokens, 128 + 32);
  EXPECT_EQ(s8b.new_tokens, 128 + 32);

  const ServingReport r = engine.FinishExternal();
  EXPECT_EQ(r.rounds_completed, 4);
  EXPECT_EQ(r.restore_fallbacks, 2);  // one corrupt, one missing
  EXPECT_GE(memory.Stats().crc_failures, 1);
}

TEST_F(EngineBackendTest, IntactStateNeverTriggersFallback) {
  // Control for the damage test: the identical conversation workload over an intact
  // backend reports zero fallbacks, pinning the false-positive rate of the verified
  // restore path at nil.
  MemoryBackend memory(kChunkBytes);
  const ServingReport r = Run(&memory);
  EXPECT_EQ(r.rounds_completed, r.rounds_submitted);
  EXPECT_EQ(r.restore_fallbacks, 0);
  EXPECT_EQ(r.storage.crc_failures, 0);
  EXPECT_GT(r.storage.crc_checked_bytes, 0) << "descriptor chunks are sealed and verified";
}

}  // namespace
}  // namespace hcache
