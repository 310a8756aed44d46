// Extension: prefix sharing as plain capture over the dedup store.
//
// Many contexts start with the same system prompt or retrieved document. Causal
// attention makes their prefix hidden states identical, and chunk headers carry no
// key, so every whole prefix chunk is byte-identical across contexts. Each user here is
// an ordinary FunctionalHCache context over DedupBackend(FileBackend): it captures its
// full prefix+suffix forward and restores through the normal pipelined RestoreContext
// (a recompute-complement scheme), while the dedup store keeps one copy of the shared
// chunks. The bench reports the file store's bytes as the users of one prefix grow,
// for a chunk-aligned (48-token) and an unaligned (45-token) prefix, on a real (tiny)
// model with real file-backed storage.
//
// Exits 1 unless every restored context decodes identically to a fresh prefill and
// each row's physical bytes stay within
//   one_user + (users - 1) * suffix_only  [+ (users - 1) * layers * one chunk]
// where one_user and suffix_only are the encoded bytes of one prefix+suffix context
// and of a suffix alone. The bracketed slack applies only to an unaligned prefix: its
// tail chunk mixes prefix and suffix rows, so every extra user stores it again.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/functional_engine.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/file_backend.h"

using namespace hcache;

namespace {

constexpr int64_t kChunkTokens = 8;

// Encoded bytes of one context's hidden states for `tokens` tokens (every layer).
int64_t ContextBytes(const ModelConfig& cfg, int64_t tokens) {
  int64_t bytes = 0;
  for (int64_t first = 0; first < tokens; first += kChunkTokens) {
    bytes += EncodedChunkBytes(ChunkCodec::kFp32, std::min(kChunkTokens, tokens - first),
                               cfg.hidden_dim);
  }
  return cfg.num_layers * bytes;
}

}  // namespace

int main() {
  PrintTitle("Extension: prefix sharing over dedup (functional, file-backed)");
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 21);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, 512, 8));
  ThreadPool flush_pool(2);

  const auto dir = std::filesystem::temp_directory_path() / "hcache_prefix_bench";
  std::filesystem::remove_all(dir);

  Rng rng(5);
  const int64_t suffix_len = 16;  // per-user question
  std::vector<int32_t> system_prompt(48);
  for (auto& t : system_prompt) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }
  const int64_t suffix_only = ContextBytes(cfg, suffix_len);
  const int64_t chunk_bytes =
      EncodedChunkBytes(ChunkCodec::kFp32, kChunkTokens, cfg.hidden_dim);

  PartitionScheme scheme;  // the scheduler's usual shape: L_O = 1 recomputed layer
  scheme.layers_hidden = cfg.num_layers - 1;
  scheme.layers_other = 1;
  scheme.complement = ComplementMethod::kRecompute;

  bool acceptance = true;
  std::printf("  %6s %5s | %12s %12s %12s | %7s | %s\n", "prefix", "users", "stored bytes",
              "bound", "naive bytes", "saving", "verified");
  for (const int64_t prefix_len : {int64_t{48}, int64_t{45}}) {
    const std::vector<int32_t> prefix(system_prompt.begin(),
                                      system_prompt.begin() + prefix_len);
    const int64_t one_user = ContextBytes(cfg, prefix_len + suffix_len);
    const int64_t tail_slack =
        prefix_len % kChunkTokens == 0 ? 0 : cfg.num_layers * chunk_bytes;
    for (const int num_users : {1, 4, 16, 64}) {
      FileBackend store(
          {(dir / ("p" + std::to_string(prefix_len) + "_u" + std::to_string(num_users)))
               .string()},
          1 << 20);
      DedupBackend dedup(&store);
      FunctionalHCache engine(&model, &dedup, &flush_pool, kChunkTokens);
      Rng user_rng(100 + num_users);

      int verified = 0;
      for (int u = 0; u < num_users; ++u) {
        std::vector<int32_t> full = prefix;
        for (int64_t i = 0; i < suffix_len; ++i) {
          full.push_back(static_cast<int32_t>(
              user_rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size))));
        }
        PagedKvSequence seq(&pool);
        model.Forward(full, &seq, engine.BeginCapture(u));
        engine.SealContext(u);
        seq.Evict();
        PagedKvSequence ref(&pool);
        model.Forward(full, &ref);
        verified += engine.RestoreContext(u, scheme, full, &seq) &&
                    model.GreedyDecode(full.back(), 4, &seq) ==
                        model.GreedyDecode(full.back(), 4, &ref);
      }

      const int64_t stored = store.bytes_stored();
      const int64_t bound = one_user + (num_users - 1) * (suffix_only + tail_slack);
      const int64_t naive_bytes =
          static_cast<int64_t>(num_users) * cfg.num_layers * (prefix_len + suffix_len) *
          cfg.hidden_dim * static_cast<int64_t>(sizeof(float));
      const bool row_ok = verified == num_users && stored <= bound;
      acceptance = acceptance && row_ok;
      std::printf("  %6lld %5d | %12lld %12lld %12lld | %6.2fx | %d/%d decode-exact%s\n",
                  static_cast<long long>(prefix_len), num_users,
                  static_cast<long long>(stored), static_cast<long long>(bound),
                  static_cast<long long>(naive_bytes),
                  static_cast<double>(naive_bytes) / static_cast<double>(stored), verified,
                  num_users, row_ok ? "" : "  FAIL");
    }
  }
  const double asymptote = static_cast<double>(48 + suffix_len) / suffix_len;
  std::printf("\n  asymptotic saving = (prefix+suffix)/suffix = %.1fx for the aligned rows\n",
              asymptote);
  PrintNote("related GPU-side prefix reuse (PromptCache/SGLang) covers the hit path;");
  PrintNote("this shares the hidden states HCache stores on the miss path.");
  std::filesystem::remove_all(dir);
  std::printf("\n  acceptance: %s\n", acceptance ? "PASS" : "FAIL");
  return acceptance ? 0 : 1;
}
