// Microbenchmarks (google-benchmark) for the functional-plane kernels: GEMM, the
// restoration projection, RoPE, softmax, and a tiny-model forward pass. These measure
// this host's CPU, not the paper's GPUs — they exist to keep the functional plane's
// performance honest (and to catch accidental kernel regressions).
//
// Besides the google-benchmark table, main() writes BENCH_micro_tensor.json: the host
// fingerprint, per-tier rows of the packed-weight projections and attention at the
// serving benchmark's model shapes, and a thread-scaling sweep over the large GEMM
// shapes — each row with its repetitions and spread.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <numeric>
#include <thread>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/common/thread_pool.h"
#include "src/model/transformer.h"
#include "src/tensor/gemm.h"
#include "src/tensor/kernels.h"
#include "src/tensor/ops.h"
#include "src/tensor/rope.h"

namespace hcache {
namespace {

Tensor RandomTensor(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t({r, c});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

void BM_GemmNN(benchmark::State& state) {
  const int64_t n = state.range(0);
  Tensor a = RandomTensor(n, n, 1), b = RandomTensor(n, n, 2), c({n, n});
  for (auto _ : state) {
    GemmNN(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(GemmFlops(n, n, n)));
}
BENCHMARK(BM_GemmNN)->Arg(64)->Arg(128)->Arg(256);

void BM_KvProjection(benchmark::State& state) {
  // The restoration hot loop: [tokens, hidden] x [hidden, kv]^T.
  const int64_t tokens = state.range(0);
  const int64_t hidden = 256;
  Tensor x = RandomTensor(tokens, hidden, 3);
  Tensor w = RandomTensor(hidden, hidden, 4);
  for (auto _ : state) {
    Tensor k = MatMulTransposedB(x, w);
    benchmark::DoNotOptimize(k.data());
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_KvProjection)->Arg(16)->Arg(64)->Arg(256);

void BM_GemmNTLargeK(benchmark::State& state) {
  // The satellite regression gate for GemmNT's cache blocking: a deep-k projection
  // ([256, k] x [256, k]^T) that thrashed L2 under the old unblocked dot-product loop.
  const int64_t k = state.range(0);
  Tensor x = RandomTensor(256, k, 11), w = RandomTensor(256, k, 12), c({256, 256});
  for (auto _ : state) {
    GemmNT(x.data(), w.data(), c.data(), 256, k, 256);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<int64_t>(GemmFlops(256, k, 256)));
}
BENCHMARK(BM_GemmNTLargeK)->Arg(1024)->Arg(4096);

void BM_Rope(benchmark::State& state) {
  const int64_t tokens = state.range(0);
  Tensor x = RandomTensor(tokens, 256, 5);
  for (auto _ : state) {
    ApplyRopeContiguous(x, 0, 4, 64);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(state.iterations() * tokens);
}
BENCHMARK(BM_Rope)->Arg(64)->Arg(512);

void BM_Softmax(benchmark::State& state) {
  Tensor x = RandomTensor(64, state.range(0), 6);
  for (auto _ : state) {
    Tensor t = x.Clone();
    SoftmaxLastDim(t);
    benchmark::DoNotOptimize(t.data());
  }
}
BENCHMARK(BM_Softmax)->Arg(128)->Arg(1024);

void BM_TinyModelPrefill(benchmark::State& state) {
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 7);
  Transformer model(&weights);
  Rng rng(8);
  std::vector<int32_t> tokens(static_cast<size_t>(state.range(0)));
  for (auto& t : tokens) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }
  for (auto _ : state) {
    KvBlockPool pool(KvPoolConfig::ForModel(cfg, 64, 16));
    PagedKvSequence seq(&pool);
    Tensor out = model.Forward(tokens, &seq);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_TinyModelPrefill)->Arg(32)->Arg(128);

void BM_RestoreLayerKv(benchmark::State& state) {
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 9);
  Transformer model(&weights);
  const int64_t n = state.range(0);
  Tensor hidden = RandomTensor(n, cfg.hidden_dim, 10);
  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  for (auto _ : state) {
    Tensor k, v;
    model.RestoreLayerKv(1, hidden, positions.data(), &k, &v);
    benchmark::DoNotOptimize(k.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_RestoreLayerKv)->Arg(64)->Arg(256);

// ---- JSON: per-tier kernel rows and thread scaling --------------------------------

// One timed case: `reps` samples after a warmup. Each sample runs `fn` `inner` times,
// enough for ~2 ms, so microsecond kernels are not lost in clock resolution; the
// per-call median, min and max are reported.
struct Timing {
  double median_s = 0, min_s = 0, max_s = 0;
  int reps = 0;
  int64_t inner = 0;
};

template <typename Fn>
Timing TimeCase(Fn&& fn, int reps = 7) {
  using Clock = std::chrono::steady_clock;
  auto elapsed = [](Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  fn();
  auto t0 = Clock::now();
  fn();
  const double one = std::max(elapsed(t0), 1e-9);
  Timing t;
  t.reps = reps;
  t.inner = std::max<int64_t>(1, static_cast<int64_t>(2e-3 / one));
  std::vector<double> samples;
  for (int r = 0; r < reps; ++r) {
    t0 = Clock::now();
    for (int64_t i = 0; i < t.inner; ++i) {
      fn();
    }
    samples.push_back(elapsed(t0) / static_cast<double>(t.inner));
  }
  std::sort(samples.begin(), samples.end());
  t.median_s = samples[samples.size() / 2];
  t.min_s = samples.front();
  t.max_s = samples.back();
  return t;
}

JsonValue TimingRow(const std::string& name, const Timing& t, double flops) {
  JsonValue row = JsonValue::Object();
  row.Set("name", name)
      .Set("seconds", t.median_s)
      .Set("min_seconds", t.min_s)
      .Set("max_seconds", t.max_s)
      .Set("spread", (t.max_s - t.min_s) / t.median_s)
      .Set("reps", t.reps)
      .Set("calls_per_rep", t.inner)
      .Set("gflops", flops / t.median_s / 1e9);
  return row;
}

// One layer of causal attention over n tokens, as Transformer::Attention runs it on one
// thread: QK dots, scale, softmax, AV update, per token and head.
void AttentionLayer(const TensorKernels& kern, const Tensor& q,
                    const std::vector<const float*>& k_rows,
                    const std::vector<const float*>& v_rows, int64_t heads, int64_t head_dim,
                    std::vector<float>& scores, Tensor& out) {
  const float scale = 1.0f / std::sqrt(static_cast<float>(head_dim));
  std::memset(out.data(), 0, static_cast<size_t>(out.numel()) * sizeof(float));
  for (int64_t i = 0; i < q.dim(0); ++i) {
    const int64_t len = i + 1;
    for (int64_t h = 0; h < heads; ++h) {
      kern.qk_dots(q.row(i) + h * head_dim, k_rows.data(), h * head_dim, len, head_dim,
                   scores.data());
      for (int64_t j = 0; j < len; ++j) {
        scores[static_cast<size_t>(j)] *= scale;
      }
      SoftmaxRow(scores.data(), len);
      kern.weighted_rows(scores.data(), v_rows.data(), h * head_dim, len, head_dim,
                         out.row(i) + h * head_dim);
    }
  }
}

// Every tier this host runs, on one thread, at the serving benchmark's model shapes
// (perfbench: hidden 256, FFN 512, 4 heads of 64): the packed-weight projections at
// the decode (m=1), question (m=14) and document (m=220) row counts, the per-call
// GemmNT a 1-row projection paid before weights were packed once, and one layer of
// attention over 220 tokens.
JsonValue TierRows() {
  constexpr int64_t kHidden = 256, kFfn = 512, kHeads = 4, kHeadDim = 64, kTokens = 220;
  const int64_t shapes[][2] = {{kHidden, kHidden}, {kHidden, kFfn}, {kFfn, kHidden}};  // k, n
  const int64_t ms[] = {1, 14, kTokens};

  Tensor q = RandomTensor(kTokens, kHidden, 40), kv_k = RandomTensor(kTokens, kHidden, 41),
         kv_v = RandomTensor(kTokens, kHidden, 42), attn_out({kTokens, kHidden});
  std::vector<const float*> k_rows, v_rows;
  for (int64_t j = 0; j < kTokens; ++j) {
    k_rows.push_back(kv_k.row(j));
    v_rows.push_back(kv_v.row(j));
  }
  std::vector<float> scores(kTokens);

  ThreadPool::ResizeShared(1);
  const SimdTier prev = ActiveSimdTier();
  JsonValue rows = JsonValue::Array();
  PrintSection("per-tier kernels (1 thread, perfbench model shapes)");
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    const SimdTier tier = ForceSimdTier(static_cast<SimdTier>(t));
    auto emit = [&](const std::string& name, const Timing& tm, double flops, int64_t m,
                    int64_t k, int64_t n) {
      std::printf("  %-7s %-28s %10.2f us  %7.2f GFLOP/s  spread %.2f\n", SimdTierName(tier),
                  name.c_str(), tm.median_s * 1e6, flops / tm.median_s / 1e9,
                  (tm.max_s - tm.min_s) / tm.median_s);
      JsonValue row = TimingRow(name, tm, flops);
      row.Set("tier", SimdTierName(tier)).Set("m", m).Set("k", k).Set("n", n);
      rows.Push(std::move(row));
    };
    for (const auto& shape : shapes) {
      const int64_t k = shape[0], n = shape[1];
      const Tensor w = RandomTensor(n, k, 43);
      const PackedWeights packed(w);
      for (const int64_t m : ms) {
        const Tensor x = RandomTensor(m, k, 44);
        Tensor c({m, n});
        const std::string suffix =
            "_m" + std::to_string(m) + "_k" + std::to_string(k) + "_n" + std::to_string(n);
        emit("gemm_packed" + suffix,
             TimeCase([&] { GemmPacked(x.data(), packed, c.data(), m); }),
             GemmFlops(m, k, n), m, k, n);
        if (m == 1 && k == kHidden && n == kHidden) {
          emit("gemm_nt" + suffix,
               TimeCase([&] { GemmNT(x.data(), w.data(), c.data(), m, k, n); }),
               GemmFlops(m, k, n), m, k, n);
        }
      }
    }
    // QK and AV each do one multiply-add per (query, key, dim): causal pairs n(n+1)/2.
    const double attn_flops = 2.0 * GemmFlops(kTokens * (kTokens + 1) / 2, kHeadDim, kHeads);
    emit("attention_n220",
         TimeCase([&] {
           AttentionLayer(TensorKernelsFor(tier), q, k_rows, v_rows, kHeads, kHeadDim, scores,
                          attn_out);
         }),
         attn_flops, kTokens, kHeadDim, kHeads);
  }
  ForceSimdTier(prev);
  return rows;
}

// The thread-scaling sweep over the large shapes (1024^3 GemmNN, the 256-token KV
// projection, and the large-k GemmNT point) on the active tier.
JsonValue ThreadScalingRows(size_t max_threads) {
  Tensor a = RandomTensor(1024, 1024, 21), b = RandomTensor(1024, 1024, 22),
         c({1024, 1024});
  Tensor px = RandomTensor(256, 256, 23), pw = RandomTensor(256, 256, 24);
  Tensor lx = RandomTensor(256, 4096, 25), lw = RandomTensor(256, 4096, 26),
         lc({256, 256});

  struct SweepCase {
    const char* name;
    double flops;  // per invocation
    std::function<void()> run;
  };
  std::vector<SweepCase> cases;
  cases.push_back({"gemm_nn_1024", GemmFlops(1024, 1024, 1024),
                   [&] { GemmNN(a.data(), b.data(), c.data(), 1024, 1024, 1024); }});
  cases.push_back({"kv_projection_256", GemmFlops(256, 256, 256), [&] {
                     Tensor k = MatMulTransposedB(px, pw);
                     benchmark::DoNotOptimize(k.data());
                   }});
  cases.push_back({"gemm_nt_256x4096x256", GemmFlops(256, 4096, 256),
                   [&] { GemmNT(lx.data(), lw.data(), lc.data(), 256, 4096, 256); }});

  JsonValue rows = JsonValue::Array();
  PrintSection(std::string("thread scaling (") + SimdTierName(ActiveSimdTier()) + ")");
  std::vector<size_t> thread_counts = {1};
  if (max_threads > 1) {
    thread_counts.push_back(max_threads);
  }
  for (auto& sc : cases) {
    double serial_seconds = 0.0;
    for (const size_t threads : thread_counts) {
      ThreadPool::ResizeShared(threads);
      const Timing t = TimeCase(sc.run, 5);
      if (threads == 1) {
        serial_seconds = t.median_s;
      }
      std::printf("  %-24s threads=%-2zu  %.4f s  %7.2f GFLOP/s  speedup %.2fx\n", sc.name,
                  threads, t.median_s, sc.flops / t.median_s / 1e9,
                  serial_seconds / t.median_s);
      JsonValue row = TimingRow(sc.name, t, sc.flops);
      row.Set("tier", SimdTierName(ActiveSimdTier()))
          .Set("threads", static_cast<int64_t>(threads))
          .Set("speedup_vs_1thread", serial_seconds / t.median_s);
      rows.Push(std::move(row));
    }
  }
  return rows;
}

void WriteMicroTensorJson() {
  const size_t hw = std::thread::hardware_concurrency();
  const size_t max_threads = hw > 0 ? hw : 1;
  JsonValue doc = JsonValue::Object();
  doc.Set("bench", "micro_tensor")
      .Set("host", HostFingerprint())
      .Set("note",
           "seconds is the per-call median of `reps` samples (each `calls_per_rep` "
           "calls), spread is (max - min) / median; tier_kernels run on 1 thread under "
           "each tier the host can execute, thread_scaling on the active tier")
      .Set("tier_kernels", TierRows())
      .Set("thread_scaling", ThreadScalingRows(max_threads));
  ThreadPool::ResizeShared(max_threads);
  WriteJsonFile("BENCH_micro_tensor.json", doc);
}

}  // namespace
}  // namespace hcache

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  hcache::WriteMicroTensorJson();
  return 0;
}
