#include "src/core/functional_engine.h"

#include <atomic>
#include <cstring>
#include <future>
#include <numeric>
#include <utility>

#include "src/common/logging.h"
#include "src/storage/codec.h"

namespace hcache {

FunctionalHCache::FunctionalHCache(Transformer* model, StorageBackend* store,
                                   ThreadPool* flush_pool, int64_t chunk_tokens,
                                   ChunkCodec codec)
    : model_(model),
      store_(store),
      flush_pool_(flush_pool),
      chunk_tokens_(chunk_tokens),
      codec_(codec) {
  CHECK(model != nullptr);
  CHECK(store != nullptr);
  // KV chunks carry K and V interleaved per token: rows are 2 * kv_dim wide.
  const int64_t kv_chunk_bytes =
      EncodedChunkBytes(codec_, chunk_tokens_, 2 * model_->config().kv_dim());
  CHECK_LE(kv_chunk_bytes, store_->chunk_bytes()) << "chunk store too small for KV chunks";
}

HiddenStateSink* FunctionalHCache::BeginCapture(int64_t context_id) {
  auto& writer = writers_[context_id];
  if (writer == nullptr) {
    writer = std::make_unique<HiddenStateWriter>(store_, flush_pool_, model_->config(),
                                                 context_id, chunk_tokens_, codec_);
  }
  return writer.get();
}

void FunctionalHCache::SealContext(int64_t context_id) {
  const auto it = writers_.find(context_id);
  CHECK(it != writers_.end()) << "unknown context " << context_id;
  it->second->Seal();
}

void FunctionalHCache::SaveKvLayer(int64_t context_id, const PagedKvSequence& seq,
                                   int64_t layer) {
  const ModelConfig& cfg = model_->config();
  const int64_t n = seq.num_tokens();
  const int64_t kv_dim = cfg.kv_dim();
  const int64_t row_floats = 2 * kv_dim;
  const int64_t row_stride = CodecRowBytes(codec_, row_floats);
  const int64_t num_chunks = (n + chunk_tokens_ - 1) / chunk_tokens_;
  std::vector<uint8_t> payload(
      static_cast<size_t>(EncodedChunkBytes(codec_, chunk_tokens_, row_floats)));
  std::vector<float> row_buf(static_cast<size_t>(row_floats));
  for (int64_t c = 0; c < num_chunks; ++c) {
    const int64_t first = c * chunk_tokens_;
    const int64_t count = std::min(chunk_tokens_, n - first);
    for (int64_t i = 0; i < count; ++i) {
      // Gather the token's K and V halves once, then encode straight into the chunk —
      // the interleaved [K | V] row is never staged as a second FP32 buffer.
      std::memcpy(row_buf.data(), seq.KeyRow(layer, first + i),
                  static_cast<size_t>(kv_dim) * sizeof(float));
      std::memcpy(row_buf.data() + kv_dim, seq.ValueRow(layer, first + i),
                  static_cast<size_t>(kv_dim) * sizeof(float));
      EncodeRowsInto(codec_, row_buf.data(), row_floats, 1, row_floats,
                     payload.data() + sizeof(ChunkHeader) + i * row_stride);
    }
    WriteChunkHeader(codec_, count, row_floats, payload.data());
    const ChunkKey key{context_id, kKvLayerBase + layer, c};
    CHECK(store_->WriteChunk(key, payload.data(),
                             static_cast<int64_t>(sizeof(ChunkHeader)) + count * row_stride));
  }
}

void FunctionalHCache::SaveKvLayers(int64_t context_id, const PagedKvSequence& seq,
                                    const std::vector<int64_t>& layers) {
  CHECK(seq.has_kv());
  for (int64_t layer : layers) {
    SaveKvLayer(context_id, seq, layer);
  }
}

bool FunctionalHCache::CanRestore(int64_t context_id, const PartitionScheme& scheme,
                                  int64_t n) const {
  // A scheme must say how every layer comes back: negative counts, or layers outside
  // the hidden range with no complement to restore them, would leave those layers'
  // KV blocks holding whatever they held before.
  if (scheme.layers_hidden < 0 || scheme.layers_other < 0 ||
      (scheme.complement == ComplementMethod::kNone && scheme.layers_other > 0)) {
    return false;
  }
  const ModelConfig& cfg = model_->config();
  const HiddenStateReader reader(store_, cfg, chunk_tokens_);
  const int64_t first_hidden =
      scheme.complement == ComplementMethod::kRecompute ? scheme.layers_other : 0;
  for (int64_t layer = first_hidden; layer < first_hidden + scheme.layers_hidden; ++layer) {
    if (!reader.LayerComplete(context_id, layer, n, codec_)) {
      return false;
    }
  }
  if (scheme.complement == ComplementMethod::kKvOffload) {
    for (int64_t layer = scheme.layers_hidden; layer < cfg.num_layers; ++layer) {
      if (!reader.RowsComplete(context_id, kKvLayerBase + layer, n, 2 * cfg.kv_dim(),
                               codec_)) {
        return false;
      }
    }
  }
  return true;
}

bool FunctionalHCache::RestoreContext(int64_t context_id, const PartitionScheme& scheme,
                                      const std::vector<int32_t>& history_tokens,
                                      PagedKvSequence* seq) {
  const ModelConfig& cfg = model_->config();
  const int64_t nl = cfg.num_layers;
  CHECK_EQ(scheme.layers_hidden + scheme.layers_other, nl);
  CHECK(!seq->has_kv()) << "restore target must be evicted";
  const int64_t n = seq->num_tokens();
  CHECK_GT(n, 0);

  // Fail before mutating the sequence if the pool cannot hold the restored state or
  // any required chunk is missing/short (device loss, partial save).
  const int64_t bt = seq->pool()->block_tokens();
  if ((n + bt - 1) / bt > seq->pool()->num_free()) {
    return false;
  }
  if (!CanRestore(context_id, scheme, n)) {
    return false;
  }

  // Hidden-layer range [first_hidden, first_hidden + L_H); under the recompute
  // complement the first L_O = first_hidden layers are rebuilt from raw tokens.
  const int64_t first_hidden =
      scheme.complement == ComplementMethod::kRecompute ? scheme.layers_other : 0;
  if (first_hidden > 0) {
    CHECK_EQ(static_cast<int64_t>(history_tokens.size()), n)
        << "recompute complement needs the original tokens";
  }
  seq->ResetForRestore();
  CHECK(seq->EnsureCapacity(n));

  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  const HiddenStateReader reader(store_, cfg, chunk_tokens_);

  // Restoration is a two-stream pipeline, mirroring the paper's dedicated transmission
  // and computation streams: while the caller computes (recomputes the first L_O
  // layers, then projects layer i's hidden states into K/V), the flush pool is already
  // reading the next layer's chunks from the backend. The first hidden layer's read is
  // submitted before the recompute runs, so it overlaps the token recomputation; each
  // later step consumes data loaded one step ahead, so file/tiered I/O overlaps the
  // projection GEMMs instead of serializing with them. KV-offloaded layers join the
  // same pipeline: their chunk reads prefetch behind the last projections. Without a
  // flush pool the plan degrades to serial loads — the bytes and math are identical
  // either way.
  struct LayerState {
    int64_t layer = 0;
    bool from_hidden = false;
    Tensor hidden;  // from_hidden: the layer's saved input activations
    Tensor k, v;    // !from_hidden: the layer's offloaded KV rows
  };
  std::vector<LayerState> plan;
  for (int64_t layer = first_hidden; layer < first_hidden + scheme.layers_hidden; ++layer) {
    plan.push_back({layer, /*from_hidden=*/true, {}, {}, {}});
  }
  if (scheme.complement == ComplementMethod::kKvOffload) {
    for (int64_t layer = scheme.layers_hidden; layer < nl; ++layer) {
      plan.push_back({layer, /*from_hidden=*/false, {}, {}, {}});
    }
  }

  // CanRestore vets sizes, not payloads: a chunk that passed the size check can still
  // fail its CRC (or parse) when actually read. Loads therefore report failure through
  // `load_failed` (they may run on a pool thread, where throwing or CHECKing would
  // take the process down) and the pipeline unwinds to "still evicted" below.
  std::atomic<bool> load_failed{false};
  auto load = [&](LayerState& entry) {
    if (entry.from_hidden) {
      Tensor hidden({n, cfg.hidden_dim});
      if (!reader.ReadLayerInto(context_id, entry.layer, n, hidden.data())) {
        load_failed.store(true, std::memory_order_release);
        return;
      }
      entry.hidden = std::move(hidden);
    } else {
      // Fused decode + de-interleave: each stored [K | V] row dequantizes straight
      // into the two destination tensors via column slices.
      const int64_t kv_dim = cfg.kv_dim();
      entry.k = Tensor({n, kv_dim});
      entry.v = Tensor({n, kv_dim});
      const HiddenStateReader::ColumnSlice slices[] = {{0, kv_dim, entry.k.data()},
                                                       {kv_dim, 2 * kv_dim, entry.v.data()}};
      if (!reader.ReadRowsInto(context_id, kKvLayerBase + entry.layer, n, 2 * kv_dim,
                               slices)) {
        load_failed.store(true, std::memory_order_release);
      }
    }
  };
  auto submit_load = [&](LayerState& entry) {
    auto done = std::make_shared<std::promise<void>>();
    std::future<void> fut = done->get_future();
    flush_pool_->Submit([&entry, &load, done] {
      load(entry);
      done->set_value();
    });
    return fut;
  };

  std::future<void> next_loaded;
  if (flush_pool_ != nullptr && !plan.empty()) {
    next_loaded = submit_load(plan.front());
  }
  if (first_hidden > 0) {
    // Only the recomputed layers' K/V are kept: layer L_O restores from its saved
    // input, so layer L_O - 1's output is never used. Layers [0, L_O - 1) run in full,
    // each feeding the next; layer L_O - 1 runs only its pre-norm and K/V projection,
    // which is what RestoreLayerKv does to the input ForwardPartial returns.
    const int64_t last = first_hidden - 1;
    const Tensor last_input = model_->ForwardPartial(history_tokens, seq, last);
    Tensor k, v;
    model_->RestoreLayerKv(last, last_input, positions.data(), &k, &v);
    seq->WriteKv(last, 0, k, v);
  }
  if (first_hidden <= 1) {
    seq->CommitTokens(n);  // ForwardPartial commits tokens only when it runs a layer
  }
  for (size_t idx = 0; idx < plan.size(); ++idx) {
    LayerState& entry = plan[idx];
    if (next_loaded.valid()) {
      next_loaded.get();  // wait for this layer's read...
      if (idx + 1 < plan.size() && !load_failed.load(std::memory_order_acquire)) {
        next_loaded = submit_load(plan[idx + 1]);  // ...and start the next one now
      } else {
        next_loaded = std::future<void>();
      }
    } else {
      load(entry);
    }
    if (load_failed.load(std::memory_order_acquire)) {
      break;
    }
    if (entry.from_hidden) {
      Tensor k, v;
      model_->RestoreLayerKv(entry.layer, entry.hidden, positions.data(), &k, &v);
      seq->WriteKv(entry.layer, 0, k, v);
      entry.hidden = Tensor();  // release the staged activations early
    } else {
      seq->WriteKv(entry.layer, 0, entry.k, entry.v);
    }
  }
  if (load_failed.load(std::memory_order_acquire)) {
    // The failure may have been set by the layer we just consumed while its
    // *successor's* prefetch was already submitted — wait that one out before
    // unwinding so no pool task still references this frame.
    if (next_loaded.valid()) {
      next_loaded.get();
    }
    // Leave the sequence exactly as a failed-precondition return does: evicted
    // (partially written KV released) with its history length intact, so the caller
    // can recompute from tokens.
    seq->Evict();
    HCACHE_LOG_ERROR << "restore aborted, sequence left evicted: ctx=" << context_id;
    return false;
  }
  return true;
}

void FunctionalHCache::DropContext(int64_t context_id) {
  writers_.erase(context_id);
  store_->DeleteContext(context_id);
}

Tensor FunctionalHCache::ReadHidden(int64_t context_id, int64_t layer, int64_t n) const {
  return HiddenStateReader(store_, model_->config(), chunk_tokens_)
      .ReadLayer(context_id, layer, n);
}

}  // namespace hcache
