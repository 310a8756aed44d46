#include "perfbench/src/bench.h"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <numeric>
#include <thread>

#include "src/common/logging.h"
#include "src/storage/hidden_saver.h"
#include "src/storage/layout.h"
#include "src/workload/leval.h"

namespace perfbench {

using hcache::ChunkKey;
using hcache::ComplementMethod;
using hcache::PagedKvSequence;
using hcache::PartitionScheme;
using hcache::Tensor;

namespace {

constexpr int64_t kChunkTokens = hcache::kDefaultChunkTokens;
constexpr int kNumDevices = 4;
// Timed rounds a run completes at the least (the p90 needs ten samples beyond it);
// a run stops at 4x its time budget even when rounds are slower than planned.
constexpr int64_t kMinRounds = 100;
// FunctionalHCache stores layer L's KV chunks under layer key kKvLayerBase + L (a
// private constant of the engine); the profile reads them directly and checks that
// the keys exist.
constexpr int64_t kKvLayerBase = 1'000'000;
// The model is tiny and runs on a CPU, so the generators' token counts are scaled
// down: ShareGPT prompts /2 and responses /32, L-Eval documents /32; rag questions
// are a quarter of the L-Eval input, clamped.
constexpr int64_t kInputDiv = 2;
constexpr int64_t kOutputDiv = 32;
constexpr int64_t kDocDiv = 32;
constexpr int64_t kQuestionMin = 4, kQuestionMax = 24;
constexpr int64_t kAnswerMin = 4;

struct Stopwatch {
  int64_t t0 = NowNs();
  double ms() const { return static_cast<double>(NowNs() - t0) / 1e6; }
  double us() const { return static_cast<double>(NowNs() - t0) / 1e3; }
};

int32_t Argmax(const Tensor& logits) {
  int32_t best = 0;
  float best_v = logits.at(0, 0);
  for (int64_t v = 1; v < logits.dim(1); ++v) {
    if (logits.at(0, v) > best_v) {
      best_v = logits.at(0, v);
      best = static_cast<int32_t>(v);
    }
  }
  return best;
}

// Appends the K and V rows of tokens [0, n) of every layer: [layer][token][K | V].
void SnapshotKv(const PagedKvSequence& seq, int64_t n, int64_t num_layers, int64_t kv_dim,
                std::vector<float>* out) {
  const size_t row = static_cast<size_t>(kv_dim);
  out->resize(static_cast<size_t>(num_layers * n) * 2 * row);
  float* dst = out->data();
  for (int64_t l = 0; l < num_layers; ++l) {
    for (int64_t t = 0; t < n; ++t) {
      std::memcpy(dst, seq.KeyRow(l, t), row * sizeof(float));
      std::memcpy(dst + row, seq.ValueRow(l, t), row * sizeof(float));
      dst += 2 * row;
    }
  }
}

// Records each layer's input activations of one forward pass (rag set-up replays
// them into every session's capture sink).
class RecordingSink : public hcache::HiddenStateSink {
 public:
  void OnLayerInput(int64_t layer, const Tensor& hidden, const int32_t* positions,
                    int64_t n) override {
    if (static_cast<int64_t>(hidden_.size()) <= layer) {
      hidden_.resize(static_cast<size_t>(layer + 1));
    }
    hidden_[static_cast<size_t>(layer)] = hidden.Clone();
    positions_.assign(positions, positions + n);
  }
  void Replay(hcache::HiddenStateSink* sink) const {
    for (size_t l = 0; l < hidden_.size(); ++l) {
      sink->OnLayerInput(static_cast<int64_t>(l), hidden_[l], positions_.data(),
                         static_cast<int64_t>(positions_.size()));
    }
  }

 private:
  std::vector<Tensor> hidden_;
  std::vector<int32_t> positions_;
};

// Ids of a pool's worker threads: each of N blocking tasks waits until all N run, so
// every worker takes exactly one.
std::vector<std::thread::id> WorkerIds(hcache::ThreadPool& pool) {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::thread::id> ids;
  const size_t n = pool.num_threads();
  for (size_t i = 0; i < n; ++i) {
    pool.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      ids.push_back(std::this_thread::get_id());
      cv.notify_all();
      cv.wait(lock, [&] { return ids.size() == n; });
    });
  }
  pool.Drain();
  return ids;
}

std::vector<int64_t> KvLayers(const PartitionScheme& s, int64_t num_layers) {
  std::vector<int64_t> layers;
  if (s.complement == ComplementMethod::kKvOffload) {
    for (int64_t l = s.layers_hidden; l < num_layers; ++l) {
      layers.push_back(l);
    }
  }
  return layers;
}

hcache::StorageStats Delta(const hcache::StorageStats& end, const hcache::StorageStats& start) {
  hcache::StorageStats d = end;  // gauges keep their end values
  d.total_writes -= start.total_writes;
  d.total_reads -= start.total_reads;
  d.dram_hits -= start.dram_hits;
  d.cold_hits -= start.cold_hits;
  d.dram_hit_bytes -= start.dram_hit_bytes;
  d.cold_hit_bytes -= start.cold_hit_bytes;
  d.evicted_contexts -= start.evicted_contexts;
  d.writeback_chunks -= start.writeback_chunks;
  d.writeback_bytes -= start.writeback_bytes;
  d.drain_rescued_chunks -= start.drain_rescued_chunks;
  d.writer_stalls -= start.writer_stalls;
  d.writeback_failures -= start.writeback_failures;
  d.promotions_skipped -= start.promotions_skipped;
  d.writeback_retries -= start.writeback_retries;
  d.crc_failures -= start.crc_failures;
  d.crc_checked_bytes -= start.crc_checked_bytes;
  d.dedup_hits -= start.dedup_hits;
  d.dedup_bytes_saved -= start.dedup_bytes_saved;
  return d;
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  if (name == "chat-spill") {
    *out = Workload::kChatSpill;
  } else if (name == "rag") {
    *out = Workload::kRag;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kChatSpill:
      return "chat-spill";
    case Workload::kRag:
      return "rag";
  }
  return "?";
}

Shape DefaultShape(Workload w) {
  Shape s;
  switch (w) {
    case Workload::kChatSpill:
      s.sessions = 16;
      s.dram_factor = 0.25;
      break;
    case Workload::kRag:
      s.sessions = 32;
      s.docs = 8;
      s.dram_factor = 1.0 / 3.0;
      break;
  }
  return s;
}

hcache::ModelConfig BenchModelConfig() {
  hcache::ModelConfig c = hcache::ModelConfig::TinyLlama(8, 256, 4);
  c.max_position = 2048;
  return c;
}

Bench::Bench(const Config& config)
    : config_(config),
      mc_(BenchModelConfig()),
      rng_(config.seed * 0x9E3779B97F4A7C15ull + static_cast<uint64_t>(config.workload)),
      recorder_(config.traced ? std::make_unique<SpanRecorder>() : nullptr),
      flush_pool_(kFlushThreads),
      weights_(hcache::ModelWeights::Random(mc_, 7)),
      model_(&weights_),
      restorer_(hcache::Platform::DefaultTestbed(1, 4), mc_,
                hcache::StorageLayout::kLayerChunked, kChunkTokens, hcache::ChunkCodec::kFp32) {
  const int64_t max_tokens = std::max(config_.shape.history_cap, config_.shape.doc_max) + 256;
  CHECK_LE(max_tokens, mc_.max_position);
  const int64_t blocks_per_seq = max_tokens / 16 + 2;
  // One served sequence, one set-up / profile sequence, one spare.
  kv_pool_ = std::make_unique<hcache::KvBlockPool>(
      hcache::KvPoolConfig::ForModel(mc_, 3 * blocks_per_seq, 16));
  if (recorder_ != nullptr) {
    for (std::thread::id id : WorkerIds(flush_pool_)) {
      recorder_->AttachThread(id);
    }
  }
}

Bench::~Bench() {
  // Writers seal into the store on destruction; drop them before the stack goes.
  sessions_.clear();
  engine_.reset();
}

void Bench::BuildStack(int64_t dram_budget_bytes) {
  dram_budget_bytes_ = dram_budget_bytes;
  const int64_t chunk_bytes =
      hcache::EncodedChunkBytes(hcache::ChunkCodec::kFp32, kChunkTokens, 2 * mc_.kv_dim());
  std::vector<std::string> devices;
  for (int i = 0; i < kNumDevices; ++i) {
    devices.push_back(config_.store_dir + "/nvme" + std::to_string(i));
  }
  SpanRecorder* rec = recorder_.get();
  file_ = std::make_unique<hcache::FileBackend>(devices, chunk_bytes);
  hcache::StorageBackend* below = file_.get();
  if (config_.traced) {
    t_file_ = std::make_unique<TimingBackend>(below, "file", rec);
    below = t_file_.get();
  }
  dedup_ = std::make_unique<hcache::DedupBackend>(below);
  below = dedup_.get();
  if (config_.traced) {
    t_dedup_ = std::make_unique<TimingBackend>(below, "dedup", rec);
    below = t_dedup_.get();
  }
  hcache::TieredOptions tiered_options;
  if (config_.sync_writeback) {
    tiered_options.writeback = hcache::TieredOptions::Writeback::kSync;
  }
  tiered_ = std::make_unique<hcache::TieredBackend>(below, dram_budget_bytes, tiered_options);
  top_ = tiered_.get();
  if (config_.traced) {
    t_tiered_ = std::make_unique<TimingBackend>(top_, "tiered", rec);
    top_ = t_tiered_.get();
  }
  engine_ = std::make_unique<hcache::FunctionalHCache>(&model_, top_, &flush_pool_, kChunkTokens,
                                                       hcache::ChunkCodec::kFp32);
}

std::vector<int32_t> Bench::RandomTokens(int64_t n) {
  std::vector<int32_t> t(static_cast<size_t>(n));
  for (auto& x : t) {
    x = static_cast<int32_t>(rng_.NextBounded(static_cast<uint64_t>(mc_.vocab_size)));
  }
  return t;
}

namespace {

// Scaled token counts of one ShareGPT round and whether it fits under the cap.
struct RoundTokens {
  int64_t input = 0;
  int64_t output = 0;  // generated tokens; output - 1 of them are fed back (decode steps)
};

RoundTokens ScaleRound(const hcache::ConversationRound& r, const Shape& shape) {
  RoundTokens t;
  t.input = std::clamp<int64_t>(r.input_tokens / kInputDiv, 2, shape.history_cap / 4);
  t.output = std::clamp<int64_t>(r.output_tokens / kOutputDiv, 2, shape.max_output);
  return t;
}

// True when round `idx` of `conv` exists and keeps the history within the cap.
bool RoundFits(const hcache::Conversation& conv, size_t idx, int64_t history,
               const Shape& shape) {
  if (idx >= conv.rounds.size()) {
    return false;
  }
  const RoundTokens t = ScaleRound(conv.rounds[idx], shape);
  return history + t.input + t.output - 1 <= shape.history_cap;
}

// Generator seed of the conversation shapes: every run replays one fixed ShareGPT-shaped
// trace and the run's seed draws the token ids. TTFT grows steeply with the restored
// history, so with seeded shapes the median also moved with the few dozen
// conversations a seed drew, not only with the code under test.
constexpr uint64_t kConversationTraceSeed = 0xD1B54A32D192ED03ull + 11;

// Task of rag document d, cycling QuALITY, Paper Assistant, GSM-100 down the Zipf
// ranks. The mid-length task leads, so the shortest task's share (~18%) and the
// longest's (~30%) leave the median request inside one task: no percentile sits on a
// boundary between two length modes, where it would jump with the sampled mix.
hcache::LEvalTask DocTask(size_t d) {
  static constexpr hcache::LEvalTask kOrder[] = {hcache::LEvalTask::kQuality,
                                                 hcache::LEvalTask::kPaperAssistant,
                                                 hcache::LEvalTask::kGsm100};
  return kOrder[d % 3];
}

}  // namespace

int64_t Bench::PlanChatWorkingSetBytes() {
  // Replays the round-robin schedule of the conversation trace on token counts only and
  // averages the live history across the rounds a run is expected to serve.
  const Shape& sh = config_.shape;
  hcache::ShareGptGenerator gen(kConversationTraceSeed);
  struct Plan {
    hcache::Conversation conv;
    size_t next = 0;
    int64_t history = 0;
  };
  auto fresh = [&](Plan& p) {
    p.conv = gen.Next();
    p.next = 0;
    p.history = 0;
  };
  std::vector<Plan> plans(static_cast<size_t>(sh.sessions));
  for (Plan& p : plans) {
    do {
      fresh(p);
    } while (!RoundFits(p.conv, 1, ScaleRound(p.conv.rounds[0], sh).input, sh));
    p.history = ScaleRound(p.conv.rounds[0], sh).input;
    p.next = 1;
  }
  double sum = 0;
  const int planned_rounds = 4 * sh.sessions + 200;
  for (int i = 0; i < planned_rounds; ++i) {
    Plan& p = plans[static_cast<size_t>(i) % plans.size()];
    const RoundTokens t = ScaleRound(p.conv.rounds[p.next], sh);
    p.history += t.input + t.output - 1;
    ++p.next;
    if (!RoundFits(p.conv, p.next, p.history, sh)) {
      fresh(p);
    }
    int64_t live = 0;
    for (const Plan& q : plans) {
      live += q.history;
    }
    sum += static_cast<double>(live);
  }
  const double mean_tokens = sum / planned_rounds;
  return static_cast<int64_t>(mean_tokens * static_cast<double>(mc_.num_layers) *
                              static_cast<double>(mc_.hidden_dim) * sizeof(float));
}

void Bench::NewConversation(Session& s) {
  s.ctx = next_ctx_++;
  s.conv = conv_gen_->Next();
  s.next_round = 0;
  s.tokens.clear();
  s.snapshot.clear();
  s.seq = std::make_unique<PagedKvSequence>(kv_pool_.get());
}

hcache::HiddenStateSink* Bench::CaptureSink(int64_t ctx) {
  hcache::HiddenStateSink* sink = engine_->BeginCapture(ctx);
  if (!config_.traced) {
    return sink;
  }
  timing_sink_ = std::make_unique<TimingSink>(sink, recorder_.get(), &capture_us_);
  return timing_sink_.get();
}

void Bench::Setup() {
  if (config_.workload == Workload::kRag) {
    SetupRag();
  } else {
    SetupChat();
  }
  top_->Quiesce();
}

void Bench::SetupChat() {
  const Shape& sh = config_.shape;
  BuildStack(static_cast<int64_t>(sh.dram_factor *
                                  static_cast<double>(PlanChatWorkingSetBytes())));
  conv_gen_ = std::make_unique<hcache::ShareGptGenerator>(kConversationTraceSeed);
  sessions_.resize(static_cast<size_t>(sh.sessions));
  // Every session starts with its first prompt prefilled, saved and evicted, so the
  // first timed round of each session already restores.
  for (Session& s : sessions_) {
    do {
      NewConversation(s);
    } while (!RoundFits(s.conv, 1, ScaleRound(s.conv.rounds[0], sh).input, sh));
    const std::vector<int32_t> prompt = RandomTokens(ScaleRound(s.conv.rounds[0], sh).input);
    model_.Forward(prompt, s.seq.get(), engine_->BeginCapture(s.ctx));
    s.tokens = prompt;
    engine_->SealContext(s.ctx);
    const int64_t n = static_cast<int64_t>(s.tokens.size());
    const std::vector<int64_t> kv = KvLayers(restorer_.Schedule(n), mc_.num_layers);
    if (!kv.empty()) {
      engine_->SaveKvLayers(s.ctx, *s.seq, kv);
    }
    SnapshotKv(*s.seq, n, mc_.num_layers, mc_.kv_dim(), &s.snapshot);
    s.seq->Evict();
    s.next_round = 1;
  }
}

void Bench::SetupRag() {
  const Shape& sh = config_.shape;
  // Document d serves L-Eval task DocTask(d) at that task's mean context length
  // (Table 1), scaled; the seed draws the tokens, the request stream and the
  // question/answer lengths. Fixed lengths keep the Zipf head's cost from swinging
  // with the seed.
  docs_.resize(static_cast<size_t>(sh.docs));
  int64_t logical_tokens = 0;
  for (size_t d = 0; d < docs_.size(); ++d) {
    const hcache::LEvalTask task = DocTask(d);
    const int64_t n = std::clamp(
        static_cast<int64_t>(hcache::LEvalGenerator::MeanContext(task)) / kDocDiv,
        sh.doc_min, sh.doc_max);
    docs_[d].tokens = RandomTokens(n);
  }
  sessions_.resize(static_cast<size_t>(sh.sessions));
  for (size_t i = 0; i < sessions_.size(); ++i) {
    Session& s = sessions_[i];
    s.doc = static_cast<int>(i % docs_.size());
    s.ctx = next_ctx_++;
    s.tokens = docs_[static_cast<size_t>(s.doc)].tokens;
    docs_[static_cast<size_t>(s.doc)].sessions.push_back(static_cast<int>(i));
    logical_tokens += static_cast<int64_t>(s.tokens.size());
  }
  BuildStack(static_cast<int64_t>(sh.dram_factor * static_cast<double>(logical_tokens) *
                                  static_cast<double>(mc_.num_layers * mc_.hidden_dim) *
                                  sizeof(float)));
  // One prefill per document; every session's copy is the same capture replayed.
  for (Doc& doc : docs_) {
    const int64_t n = static_cast<int64_t>(doc.tokens.size());
    PagedKvSequence seq(kv_pool_.get());
    RecordingSink recording;
    model_.Forward(doc.tokens, &seq, &recording);
    SnapshotKv(seq, n, mc_.num_layers, mc_.kv_dim(), &doc.reference);
    const std::vector<int64_t> kv = KvLayers(restorer_.Schedule(n), mc_.num_layers);
    for (int idx : doc.sessions) {
      const int64_t ctx = sessions_[static_cast<size_t>(idx)].ctx;
      recording.Replay(engine_->BeginCapture(ctx));
      engine_->SealContext(ctx);
      if (!kv.empty()) {
        engine_->SaveKvLayers(ctx, seq, kv);
      }
    }
  }
  zipf_ = std::make_unique<hcache::ZipfianGenerator>(docs_.size(), 1.0);
  rag_gen_ = std::make_unique<hcache::LEvalGenerator>(config_.seed * 0x94D049BB133111EBull + 5);
}

bool Bench::RestoreSession(Session& s, PhaseResult& r) {
  SpanRecorder* rec = recorder_.get();
  const int64_t n = static_cast<int64_t>(s.tokens.size());
  PartitionScheme scheme;
  {
    ScopedSpan span(rec, "schedule");
    Stopwatch sw;
    scheme = restorer_.Schedule(n);
    r.schedule_us.Add(sw.us());
  }
  r.layers_hidden.Add(static_cast<double>(scheme.layers_hidden));
  r.layers_recompute.Add(
      scheme.complement == ComplementMethod::kRecompute ? static_cast<double>(scheme.layers_other)
                                                        : 0.0);
  r.layers_kv.Add(scheme.complement == ComplementMethod::kKvOffload
                      ? static_cast<double>(scheme.layers_other)
                      : 0.0);
  r.restored_history.push_back(n);
  bool ok = false;
  {
    ScopedSpan span(rec, "restore");
    Stopwatch sw;
    ok = engine_->RestoreContext(s.ctx, scheme, s.tokens, s.seq.get());
    r.restore_ms.Add(sw.ms());
  }
  if (!ok) {
    // Fallback: recompute the history from its tokens.
    ScopedSpan span(rec, "fallback");
    ++r.restore_failures;
    s.seq->ResetForRestore();
    model_.Forward(s.tokens, s.seq.get(), nullptr);
  }
  return ok;
}

int32_t Bench::Prefill(const std::vector<int32_t>& prompt, PagedKvSequence* seq,
                       hcache::HiddenStateSink* sink, PhaseResult& r) {
  ScopedSpan span(recorder_.get(), "prefill");
  Stopwatch sw;
  const Tensor h = model_.Forward(prompt, seq, sink);
  Tensor last({1, mc_.hidden_dim});
  std::memcpy(last.data(), h.row(h.dim(0) - 1),
              static_cast<size_t>(mc_.hidden_dim) * sizeof(float));
  const int32_t tok = Argmax(model_.Logits(last));
  r.prefill_ms.Add(sw.ms());
  return tok;
}

void Bench::Decode(int32_t first, int64_t steps, PagedKvSequence* seq,
                   hcache::HiddenStateSink* sink, std::vector<int32_t>* fed, PhaseResult& r) {
  int32_t tok = first;
  for (int64_t i = 0; i < steps; ++i) {
    ScopedSpan span(recorder_.get(), "decode");
    Stopwatch sw;
    const Tensor h = model_.Forward({tok}, seq, sink);
    const Tensor logits = model_.Logits(h);
    r.decode_ms.Add(sw.ms());  // the model's share of the step
    fed->push_back(tok);
    tok = Argmax(logits);
    r.tbt_ms.Add(sw.ms());
  }
}

bool Bench::VerifyKv(const PagedKvSequence& seq, int64_t n, const std::vector<float>& snapshot) {
  std::vector<float> restored;
  SnapshotKv(seq, n, mc_.num_layers, mc_.kv_dim(), &restored);
  const bool match = restored.size() == snapshot.size() &&
                     std::memcmp(restored.data(), snapshot.data(),
                                 restored.size() * sizeof(float)) == 0;
  if (log_restored_) {
    restored_log_.push_back(std::move(restored));
  }
  return match;
}

void Bench::ChatRound(PhaseResult& r) {
  SpanRecorder* rec = recorder_.get();
  const Shape& sh = config_.shape;
  Session& s = sessions_[next_session_++ % sessions_.size()];
  const RoundTokens t = ScaleRound(s.conv.rounds[s.next_round], sh);
  const std::vector<int32_t> prompt = RandomTokens(t.input);
  const int64_t history = static_cast<int64_t>(s.tokens.size());

  const uint64_t round_span = rec != nullptr ? rec->BeginRound() : 0;
  Stopwatch round;
  bool ok = true;
  if (history > 0) {
    ok = RestoreSession(s, r);
  }
  hcache::HiddenStateSink* sink = CaptureSink(s.ctx);
  const int32_t first = Prefill(prompt, s.seq.get(), sink, r);
  r.ttft_ms.Add(round.ms());
  s.tokens.insert(s.tokens.end(), prompt.begin(), prompt.end());
  Decode(first, t.output - 1, s.seq.get(), sink, &s.tokens, r);
  {
    ScopedSpan span(rec, "seal");
    Stopwatch sw;
    engine_->SealContext(s.ctx);
    r.seal_ms.Add(sw.ms());
  }
  const int64_t n = static_cast<int64_t>(s.tokens.size());
  {
    const std::vector<int64_t> kv = KvLayers(restorer_.Schedule(n), mc_.num_layers);
    if (!kv.empty()) {
      ScopedSpan span(rec, "save_kv");
      Stopwatch sw;
      engine_->SaveKvLayers(s.ctx, *s.seq, kv);
      r.save_kv_ms.Add(sw.ms());
    }
  }
  double verify_ms = 0;
  {
    ScopedSpan span(rec, "verify");
    Stopwatch sw;
    if (history > 0 && !VerifyKv(*s.seq, history, s.snapshot)) {
      ++r.kv_mismatches;
      ok = false;
    }
    SnapshotKv(*s.seq, n, mc_.num_layers, mc_.kv_dim(), &s.snapshot);
    verify_ms = sw.ms();
  }
  s.seq->Evict();
  ++s.next_round;
  if (!RoundFits(s.conv, s.next_round, n, sh)) {
    ScopedSpan span(rec, "delete");
    Stopwatch sw;
    engine_->DropContext(s.ctx);
    NewConversation(s);
    r.delete_ms.Add(sw.ms());
  }
  {
    Stopwatch sw;
    SampleHeld(r);
    verify_ms += sw.ms();
  }
  const double active_s = (round.ms() - verify_ms) / 1e3;
  if (rec != nullptr) {
    rec->EndRound(round_span);
  }
  r.round_s.push_back(active_s);
  r.active_s += active_s;
  ++r.attempted;
  ok ? ++r.succeeded : ++r.failed;
}

void Bench::RagRound(PhaseResult& r) {
  SpanRecorder* rec = recorder_.get();
  const Shape& sh = config_.shape;
  const size_t d = static_cast<size_t>(zipf_->Next(rng_));
  const Doc& doc = docs_[d];
  Session& s = sessions_[static_cast<size_t>(
      doc.sessions[rng_.NextBounded(static_cast<uint64_t>(doc.sessions.size()))])];
  const hcache::LongContextRequest req = rag_gen_->Next(DocTask(d));
  const std::vector<int32_t> question =
      RandomTokens(std::clamp(req.input_tokens / 4, kQuestionMin, kQuestionMax));
  const int64_t answer = std::clamp(req.output_tokens, kAnswerMin, sh.answer_max);
  const int64_t n = static_cast<int64_t>(s.tokens.size());
  // A fresh evicted sequence holding the document's history length.
  s.seq = std::make_unique<PagedKvSequence>(kv_pool_.get());
  CHECK(s.seq->EnsureCapacity(n));
  s.seq->CommitTokens(n);
  s.seq->Evict();

  const uint64_t round_span = rec != nullptr ? rec->BeginRound() : 0;
  Stopwatch round;
  bool ok = RestoreSession(s, r);
  const int32_t first = Prefill(question, s.seq.get(), nullptr, r);
  r.ttft_ms.Add(round.ms());
  std::vector<int32_t> fed;
  Decode(first, answer - 1, s.seq.get(), nullptr, &fed, r);
  double verify_ms = 0;
  {
    ScopedSpan span(rec, "verify");
    Stopwatch sw;
    if (!VerifyKv(*s.seq, n, doc.reference)) {
      ++r.kv_mismatches;
      ok = false;
    }
    SampleHeld(r);
    verify_ms = sw.ms();
  }
  s.seq.reset();  // the request's KV is discarded
  const double active_s = (round.ms() - verify_ms) / 1e3;
  if (rec != nullptr) {
    rec->EndRound(round_span);
  }
  r.round_s.push_back(active_s);
  r.active_s += active_s;
  ++r.attempted;
  ok ? ++r.succeeded : ++r.failed;
}

PhaseResult Bench::Run(double seconds) {
  start_tiered_ = tiered_->Stats();
  start_dedup_ = dedup_->Stats();
  start_file_ = file_->Stats();
  for (TimingBackend* t : {t_tiered_.get(), t_dedup_.get(), t_file_.get()}) {
    if (t != nullptr) {
      t->ResetCounters();
    }
  }
  capture_us_ = hcache::Histogram();
  PhaseResult r;
  Stopwatch wall;
  const int64_t min_rounds = config_.max_rounds > 0 ? 0 : kMinRounds;
  while (true) {
    if (config_.max_rounds > 0 && r.attempted >= config_.max_rounds) {
      break;
    }
    const double elapsed = wall.ms() / 1e3;
    if (config_.max_rounds == 0 && elapsed >= seconds &&
        (r.attempted >= min_rounds || elapsed >= 4 * seconds)) {
      break;
    }
    if (config_.workload == Workload::kRag) {
      RagRound(r);
    } else {
      ChatRound(r);
    }
  }
  r.capture_us = capture_us_;
  return r;
}

StorageReport Bench::Storage() {
  top_->Quiesce();
  StorageReport rep;
  rep.tiered.end = tiered_->Stats();
  rep.dedup.end = dedup_->Stats();
  rep.file.end = file_->Stats();
  rep.tiered.delta = Delta(rep.tiered.end, start_tiered_);
  rep.dedup.delta = Delta(rep.dedup.end, start_dedup_);
  rep.file.delta = Delta(rep.file.end, start_file_);
  if (config_.traced) {
    rep.tiered.reads = t_tiered_->reads();
    rep.tiered.writes = t_tiered_->writes();
    rep.dedup.reads = t_dedup_->reads();
    rep.dedup.writes = t_dedup_->writes();
    rep.file.reads = t_file_->reads();
    rep.file.writes = t_file_->writes();
  }
  rep.physical_bytes = HeldBytes();
  rep.history_tokens = HeldTokens();
  rep.dram_budget_bytes = dram_budget_bytes_;
  rep.tiered_shards = tiered_->num_shards();
  return rep;
}

int64_t Bench::HeldBytes() const {
  return tiered_->Stats().bytes_stored - dedup_->Stats().bytes_stored + dedup_->PhysicalBytes();
}

int64_t Bench::HeldTokens() const {
  int64_t tokens = 0;
  for (const Session& s : sessions_) {
    tokens += static_cast<int64_t>(s.tokens.size());
  }
  return tokens;
}

void Bench::SampleHeld(PhaseResult& r) const {
  r.held_bytes_sum += static_cast<double>(HeldBytes());
  r.held_tokens_sum += static_cast<double>(HeldTokens());
}

MeasuredProfile Bench::MeasureProfile(int64_t n) {
  ScopedSpan profile_span(recorder_.get(), "layer_profile");
  MeasuredProfile p;
  p.history_tokens = n;
  const int64_t ctx = next_ctx_++;
  const std::vector<int32_t> tokens = RandomTokens(n);
  std::vector<int64_t> all_layers(static_cast<size_t>(mc_.num_layers));
  std::iota(all_layers.begin(), all_layers.end(), 0);
  // IO_H and IO_KV are the paper's storage reads: the scratch context is saved straight
  // into the cold stack dedup(file), below the DRAM tier, and read back from there --
  // the tier every chat-spill and rag restore reads (their DRAM hit ratio is near 0).
  hcache::StorageBackend* cold =
      config_.traced ? static_cast<hcache::StorageBackend*>(t_dedup_.get()) : dedup_.get();
  hcache::FunctionalHCache cold_engine(&model_, cold, &flush_pool_, kChunkTokens,
                                       hcache::ChunkCodec::kFp32);
  {
    PagedKvSequence seq(kv_pool_.get());
    model_.Forward(tokens, &seq, cold_engine.BeginCapture(ctx));
    cold_engine.SealContext(ctx);
    cold_engine.SaveKvLayers(ctx, seq, all_layers);
  }
  const hcache::HiddenStateReader reader(cold, mc_, kChunkTokens);
  std::vector<int32_t> positions(static_cast<size_t>(n));
  std::iota(positions.begin(), positions.end(), 0);
  const int64_t num_chunks = (n + kChunkTokens - 1) / kChunkTokens;
  const int64_t kv_chunk_cap =
      hcache::EncodedChunkBytes(hcache::ChunkCodec::kFp32, kChunkTokens, 2 * mc_.kv_dim());
  std::vector<uint8_t> kv_buf(static_cast<size_t>(num_chunks * kv_chunk_cap));
  std::vector<double> io_h, c_h, io_kv, c_token;
  for (int64_t l = 0; l < mc_.num_layers; ++l) {
    Tensor hidden({n, mc_.hidden_dim});
    Stopwatch read;
    CHECK(reader.ReadLayerInto(ctx, l, n, hidden.data()));
    io_h.push_back(read.ms());
    Tensor k, v;
    Stopwatch project;
    model_.RestoreLayerKv(l, hidden, positions.data(), &k, &v);
    c_h.push_back(project.ms());
    std::vector<hcache::ChunkReadRequest> reqs(static_cast<size_t>(num_chunks));
    for (int64_t c = 0; c < num_chunks; ++c) {
      const ChunkKey key{ctx, kKvLayerBase + l, c};
      CHECK(cold->HasChunk(key)) << "KV chunk key namespace changed";
      reqs[static_cast<size_t>(c)] = {key, kv_buf.data() + c * kv_chunk_cap, kv_chunk_cap, -1};
    }
    Stopwatch kv_read;
    cold->ReadChunks(reqs);
    io_kv.push_back(kv_read.ms());
    for (const auto& q : reqs) {
      CHECK_GT(q.result, 0);
    }
  }
  for (int rep = 0; rep < 3; ++rep) {
    PagedKvSequence seq(kv_pool_.get());
    Stopwatch sw;
    model_.ForwardPartial(tokens, &seq, 1);
    c_token.push_back(sw.ms());
  }
  cold_engine.DropContext(ctx);
  p.io_h_ms = Median(io_h);
  p.c_h_ms = Median(c_h);
  p.io_kv_ms = Median(io_kv);
  p.c_token_ms = Median(c_token);
  // K and V projections: 2 * n * hidden * kv_dim multiply-adds each.
  const double flops = 2.0 * 2.0 * static_cast<double>(n) * static_cast<double>(mc_.hidden_dim) *
                       static_cast<double>(mc_.kv_dim());
  p.c_h_gflops = p.c_h_ms > 0 ? flops / (p.c_h_ms * 1e6) : 0;
  return p;
}

bool Bench::PerturbSnapshot(int session) {
  if (session < 0 || session >= static_cast<int>(sessions_.size())) {
    return false;
  }
  std::vector<float>& snap = config_.workload == Workload::kRag
                                 ? docs_[static_cast<size_t>(sessions_[static_cast<size_t>(
                                                                session)].doc)]
                                       .reference
                                 : sessions_[static_cast<size_t>(session)].snapshot;
  if (snap.empty()) {
    return false;
  }
  uint32_t bits = 0;
  std::memcpy(&bits, &snap[snap.size() / 2], sizeof(bits));
  bits ^= 1u;
  std::memcpy(&snap[snap.size() / 2], &bits, sizeof(bits));
  return true;
}

}  // namespace perfbench
