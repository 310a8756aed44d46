// The serving benchmark's engine room: one `Bench` is one set-up of the functional
// plane (TinyLlama-shaped Transformer + FunctionalHCache) over the production store
// stack tiered(dedup(file)), driven by one closed-loop client through a workload.
//
// Workloads:
//   chat-spill — ShareGPT-shaped conversations, round-robin over the sessions; each
//                session is evicted after every round and restored at its next one.
//                The DRAM budget is ~1/4 of the working set, so write-back to fsync'd
//                files runs beside cold reads; ended conversations are deleted.
//   rag        — Zipf(1.0) popularity over L-Eval-shaped documents; every session's
//                copy of its document is saved in set-up; a request restores a
//                session, prefills a question, decodes an answer and discards its KV.
//
// Every restore is checked bit for bit against a snapshot of the KV taken before the
// eviction (rag: the document's reference KV), outside the timed segments. A restore
// that fails (and falls back to recompute) or a mismatch counts as a failed round.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/src/tracing.h"
#include "src/common/histogram.h"
#include "src/common/rng.h"
#include "src/common/thread_pool.h"
#include "src/core/functional_engine.h"
#include "src/core/restorer.h"
#include "src/model/kv_cache.h"
#include "src/model/transformer.h"
#include "src/model/weights.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/tiered_backend.h"
#include "src/workload/leval.h"
#include "src/workload/sharegpt.h"

namespace perfbench {

enum class Workload { kChatSpill, kRag };

bool ParseWorkload(const std::string& name, Workload* out);
const char* WorkloadName(Workload w);

// Traffic shape of one workload: what the workloads and the self-test set. The
// generators' token counts are scaled down by fixed factors (bench.cc) and clamped.
struct Shape {
  int sessions = 8;            // chat-spill: live conversations; rag: sessions in total
  int64_t history_cap = 384;   // chat-spill: a conversation ends before exceeding this
  int64_t max_output = 12;     // decode steps per round are clamped to [2, max_output]
  double dram_factor = 0.25;   // DRAM budget = dram_factor * working-set bytes
  // rag only
  int docs = 8;
  int64_t doc_min = 128, doc_max = 640;  // scaled document lengths are clamped to these
  int64_t answer_max = 10;               // answer tokens are clamped to [4, answer_max]
};

Shape DefaultShape(Workload w);

struct Config {
  Workload workload = Workload::kChatSpill;
  uint64_t seed = 1;
  Shape shape;
  std::string store_dir;  // this set-up's device directories live below it
  bool traced = false;    // timing wrappers + spans
  // Self-test knobs: stop after this many rounds (0 = time only), and write evicted
  // chunks back on the evicting thread (TieredOptions::Writeback::kSync) so the tier's
  // stats do not depend on when the background drainer runs.
  int64_t max_rounds = 0;
  bool sync_writeback = false;
};

// The model every workload serves: TinyLlama-shaped, 8 layers, hidden 256, 4 heads,
// max_position raised to fit the longest history.
hcache::ModelConfig BenchModelConfig();

// Threads of the saver's flush pool, which also runs the restore pipeline's reads.
inline constexpr size_t kFlushThreads = 1;

// Results of one timed phase.
struct PhaseResult {
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  int64_t restore_failures = 0;  // RestoreContext returned false (fell back)
  int64_t kv_mismatches = 0;
  double active_s = 0;  // summed round time, verification excluded
  std::vector<double> round_s;  // per-round active time, in issue order
  hcache::Histogram ttft_ms, tbt_ms;
  hcache::Histogram restore_ms, schedule_us, prefill_ms, decode_ms, seal_ms, save_kv_ms,
      delete_ms, capture_us;
  hcache::RunningStat layers_hidden, layers_recompute, layers_kv;
  std::vector<int64_t> restored_history;  // history tokens of every restore
  // Bytes held and history tokens held, summed over every round end: their ratio is
  // the run's stored bytes per token.
  double held_bytes_sum = 0;
  double held_tokens_sum = 0;
};

// One tier's numbers over the timed phase.
struct TierReport {
  OpStats reads, writes;        // from its TimingBackend (traced set-ups only)
  hcache::StorageStats delta;   // Stats() at the end minus Stats() at the start
  hcache::StorageStats end;     // Stats() at the end
};

struct StorageReport {
  TierReport tiered, dedup, file;
  int64_t physical_bytes = 0;   // bytes held after Quiesce (see Bench::HeldBytes)
  int64_t history_tokens = 0;   // history tokens held by live sessions
  int64_t dram_budget_bytes = 0;
  int tiered_shards = 0;
};

// The paper's §4.1.2 per-layer profile, measured on this host through the public
// calls (medians over layers / repetitions). The reads go to the cold stack
// dedup(file), where the workloads' restores read.
struct MeasuredProfile {
  int64_t history_tokens = 0;
  double io_h_ms = 0;     // HiddenStateReader::ReadLayerInto on dedup(file), one layer
  double c_h_ms = 0;      // Transformer::RestoreLayerKv, one layer
  double io_kv_ms = 0;    // dedup(file) ReadChunks of one layer's KV chunks
  double c_token_ms = 0;  // Transformer::ForwardPartial, one layer
  double c_h_gflops = 0;  // projection FLOPs (from the shapes) / c_h time
};

class Bench {
 public:
  explicit Bench(const Config& config);
  ~Bench();
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

  // Generates the workload and brings the sessions to their starting state.
  void Setup();

  // Runs the closed loop for `seconds` (or until config.max_rounds rounds).
  PhaseResult Run(double seconds);

  // Quiesces the tier and reports every tier's stats over the last Run.
  StorageReport Storage();

  // Measures the per-layer profile at `history_tokens` on a scratch context saved to
  // the cold stack.
  MeasuredProfile MeasureProfile(int64_t history_tokens);

  const hcache::Restorer& restorer() const { return restorer_; }
  SpanRecorder* recorder() { return recorder_.get(); }
  const hcache::ModelConfig& model_config() const { return mc_; }

  // --- self-test hooks ---
  hcache::FileBackend* file_backend() { return file_.get(); }
  hcache::StorageBackend* top_backend() { return top_; }
  int64_t session_context(int session) const {
    return sessions_[static_cast<size_t>(session)].ctx;
  }
  int64_t session_history(int session) const {
    return static_cast<int64_t>(sessions_[static_cast<size_t>(session)].tokens.size());
  }
  // Flips one bit of one float in a session's KV snapshot.
  bool PerturbSnapshot(int session);
  // The restored KV rows the gate compared, in round order (when logging is on).
  const std::vector<std::vector<float>>& restored_kv_log() const { return restored_log_; }
  void set_log_restored_kv(bool on) { log_restored_ = on; }

 private:
  struct Session {
    int64_t ctx = 0;
    hcache::Conversation conv;
    size_t next_round = 0;
    std::vector<int32_t> tokens;  // every token whose KV the session holds
    std::unique_ptr<hcache::PagedKvSequence> seq;
    std::vector<float> snapshot;  // KV of `tokens` at the last eviction
    int doc = -1;                 // rag: the document this session holds
  };
  struct Doc {
    std::vector<int32_t> tokens;
    std::vector<float> reference;  // KV of the document after one prefill
    std::vector<int> sessions;     // indices into sessions_
  };

  void BuildStack(int64_t dram_budget_bytes);
  int64_t PlanChatWorkingSetBytes();
  void SetupChat();
  void SetupRag();
  void NewConversation(Session& s);
  std::vector<int32_t> RandomTokens(int64_t n);

  // One closed-loop round; appends to `r`.
  void ChatRound(PhaseResult& r);
  void RagRound(PhaseResult& r);

  // Restores `s` per the scheduler (timed pieces recorded in `r`); false on fallback.
  bool RestoreSession(Session& s, PhaseResult& r);
  // Prefills `prompt` and returns the first output token; then decodes `steps` more.
  int32_t Prefill(const std::vector<int32_t>& prompt, hcache::PagedKvSequence* seq,
                  hcache::HiddenStateSink* sink, PhaseResult& r);
  void Decode(int32_t first, int64_t steps, hcache::PagedKvSequence* seq,
              hcache::HiddenStateSink* sink, std::vector<int32_t>* fed, PhaseResult& r);
  // Bit-for-bit gate: true when the first `n` KV rows of `seq` equal `snapshot`.
  bool VerifyKv(const hcache::PagedKvSequence& seq, int64_t n,
                const std::vector<float>& snapshot);
  // Bytes the store holds for the live sessions: logical bytes only the DRAM tier
  // holds (not yet written back) plus the cold tier's physical, deduplicated bytes.
  int64_t HeldBytes() const;
  int64_t HeldTokens() const;
  // Adds the current held bytes and tokens to `r` (called outside the timed segments).
  void SampleHeld(PhaseResult& r) const;
  hcache::HiddenStateSink* CaptureSink(int64_t ctx);

  Config config_;
  hcache::ModelConfig mc_;
  hcache::Rng rng_;
  std::unique_ptr<SpanRecorder> recorder_;

  // Store stack (declared bottom-up so destruction runs top-down).
  std::unique_ptr<hcache::FileBackend> file_;
  std::unique_ptr<TimingBackend> t_file_;
  std::unique_ptr<hcache::DedupBackend> dedup_;
  std::unique_ptr<TimingBackend> t_dedup_;
  std::unique_ptr<hcache::TieredBackend> tiered_;
  std::unique_ptr<TimingBackend> t_tiered_;
  hcache::StorageBackend* top_ = nullptr;
  int64_t dram_budget_bytes_ = 0;

  hcache::ThreadPool flush_pool_;
  hcache::ModelWeights weights_;
  hcache::Transformer model_;
  hcache::Restorer restorer_;
  std::unique_ptr<hcache::KvBlockPool> kv_pool_;
  std::unique_ptr<hcache::FunctionalHCache> engine_;

  std::unique_ptr<hcache::ShareGptGenerator> conv_gen_;
  std::vector<Session> sessions_;
  std::vector<Doc> docs_;
  std::unique_ptr<hcache::ZipfianGenerator> zipf_;
  std::unique_ptr<hcache::LEvalGenerator> rag_gen_;
  size_t next_session_ = 0;
  int64_t next_ctx_ = 1;

  hcache::Histogram capture_us_;  // traced capture sink samples
  std::unique_ptr<TimingSink> timing_sink_;  // wraps the current round's capture sink
  hcache::StorageStats start_tiered_, start_dedup_, start_file_;

  bool log_restored_ = false;
  std::vector<std::vector<float>> restored_log_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
