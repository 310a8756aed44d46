// Benchmark-local tracing: an in-memory span recorder plus pass-through wrappers that
// time the calls crossing each layer boundary of the hcache stack from outside.
//
//   SpanRecorder   — spans (name, start, end, parent, round id) kept in memory and
//                    written out at exit as Chrome trace-event JSON (opens in Perfetto)
//                    together with a self-time table.
//   TimingBackend  — a StorageBackend that forwards every call to an inner backend and
//                    records read/write batches, chunks, bytes, busy time and a span per
//                    batch. Stacked between the tiers: timing(tiered(timing(dedup(
//                    timing(file))))).
//   TimingSink     — a HiddenStateSink that times each OnLayerInput of the saver.
//
// Parent rule: a span opened while the same thread has an open span is that span's
// child. A thread registered with AttachThread (the flush pool that runs chunk
// flushes and restore prefetches for the client) parents its outermost spans to the
// client's current round span. Any other thread (the tier's write-back drainer) opens
// root spans with a fresh id.
#ifndef PERFBENCH_SRC_TRACING_H_
#define PERFBENCH_SRC_TRACING_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/model/transformer.h"
#include "src/storage/storage_backend.h"

namespace perfbench {

int64_t NowNs();

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t round = 0;   // id of the round span this span belongs to (0 = none)
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int tid = 0;  // small per-recorder thread index
};

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  // Opens a span on the calling thread; returns its id. `name` must be a literal.
  uint64_t Begin(const char* name);
  // Closes the innermost open span of the calling thread, which must be `id`.
  void End(uint64_t id);

  // Opens a round span on the calling (client) thread and publishes it as the parent
  // for attached threads; EndRound closes it.
  uint64_t BeginRound();
  void EndRound(uint64_t id);

  // Threads whose outermost spans belong to the client's current round.
  void AttachThread(std::thread::id tid);

  std::vector<Span> Spans() const;

  // Chrome trace-event JSON ("X" complete events, microsecond timestamps).
  bool WriteChromeTrace(const std::string& path) const;

  // Per span name: count, total ms, self ms (duration minus the part of it covered by
  // child spans), sorted by self time.
  struct SelfTimeRow {
    std::string name;
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<SelfTimeRow> SelfTimes() const;

 private:
  // Small stable index of the calling thread (the trace's tid).
  int ThreadIndex();

  const uint64_t instance_;  // distinguishes recorders in thread-local maps
  std::atomic<uint64_t> next_id_{1};
  std::atomic<uint64_t> current_round_{0};
  int64_t origin_ns_;

  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::set<std::thread::id> attached_;
  std::vector<std::thread::id> thread_ids_;
};

// RAII span; a null recorder makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name)
      : rec_(rec), id_(rec != nullptr ? rec->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) {
      rec_->End(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  uint64_t id_;
};

// Per-direction traffic counters of one TimingBackend.
struct OpStats {
  int64_t batches = 0;  // calls (a single-chunk call is a batch of one)
  int64_t chunks = 0;   // requests across those calls
  int64_t bytes = 0;    // bytes delivered (reads) or accepted (writes)
  double busy_ms = 0;   // summed wall time inside the calls, over all threads
  hcache::Histogram batch_us;
};

class TimingBackend : public hcache::StorageBackend {
 public:
  // `inner` must outlive the wrapper. `span_prefix` names this tier's spans
  // ("tiered" -> "tiered.read" / "tiered.write" / "tiered.delete"). `rec` may be null
  // (counters only).
  TimingBackend(hcache::StorageBackend* inner, std::string span_prefix, SpanRecorder* rec);

  bool WriteChunk(const hcache::ChunkKey& key, const void* data, int64_t bytes) override;
  int64_t ReadChunk(const hcache::ChunkKey& key, void* buf, int64_t buf_bytes) const override;
  void ReadChunks(std::span<hcache::ChunkReadRequest> requests,
                  const hcache::BatchCompletion& done = {}) const override;
  bool WriteChunks(std::span<hcache::ChunkWriteRequest> requests,
                   const hcache::BatchCompletion& done = {}) override;
  void ReadChunksUnverified(std::span<hcache::ChunkReadRequest> requests,
                            const hcache::BatchCompletion& done = {}) const override;
  int64_t ReadChunkUnverified(const hcache::ChunkKey& key, void* buf,
                              int64_t buf_bytes) const override;
  bool HasChunk(const hcache::ChunkKey& key) const override;
  int64_t ChunkSize(const hcache::ChunkKey& key) const override;
  void DeleteContext(int64_t context_id) override;
  std::vector<std::pair<hcache::ChunkKey, int64_t>> ListChunks() const override;
  bool DeleteChunk(const hcache::ChunkKey& key) override;
  hcache::StorageStats Stats() const override;
  std::string Name() const override;
  void Quiesce() override;

  OpStats reads() const;
  OpStats writes() const;
  // Zeroes the traffic counters (the timed phase starts from a clean slate).
  void ResetCounters();

 private:
  void Record(bool is_read, int64_t chunks, int64_t bytes, int64_t start_ns) const;

  hcache::StorageBackend* inner_;
  SpanRecorder* rec_;
  std::string read_name_, write_name_, delete_name_;
  mutable std::mutex mu_;
  mutable OpStats reads_;
  mutable OpStats writes_;
};

class TimingSink : public hcache::HiddenStateSink {
 public:
  TimingSink(hcache::HiddenStateSink* inner, SpanRecorder* rec, hcache::Histogram* capture_us)
      : inner_(inner), rec_(rec), capture_us_(capture_us) {}

  void OnLayerInput(int64_t layer, const hcache::Tensor& hidden, const int32_t* positions,
                    int64_t n) override;

 private:
  hcache::HiddenStateSink* inner_;
  SpanRecorder* rec_;
  hcache::Histogram* capture_us_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACING_H_
