#include "perfbench/src/tracing.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

std::atomic<uint64_t> g_next_instance{1};

struct ThreadState {
  std::map<uint64_t, std::vector<Span>> stacks;  // recorder instance -> open spans
};
thread_local ThreadState t_state;

}  // namespace

SpanRecorder::SpanRecorder()
    : instance_(g_next_instance.fetch_add(1)), origin_ns_(NowNs()) {}

int SpanRecorder::ThreadIndex() {
  const std::thread::id self = std::this_thread::get_id();
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < thread_ids_.size(); ++i) {
    if (thread_ids_[i] == self) {
      return static_cast<int>(i);
    }
  }
  thread_ids_.push_back(self);
  return static_cast<int>(thread_ids_.size() - 1);
}

uint64_t SpanRecorder::Begin(const char* name) {
  auto& stack = t_state.stacks[instance_];
  Span s;
  s.id = next_id_.fetch_add(1);
  s.name = name;
  s.tid = ThreadIndex();
  if (!stack.empty()) {
    s.parent = stack.back().id;
    s.round = stack.back().round;
  } else {
    bool attached = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      attached = attached_.count(std::this_thread::get_id()) > 0;
    }
    if (attached) {
      s.parent = current_round_.load(std::memory_order_acquire);
      s.round = s.parent;
    }
  }
  s.start_ns = NowNs();
  stack.push_back(s);
  return s.id;
}

void SpanRecorder::End(uint64_t id) {
  auto& stack = t_state.stacks[instance_];
  if (stack.empty() || stack.back().id != id) {
    std::fprintf(stderr, "perfbench: unbalanced span end\n");
    std::abort();
  }
  Span s = stack.back();
  stack.pop_back();
  s.end_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

uint64_t SpanRecorder::BeginRound() {
  const uint64_t id = Begin("round");
  auto& stack = t_state.stacks[instance_];
  stack.back().round = id;
  current_round_.store(id, std::memory_order_release);
  return id;
}

void SpanRecorder::EndRound(uint64_t id) {
  End(id);
  current_round_.store(0, std::memory_order_release);
}

void SpanRecorder::AttachThread(std::thread::id tid) {
  std::lock_guard<std::mutex> lock(mu_);
  attached_.insert(tid);
}

std::vector<Span> SpanRecorder::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"round\":%llu}}%s\n",
                 s.name, s.tid, static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.round), i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<SpanRecorder::SelfTimeRow> SpanRecorder::SelfTimes() const {
  const std::vector<Span> spans = Spans();
  std::map<uint64_t, std::vector<std::pair<int64_t, int64_t>>> child_intervals;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      child_intervals[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::map<std::string, SelfTimeRow> rows;
  for (const Span& s : spans) {
    int64_t covered = 0;
    auto it = child_intervals.find(s.id);
    if (it != child_intervals.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) {
          continue;
        }
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) {
            covered += cur_hi - cur_lo;
          }
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) {
        covered += cur_hi - cur_lo;
      }
    }
    SelfTimeRow& row = rows[s.name];
    row.name = s.name;
    row.count += 1;
    row.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
    row.self_ms += static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
  }
  std::vector<SelfTimeRow> out;
  for (auto& [name, row] : rows) {
    out.push_back(row);
  }
  std::sort(out.begin(), out.end(),
            [](const SelfTimeRow& a, const SelfTimeRow& b) { return a.self_ms > b.self_ms; });
  return out;
}

TimingBackend::TimingBackend(hcache::StorageBackend* inner, std::string span_prefix,
                             SpanRecorder* rec)
    : hcache::StorageBackend(inner->chunk_bytes()),
      inner_(inner),
      rec_(rec),
      read_name_(span_prefix + ".read"),
      write_name_(span_prefix + ".write"),
      delete_name_(span_prefix + ".delete") {}

void TimingBackend::Record(bool is_read, int64_t chunks, int64_t bytes,
                           int64_t start_ns) const {
  const double us = static_cast<double>(NowNs() - start_ns) / 1e3;
  std::lock_guard<std::mutex> lock(mu_);
  OpStats& s = is_read ? reads_ : writes_;
  s.batches += 1;
  s.chunks += chunks;
  s.bytes += bytes;
  s.busy_ms += us / 1e3;
  s.batch_us.Add(us);
}

bool TimingBackend::WriteChunk(const hcache::ChunkKey& key, const void* data,
                               int64_t bytes) {
  ScopedSpan span(rec_, write_name_.c_str());
  const int64_t t0 = NowNs();
  const bool ok = inner_->WriteChunk(key, data, bytes);
  Record(false, 1, ok ? bytes : 0, t0);
  return ok;
}

int64_t TimingBackend::ReadChunk(const hcache::ChunkKey& key, void* buf,
                                 int64_t buf_bytes) const {
  ScopedSpan span(rec_, read_name_.c_str());
  const int64_t t0 = NowNs();
  const int64_t got = inner_->ReadChunk(key, buf, buf_bytes);
  Record(true, 1, std::max<int64_t>(got, 0), t0);
  return got;
}

void TimingBackend::ReadChunks(std::span<hcache::ChunkReadRequest> requests,
                               const hcache::BatchCompletion& done) const {
  ScopedSpan span(rec_, read_name_.c_str());
  const int64_t t0 = NowNs();
  inner_->ReadChunks(requests, done);
  int64_t bytes = 0;
  for (const auto& r : requests) {
    bytes += std::max<int64_t>(r.result, 0);
  }
  Record(true, static_cast<int64_t>(requests.size()), bytes, t0);
}

bool TimingBackend::WriteChunks(std::span<hcache::ChunkWriteRequest> requests,
                                const hcache::BatchCompletion& done) {
  ScopedSpan span(rec_, write_name_.c_str());
  const int64_t t0 = NowNs();
  const bool ok = inner_->WriteChunks(requests, done);
  int64_t bytes = 0;
  for (const auto& r : requests) {
    bytes += r.ok ? r.bytes : 0;
  }
  Record(false, static_cast<int64_t>(requests.size()), bytes, t0);
  return ok;
}

void TimingBackend::ReadChunksUnverified(std::span<hcache::ChunkReadRequest> requests,
                                         const hcache::BatchCompletion& done) const {
  ScopedSpan span(rec_, read_name_.c_str());
  const int64_t t0 = NowNs();
  inner_->ReadChunksUnverified(requests, done);
  int64_t bytes = 0;
  for (const auto& r : requests) {
    bytes += std::max<int64_t>(r.result, 0);
  }
  Record(true, static_cast<int64_t>(requests.size()), bytes, t0);
}

int64_t TimingBackend::ReadChunkUnverified(const hcache::ChunkKey& key, void* buf,
                                           int64_t buf_bytes) const {
  ScopedSpan span(rec_, read_name_.c_str());
  const int64_t t0 = NowNs();
  const int64_t got = inner_->ReadChunkUnverified(key, buf, buf_bytes);
  Record(true, 1, std::max<int64_t>(got, 0), t0);
  return got;
}

bool TimingBackend::HasChunk(const hcache::ChunkKey& key) const {
  return inner_->HasChunk(key);
}

int64_t TimingBackend::ChunkSize(const hcache::ChunkKey& key) const {
  return inner_->ChunkSize(key);
}

void TimingBackend::DeleteContext(int64_t context_id) {
  ScopedSpan span(rec_, delete_name_.c_str());
  inner_->DeleteContext(context_id);
}

std::vector<std::pair<hcache::ChunkKey, int64_t>> TimingBackend::ListChunks() const {
  return inner_->ListChunks();
}

bool TimingBackend::DeleteChunk(const hcache::ChunkKey& key) {
  ScopedSpan span(rec_, delete_name_.c_str());
  return inner_->DeleteChunk(key);
}

hcache::StorageStats TimingBackend::Stats() const { return inner_->Stats(); }

std::string TimingBackend::Name() const { return inner_->Name(); }

void TimingBackend::Quiesce() { inner_->Quiesce(); }

OpStats TimingBackend::reads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reads_;
}

OpStats TimingBackend::writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return writes_;
}

void TimingBackend::ResetCounters() {
  std::lock_guard<std::mutex> lock(mu_);
  reads_ = OpStats{};
  writes_ = OpStats{};
}

void TimingSink::OnLayerInput(int64_t layer, const hcache::Tensor& hidden,
                              const int32_t* positions, int64_t n) {
  ScopedSpan span(rec_, "saver.capture");
  const int64_t t0 = NowNs();
  inner_->OnLayerInput(layer, hidden, positions, n);
  capture_us_->Add(static_cast<double>(NowNs() - t0) / 1e3);
}

}  // namespace perfbench
