// Instrumentation wrapper for storage backends: forwards every operation to an
// inner backend while optionally injecting per-op latency (a stand-in for real
// SSD/NVMe service time in concurrency tests and the cluster bench), scheduled
// write failures (the eviction-failure-path conservation tests), and caller hooks
// that run *inside* the inner IO (the "no lock held across cold-tier IO" probe
// re-enters the tier from another thread through these).
//
// Thread-safe: counters are atomics and hooks are installed before the backend is
// shared. Latency is injected OUTSIDE the inner backend's locks (before the
// forwarded call), so the wrapper adds service time, not lock hold time.
#ifndef HCACHE_SRC_STORAGE_INSTRUMENTED_BACKEND_H_
#define HCACHE_SRC_STORAGE_INSTRUMENTED_BACKEND_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/storage/storage_backend.h"

namespace hcache {

class InstrumentedBackend : public StorageBackend {
 public:
  // `inner` must outlive the wrapper and defines chunk_bytes.
  explicit InstrumentedBackend(StorageBackend* inner);

  // Every read or write batch sleeps this long before forwarding (0 = off).
  void set_io_latency_micros(int64_t micros) { io_latency_micros_ = micros; }

  // Deterministic per-op latency *distribution*: each injected sleep becomes
  // mean ± uniform jitter in [-jitter_micros, +jitter_micros], clamped at 0. The
  // sequence of sampled latencies is a pure function of (seed, draw index) — give
  // each simulated node its own seed and a heterogeneous fleet's service times
  // replay exactly. Jitter affects only wall-clock sleep time, never stored bytes,
  // so simulated results stay byte-identical whatever the seed. 0 = no jitter.
  void set_io_latency_jitter(int64_t jitter_micros, uint64_t seed) {
    io_jitter_micros_ = jitter_micros;
    jitter_seed_ = seed;
  }

  // The pure sampler behind the jitter (exposed for tests): latency of draw `draw`
  // for a node seeded `seed`. Uniform over [mean-jitter, mean+jitter], floored at 0.
  static int64_t JitteredLatencyMicros(int64_t mean_micros, int64_t jitter_micros,
                                       uint64_t seed, uint64_t draw);

  // The next `n` write requests fail (ok = false) without touching `inner`.
  void FailNextWrites(int64_t n) { fail_writes_ = n; }

  // --- Corruption fault injection (the durability suite's chaos monkey) ---
  //
  // Both operate on the chunk *at rest* in the inner backend: read the stored
  // bytes back unverified, mutate, rewrite. They model media faults (a flipped
  // cell, a lost tail), not API misuse — the write path itself stays correct.
  // Return false if the chunk does not exist (or the mutated rewrite fails).

  // Flips one bit of the stored chunk. `bit_offset` indexes from byte 0 of the
  // stored object (header included) and is clamped into range, so e.g. 0 hits the
  // magic and `8 * stored_size - 1` hits the last payload byte.
  bool CorruptChunk(const ChunkKey& key, int64_t bit_offset);

  // Replaces the stored chunk with its first `new_bytes` bytes (a torn write /
  // lost tail). `new_bytes` must be in [1, stored_size); shrinking to 0 is a
  // delete, not a truncation — use DeleteChunk for that.
  bool TruncateChunk(const ChunkKey& key, int64_t new_bytes);

  // Hooks run while the forwarded operation is conceptually in flight (after the
  // injected latency, before the inner call). Install before sharing the backend.
  void set_write_hook(std::function<void(const ChunkKey&)> hook) {
    write_hook_ = std::move(hook);
  }
  void set_read_hook(std::function<void(const ChunkKey&)> hook) {
    read_hook_ = std::move(hook);
  }

  int64_t injected_write_failures() const { return injected_write_failures_.load(); }

  // Batch submissions observed (each ReadChunks/WriteChunks call counts once, however
  // many requests it carries) — the conformance tests assert callers actually batch.
  int64_t read_batches() const { return read_batches_.load(); }
  int64_t write_batches() const { return write_batches_.load(); }

  // Latency is injected ONCE per batch — a batched submission pays one device round
  // trip, which is exactly the effect batching exists to model — then the per-request
  // hooks run and the whole batch forwards to the inner backend's batched entry
  // point (verified and unverified reads alike). Write-failure injection stays
  // per-request (decrement-and-test), and an injected failure never reaches `inner`.
  void ReadChunks(std::span<ChunkReadRequest> requests,
                  const BatchCompletion& done = {}) const override;
  void ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                            const BatchCompletion& done = {}) const override;
  bool WriteChunks(std::span<ChunkWriteRequest> requests,
                   const BatchCompletion& done = {}) override;
  bool HasChunk(const ChunkKey& key) const override;
  int64_t ChunkSize(const ChunkKey& key) const override;
  void DeleteContext(int64_t context_id) override;
  std::vector<std::pair<ChunkKey, int64_t>> ListChunks() const override {
    return inner_->ListChunks();
  }
  bool DeleteChunk(const ChunkKey& key) override { return inner_->DeleteChunk(key); }
  StorageStats Stats() const override;
  std::string Name() const override { return "instrumented(" + inner_->Name() + ")"; }
  void Quiesce() override { inner_->Quiesce(); }

  StorageBackend* inner() const { return inner_; }

 private:
  void InjectLatency() const;
  // The one read forwarder behind ReadChunks and ReadChunksUnverified.
  void ForwardReads(std::span<ChunkReadRequest> requests, const BatchCompletion& done,
                    bool verify) const;

  StorageBackend* inner_;
  std::atomic<int64_t> io_latency_micros_{0};
  std::atomic<int64_t> io_jitter_micros_{0};
  std::atomic<uint64_t> jitter_seed_{0};
  mutable std::atomic<uint64_t> jitter_draws_{0};
  std::atomic<int64_t> fail_writes_{0};
  mutable std::atomic<int64_t> injected_write_failures_{0};
  mutable std::atomic<int64_t> read_batches_{0};
  std::atomic<int64_t> write_batches_{0};
  std::function<void(const ChunkKey&)> write_hook_;
  std::function<void(const ChunkKey&)> read_hook_;
};

}  // namespace hcache

#endif  // HCACHE_SRC_STORAGE_INSTRUMENTED_BACKEND_H_
