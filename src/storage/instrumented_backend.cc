#include "src/storage/instrumented_backend.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

#include "src/common/logging.h"

namespace hcache {

InstrumentedBackend::InstrumentedBackend(StorageBackend* inner)
    : StorageBackend(inner->chunk_bytes()), inner_(inner) {
  CHECK(inner != nullptr);
}

int64_t InstrumentedBackend::JitteredLatencyMicros(int64_t mean_micros,
                                                   int64_t jitter_micros,
                                                   uint64_t seed, uint64_t draw) {
  if (jitter_micros <= 0) {
    return std::max<int64_t>(0, mean_micros);
  }
  // splitmix64 over (seed, draw): stateless, so any thread interleaving samples the
  // same multiset of latencies — the draw *counter* orders draws, not the clock.
  uint64_t x = seed + 0x9e3779b97f4a7c15ULL * (draw + 1);
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  x ^= x >> 31;
  const int64_t span = 2 * jitter_micros + 1;  // uniform over [-jitter, +jitter]
  const int64_t offset = static_cast<int64_t>(x % static_cast<uint64_t>(span)) - jitter_micros;
  return std::max<int64_t>(0, mean_micros + offset);
}

void InstrumentedBackend::InjectLatency() const {
  const int64_t mean = io_latency_micros_.load(std::memory_order_relaxed);
  const int64_t jitter = io_jitter_micros_.load(std::memory_order_relaxed);
  if (mean <= 0 && jitter <= 0) {
    return;
  }
  const int64_t micros =
      JitteredLatencyMicros(mean, jitter, jitter_seed_.load(std::memory_order_relaxed),
                            jitter_draws_.fetch_add(1, std::memory_order_relaxed));
  if (micros > 0) {
    std::this_thread::sleep_for(std::chrono::microseconds(micros));
  }
}

void InstrumentedBackend::ForwardReads(std::span<ChunkReadRequest> requests,
                                       const BatchCompletion& done, bool verify) const {
  read_batches_.fetch_add(1, std::memory_order_relaxed);
  InjectLatency();  // once per batch: a batched submission is one device round trip
  if (read_hook_) {
    for (const ChunkReadRequest& req : requests) {
      read_hook_(req.key);
    }
  }
  if (verify) {
    inner_->ReadChunks(requests, done);
  } else {
    inner_->ReadChunksUnverified(requests, done);
  }
}

void InstrumentedBackend::ReadChunks(std::span<ChunkReadRequest> requests,
                                     const BatchCompletion& done) const {
  ForwardReads(requests, done, /*verify=*/true);
}

void InstrumentedBackend::ReadChunksUnverified(std::span<ChunkReadRequest> requests,
                                               const BatchCompletion& done) const {
  ForwardReads(requests, done, /*verify=*/false);
}

bool InstrumentedBackend::WriteChunks(std::span<ChunkWriteRequest> requests,
                                      const BatchCompletion& done) {
  write_batches_.fetch_add(1, std::memory_order_relaxed);
  InjectLatency();
  bool all_ok = true;
  std::vector<ChunkWriteRequest> forwarded;
  std::vector<size_t> forwarded_index;
  forwarded.reserve(requests.size());
  forwarded_index.reserve(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ChunkWriteRequest& req = requests[i];
    if (write_hook_) {
      write_hook_(req.key);
    }
    // Decrement-and-test so concurrent writers consume exactly `n` failures: each
    // injected failure is consumed by exactly one request, which fails without ever
    // reaching `inner`.
    if (fail_writes_.load(std::memory_order_relaxed) > 0 &&
        fail_writes_.fetch_sub(1, std::memory_order_relaxed) > 0) {
      ++injected_write_failures_;
      req.ok = false;
      all_ok = false;
      continue;
    }
    forwarded.push_back(req);
    forwarded_index.push_back(i);
  }
  if (!forwarded.empty()) {
    all_ok &= inner_->WriteChunks(forwarded);
    for (size_t j = 0; j < forwarded.size(); ++j) {
      requests[forwarded_index[j]].ok = forwarded[j].ok;
    }
  }
  if (done) {
    done();
  }
  return all_ok;
}

bool InstrumentedBackend::CorruptChunk(const ChunkKey& key, int64_t bit_offset) {
  const int64_t size = inner_->ChunkSize(key);
  if (size <= 0) {
    return false;
  }
  std::vector<char> bytes(static_cast<size_t>(size));
  // Unverified readback: the chunk may already be corrupt from a previous
  // injection, and the point is to mutate whatever is at rest.
  if (inner_->ReadChunkUnverified(key, bytes.data(), size) != size) {
    return false;
  }
  if (bit_offset < 0) {
    bit_offset = 0;
  }
  if (bit_offset >= 8 * size) {
    bit_offset = 8 * size - 1;
  }
  bytes[static_cast<size_t>(bit_offset / 8)] ^=
      static_cast<char>(1u << (bit_offset % 8));
  return inner_->WriteChunk(key, bytes.data(), size);
}

bool InstrumentedBackend::TruncateChunk(const ChunkKey& key, int64_t new_bytes) {
  const int64_t size = inner_->ChunkSize(key);
  if (size <= 0 || new_bytes <= 0 || new_bytes >= size) {
    return false;
  }
  std::vector<char> full(static_cast<size_t>(size));
  if (inner_->ReadChunkUnverified(key, full.data(), size) != size) {
    return false;
  }
  return inner_->WriteChunk(key, full.data(), new_bytes);
}

bool InstrumentedBackend::HasChunk(const ChunkKey& key) const {
  return inner_->HasChunk(key);
}

int64_t InstrumentedBackend::ChunkSize(const ChunkKey& key) const {
  return inner_->ChunkSize(key);
}

void InstrumentedBackend::DeleteContext(int64_t context_id) {
  inner_->DeleteContext(context_id);
}

StorageStats InstrumentedBackend::Stats() const { return inner_->Stats(); }

}  // namespace hcache
