// Fault matrix for the distributed cold plane (ISSUE 8): placement determinism,
// R-way replication, failover reads, degraded writes + re-replication convergence,
// node kill mid-batch, drain-while-serving, kill-during-drain, double failure with
// R=2 (detected miss, never wrong bytes), the per-node capacity model, and cold
// recovery of the logical index from node stores.
#include "src/storage/distributed_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/layout.h"
#include "src/storage/placement.h"
#include "tests/storage/sealed_chunk.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kChunkBytes = 4096;

// Per-key salt: every key's sealed chunk has its own bytes.
uint32_t Salt(const ChunkKey& key) {
  return static_cast<uint32_t>(key.context_id * 193 + key.layer * 47 + key.chunk_index * 11);
}

std::vector<ChunkKey> Keys(int64_t ctx, int count) {
  std::vector<ChunkKey> keys;
  for (int c = 0; c < count; ++c) {
    keys.push_back(ChunkKey{ctx, 0, c});
  }
  return keys;
}

// --------------------------------------------------------------------------
// Placement table
// --------------------------------------------------------------------------

TEST(PlacementTableTest, WalkOrderIsDeterministicAndCoversEveryNode) {
  const PlacementTable a({0, 1, 2, 3});
  const PlacementTable b({3, 2, 1, 0});  // construction order must not matter
  for (int64_t c = 0; c < 200; ++c) {
    const ChunkKey key{7, 3, c};
    const auto wa = a.WalkOrder(key);
    ASSERT_EQ(wa.size(), 4u);
    EXPECT_EQ(wa, b.WalkOrder(key));
    std::set<int> distinct(wa.begin(), wa.end());
    EXPECT_EQ(distinct.size(), 4u);
    EXPECT_EQ(a.HashKey(key), PlacementTable::HashKey(key));
  }
}

TEST(PlacementTableTest, ReplicaSetsSpreadAcrossNodes) {
  const PlacementTable table({0, 1, 2, 3});
  std::vector<int64_t> primary_count(4, 0);
  for (int64_t c = 0; c < 400; ++c) {
    const auto replicas = table.ReplicasFor(ChunkKey{1, 0, c}, 2);
    ASSERT_EQ(replicas.size(), 2u);
    ASSERT_NE(replicas[0], replicas[1]);
    ++primary_count[static_cast<size_t>(replicas[0])];
  }
  // Consistent hashing with 64 vnodes keeps fill within a loose band of the mean.
  for (int n = 0; n < 4; ++n) {
    EXPECT_GT(primary_count[static_cast<size_t>(n)], 20) << "node " << n;
    EXPECT_LT(primary_count[static_cast<size_t>(n)], 250) << "node " << n;
  }
}

TEST(PlacementTableTest, RemovingANodeRehomesOnlyItsChunks) {
  const PlacementTable full({0, 1, 2, 3});
  const PlacementTable without = full.Without(2);
  EXPECT_FALSE(without.HasNode(2));
  for (int64_t c = 0; c < 300; ++c) {
    const ChunkKey key{5, 1, c};
    const auto before = full.ReplicasFor(key, 2);
    const auto after = without.ReplicasFor(key, 2);
    if (std::find(before.begin(), before.end(), 2) == before.end()) {
      // The consistent-hashing property Drain relies on: chunks not homed on the
      // removed node keep their exact replica set.
      EXPECT_EQ(before, after) << "chunk " << c << " re-homed needlessly";
    } else {
      EXPECT_EQ(std::find(after.begin(), after.end(), 2), after.end());
    }
  }
}

// --------------------------------------------------------------------------
// Replication and failover
// --------------------------------------------------------------------------

TEST(DistributedColdBackendTest, WritesReplicateToRNodes) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdBackend dist(3, kChunkBytes, opts);
  const auto keys = Keys(1, 16);
  for (const auto& key : keys) {
    const auto data = SealedChunkOfBytes(1024, Salt(key));
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1024));
  }
  int64_t physical = 0;
  for (int n = 0; n < 3; ++n) {
    physical += dist.node_store(n)->Stats().chunks_stored;
  }
  EXPECT_EQ(physical, 2 * static_cast<int64_t>(keys.size()));
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    ASSERT_EQ(st.home.size(), 2u);
    EXPECT_TRUE(st.FullyReplicated());
    EXPECT_EQ(st.healthy_copies, 2);
  }
  const StorageStats s = dist.Stats();
  EXPECT_EQ(s.chunks_stored, static_cast<int64_t>(keys.size()));
  EXPECT_EQ(s.under_replicated_chunks, 0);
  EXPECT_EQ(s.degraded_writes, 0);
}

TEST(DistributedColdBackendTest, ReadsFailOverFromADownPrimary) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdBackend dist(3, kChunkBytes, opts);
  const ChunkKey key{1, 0, 0};
  const auto data = SealedChunkOfBytes(2000, Salt(key));
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), 2000));
  const auto st = dist.CheckReplication(key);
  ASSERT_EQ(st.home.size(), 2u);

  ASSERT_TRUE(dist.SetNodeDown(st.home[0]));
  EXPECT_EQ(dist.Stats().nodes_down, 1);
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 2000);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 2000), 0);
  EXPECT_EQ(dist.Stats().failover_reads, 1);

  ASSERT_TRUE(dist.SetNodeUp(st.home[0]));
  EXPECT_EQ(dist.Stats().nodes_down, 0);
  // Primary serves again; no further failover.
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 2000);
  EXPECT_EQ(dist.Stats().failover_reads, 1);
}

// Damages the primary's at-rest copy of a sealed chunk at `bit_offset`: the
// verified read fails over to the clean replica with bit-identical bytes,
// CheckReplication names the damaged copy, and repair restores R=2 healthy copies.
void ExpectFailoverAndRepair(int64_t bit_offset) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdBackend dist(3, kChunkBytes, opts);
  const ChunkKey key{2, 1, 3};
  const auto data = SealedChunk(/*rows=*/16, /*cols=*/32, Salt(key));
  const int64_t bytes = static_cast<int64_t>(data.size());
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), bytes));
  const auto home = dist.CheckReplication(key).home;

  ASSERT_TRUE(dist.node_instrument(home[0])->CorruptChunk(key, bit_offset));
  const auto damaged = dist.CheckReplication(key);
  EXPECT_EQ(damaged.healthy_copies, 1);
  EXPECT_EQ(damaged.corrupt_copies, 1);
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), bytes);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), static_cast<size_t>(bytes)), 0)
      << "stale/corrupt bytes served";
  EXPECT_EQ(dist.Stats().failover_reads, 1);
  EXPECT_EQ(dist.Stats().crc_failures, 0) << "a failed-over read is not a read failure";
  EXPECT_GT(dist.Stats().under_replicated_chunks, 0) << "damage must queue a repair";

  dist.Quiesce();  // synchronous repair pass (no background worker)
  const auto st = dist.CheckReplication(key);
  EXPECT_TRUE(st.FullyReplicated());
  EXPECT_EQ(st.healthy_copies, 2);
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  EXPECT_GT(dist.Stats().re_replicated_chunks, 0);
}

TEST(DistributedColdBackendTest, ReadsFailOverFromACorruptCopyAndRepairHealsIt) {
  ExpectFailoverAndRepair(8 * (sizeof(ChunkHeader) + 900));  // a payload bit
}

TEST(DistributedColdBackendTest, ReadsFailOverFromAMagicFlippedCopyAndRepairHealsIt) {
  // Bit 0 sits in the chunk magic: a copy without it is damage like any other.
  ExpectFailoverAndRepair(0);
}

TEST(DistributedColdBackendTest, DoubleFailureIsADetectedMissNeverWrongBytes) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdBackend dist(3, kChunkBytes, opts);
  const ChunkKey key{3, 0, 1};
  const auto data = SealedChunk(/*rows=*/9, /*cols=*/32, Salt(key));
  const int64_t bytes = static_cast<int64_t>(data.size());
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), bytes));
  const auto home = dist.CheckReplication(key).home;
  ASSERT_EQ(home.size(), 2u);

  // Both replicas down: detected miss, untouched buffer, then full recovery.
  ASSERT_TRUE(dist.SetNodeDown(home[0]));
  ASSERT_TRUE(dist.SetNodeDown(home[1]));
  std::vector<char> buf(kChunkBytes, '\x5a');
  EXPECT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), -1);
  EXPECT_EQ(buf[0], '\x5a');
  ASSERT_TRUE(dist.SetNodeUp(home[0]));
  ASSERT_TRUE(dist.SetNodeUp(home[1]));
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), bytes);

  // Both copies corrupt: kChunkCorrupt (the caller's recompute fallback), counted
  // once. Per the seam contract buf is unspecified on kCorrupt — the status code,
  // not the buffer, is what keeps wrong bytes out of decoded KV.
  ASSERT_TRUE(dist.node_instrument(home[0])->CorruptChunk(
      key, 8 * (sizeof(ChunkHeader) + 100)));
  ASSERT_TRUE(dist.node_instrument(home[1])->CorruptChunk(
      key, 8 * (sizeof(ChunkHeader) + 200)));
  buf.assign(buf.size(), '\x5a');
  EXPECT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), kChunkCorrupt);
  EXPECT_EQ(dist.Stats().crc_failures, 1);
  // Unrepairable (no healthy source anywhere): the chunk stays queued.
  dist.Quiesce();
  EXPECT_GT(dist.Stats().under_replicated_chunks, 0);
}

TEST(DistributedColdBackendTest, DegradedWritesConvergeAfterNodeRecovery) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdOptions two_node_opts = opts;
  DistributedColdBackend dist(2, kChunkBytes, two_node_opts);
  ASSERT_TRUE(dist.SetNodeDown(1));

  const auto keys = Keys(4, 12);
  for (const auto& key : keys) {
    const auto data = SealedChunkOfBytes(800, Salt(key));
    // One node left: every write succeeds degraded.
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 800));
  }
  const StorageStats degraded = dist.Stats();
  EXPECT_EQ(degraded.degraded_writes, static_cast<int64_t>(keys.size()));
  EXPECT_EQ(degraded.under_replicated_chunks, static_cast<int64_t>(keys.size()));

  // Down node: repair has nowhere to copy to — Quiesce must not spin or "fix" it.
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, static_cast<int64_t>(keys.size()));

  ASSERT_TRUE(dist.SetNodeUp(1));
  dist.Quiesce();
  const StorageStats recovered = dist.Stats();
  EXPECT_EQ(recovered.under_replicated_chunks, 0);
  EXPECT_EQ(recovered.re_replicated_chunks, static_cast<int64_t>(keys.size()));
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    EXPECT_TRUE(st.FullyReplicated()) << "chunk " << key.chunk_index;
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 800);
    const auto want = SealedChunkOfBytes(800, Salt(key));
    EXPECT_EQ(std::memcmp(buf.data(), want.data(), 800), 0);
  }
}

TEST(DistributedColdBackendTest, NodeKillMidWriteBatchDegradesButLosesNothing) {
  DistributedColdBackend dist(3, kChunkBytes);  // background repair ON
  const auto keys = Keys(5, 32);
  std::vector<std::vector<uint8_t>> payloads;
  for (const auto& key : keys) {
    payloads.push_back(SealedChunkOfBytes(1024, Salt(key)));
  }

  // Fail-stop node 1 from INSIDE its own write batch: after two writes land, the
  // node goes down and every further write to it fails.
  std::atomic<int> node1_writes{0};
  dist.node_instrument(1)->set_write_hook([&](const ChunkKey&) {
    if (node1_writes.fetch_add(1) == 2) {
      dist.SetNodeDown(1);
      dist.node_instrument(1)->FailNextWrites(1 << 20);
    }
  });

  std::vector<ChunkWriteRequest> reqs;
  for (size_t i = 0; i < keys.size(); ++i) {
    reqs.push_back(ChunkWriteRequest{keys[i], payloads[i].data(), 1024, false});
  }
  dist.WriteChunks(reqs);
  for (const auto& req : reqs) {
    // R=2 over 3 nodes: the second replica always lands elsewhere.
    EXPECT_TRUE(req.ok) << req.key.chunk_index;
  }

  // Every chunk reads back correct bytes while the node is down...
  for (size_t i = 0; i < keys.size(); ++i) {
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(keys[i], buf.data(), kChunkBytes), 1024);
    ASSERT_EQ(std::memcmp(buf.data(), payloads[i].data(), 1024), 0) << i;
  }
  // ...and the repair worker restores R once it recovers.
  dist.node_instrument(1)->FailNextWrites(0);
  ASSERT_TRUE(dist.SetNodeUp(1));
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  for (const auto& key : keys) {
    EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated()) << key.chunk_index;
  }
}

// --------------------------------------------------------------------------
// Drain / Balance
// --------------------------------------------------------------------------

TEST(DistributedColdBackendTest, DrainEvacuatesWhileServing) {
  DistributedColdBackend dist(3, kChunkBytes);  // background repair ON
  const auto keys = Keys(6, 48);
  for (const auto& key : keys) {
    const auto data = SealedChunkOfBytes(1024, Salt(key));
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1024));
  }

  // Readers and a writer hammer the backend throughout the drain.
  std::atomic<bool> stop{false};
  std::atomic<int64_t> bad_reads{0};
  std::thread reader([&] {
    std::vector<char> buf(kChunkBytes);
    size_t i = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ChunkKey& key = keys[i++ % keys.size()];
      const int64_t got = dist.ReadChunk(key, buf.data(), kChunkBytes);
      if (got != 1024 ||
          std::memcmp(buf.data(), SealedChunkOfBytes(1024, Salt(key)).data(), 1024) != 0) {
        bad_reads.fetch_add(1);
      }
    }
  });
  std::thread writer([&] {
    int64_t c = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const ChunkKey key{7, 0, c++ % 8};
      const auto data = SealedChunkOfBytes(512, Salt(key));
      dist.WriteChunk(key, data.data(), 512);
    }
  });

  const bool drained = dist.Drain(1);
  stop.store(true, std::memory_order_release);
  reader.join();
  writer.join();
  ASSERT_TRUE(drained);

  EXPECT_EQ(bad_reads.load(), 0) << "a read failed or served wrong bytes mid-drain";
  const auto table = dist.NodeTable();
  EXPECT_TRUE(table[1].removed);
  EXPECT_EQ(table[1].chunks, 0) << "drained node must be empty";
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    EXPECT_TRUE(st.FullyReplicated()) << key.chunk_index;
    EXPECT_EQ(std::find(st.home.begin(), st.home.end(), 1), st.home.end());
  }
}

TEST(DistributedColdBackendTest, NodeKillDuringDrainStillConverges) {
  DistributedColdBackend dist(4, kChunkBytes);  // background repair ON
  const auto keys = Keys(8, 40);
  for (const auto& key : keys) {
    const auto data = SealedChunkOfBytes(900, Salt(key));
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 900));
  }
  // Kill node 2 from inside the drain's own repair traffic: the first repair
  // read that touches node 0 takes node 2 down.
  std::atomic<bool> tripped{false};
  dist.node_instrument(0)->set_read_hook([&](const ChunkKey&) {
    if (!tripped.exchange(true)) {
      dist.SetNodeDown(2);
    }
  });
  ASSERT_TRUE(dist.Drain(1));  // survivors 0 and 3 can still hold R=2
  EXPECT_TRUE(dist.NodeTable()[1].removed);
  for (const auto& key : keys) {
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 900) << key.chunk_index;
    const auto want = SealedChunkOfBytes(900, Salt(key));
    ASSERT_EQ(std::memcmp(buf.data(), want.data(), 900), 0) << key.chunk_index;
  }
  ASSERT_TRUE(dist.SetNodeUp(2));
  dist.Quiesce();
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
}

TEST(DistributedColdBackendTest, DrainRefusesTheLastNodeAndDownNodes) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdBackend dist(2, kChunkBytes, opts);
  const ChunkKey key{1, 0, 0};
  const auto data = SealedChunkOfBytes(700, Salt(key));
  ASSERT_TRUE(dist.WriteChunk(key, data.data(), 700));

  EXPECT_FALSE(dist.Drain(5));  // unknown node
  ASSERT_TRUE(dist.Drain(1));   // 2 -> 1 nodes: desired replication drops to 1
  EXPECT_FALSE(dist.Drain(1));  // already removed
  EXPECT_FALSE(dist.Drain(0));  // last node standing
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 700);

  DistributedColdBackend dist2(3, kChunkBytes, opts);
  ASSERT_TRUE(dist2.SetNodeDown(1));
  EXPECT_FALSE(dist2.Drain(1)) << "a down node cannot be drained (nothing to read)";
}

TEST(DistributedColdBackendTest, BalanceTrimsStraySpillCopies) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdBackend dist(3, kChunkBytes, opts);
  const auto keys = Keys(9, 24);
  // With node 0 down, chunks homed on it spill to their next walk node.
  ASSERT_TRUE(dist.SetNodeDown(0));
  for (const auto& key : keys) {
    const auto data = SealedChunkOfBytes(1024, Salt(key));
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1024));
  }
  ASSERT_TRUE(dist.SetNodeUp(0));
  dist.Quiesce();  // copies converge back onto recovered homes
  EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);

  // Some chunks now hold three copies (home pair + the spill). Balance trims the
  // strays down to exactly R per chunk.
  int64_t physical = 0;
  for (int n = 0; n < 3; ++n) {
    physical += dist.node_store(n)->Stats().chunks_stored;
  }
  ASSERT_GE(physical, 2 * static_cast<int64_t>(keys.size()));
  dist.Balance();
  physical = 0;
  for (int n = 0; n < 3; ++n) {
    physical += dist.node_store(n)->Stats().chunks_stored;
  }
  EXPECT_EQ(physical, 2 * static_cast<int64_t>(keys.size()));
  for (const auto& key : keys) {
    const auto st = dist.CheckReplication(key);
    EXPECT_TRUE(st.FullyReplicated()) << key.chunk_index;
    EXPECT_TRUE(st.stray.empty()) << key.chunk_index;
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 1024);
  }
}

TEST(DistributedColdBackendTest, CapacityModelPlacesAroundFullNodes) {
  DistributedColdOptions opts;
  opts.background_repair = false;
  DistributedColdBackend dist(3, kChunkBytes, opts);
  // Node 0 can hold only two 1 KiB copies; the walk places around it once full.
  dist.set_node_capacity(0, 2048);
  const auto keys = Keys(10, 30);
  for (const auto& key : keys) {
    const auto data = SealedChunkOfBytes(1024, Salt(key));
    ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1024));
  }
  EXPECT_LE(dist.node_store(0)->Stats().bytes_stored, 2048);
  // Every chunk still reached two nodes (1 and 2 absorb the overflow).
  for (const auto& key : keys) {
    int copies = 0;
    for (int n = 0; n < 3; ++n) {
      copies += dist.node_store(n)->HasChunk(key) ? 1 : 0;
    }
    EXPECT_EQ(copies, 2) << key.chunk_index;
  }
  EXPECT_EQ(dist.Stats().degraded_writes, 0);
}

// --------------------------------------------------------------------------
// Cold recovery from node stores
// --------------------------------------------------------------------------

TEST(DistributedColdBackendTest, RecoversLogicalIndexFromFileBackendNodes) {
  const fs::path base = fs::temp_directory_path() /
                        ("hcache_dist_recover_" + std::to_string(::getpid()));
  fs::remove_all(base);
  const auto factory = [&base](int node_id, int64_t chunk_bytes) {
    return std::make_unique<FileBackend>(
        std::vector<std::string>{(base / ("node" + std::to_string(node_id))).string()},
        chunk_bytes);
  };
  DistributedColdOptions opts;
  opts.background_repair = false;
  const auto keys = Keys(11, 10);
  {
    DistributedColdBackend dist(3, kChunkBytes, opts, factory);
    for (const auto& key : keys) {
      const auto data = SealedChunkOfBytes(1300, Salt(key));
      ASSERT_TRUE(dist.WriteChunk(key, data.data(), 1300));
    }
  }
  {
    // A fresh process over the same node directories: chunks readable again,
    // replication intact — the fsck-opens-a-store-cold path.
    DistributedColdBackend dist(3, kChunkBytes, opts, factory);
    EXPECT_EQ(dist.Stats().chunks_stored, static_cast<int64_t>(keys.size()));
    EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
    for (const auto& key : keys) {
      ASSERT_TRUE(dist.HasChunk(key));
      EXPECT_EQ(dist.ChunkSize(key), 1300);
      std::vector<char> buf(kChunkBytes);
      ASSERT_EQ(dist.ReadChunk(key, buf.data(), kChunkBytes), 1300);
      const auto want = SealedChunkOfBytes(1300, Salt(key));
      EXPECT_EQ(std::memcmp(buf.data(), want.data(), 1300), 0);
      EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated());
    }
  }
  // Lose one node's directory wholesale: the rebuilt index must flag every chunk
  // that lived there as under-replicated, and repair must restore them.
  fs::remove_all(base / "node1");
  {
    DistributedColdBackend dist(3, kChunkBytes, opts, factory);
    EXPECT_GT(dist.Stats().under_replicated_chunks, 0);
    dist.Quiesce();
    EXPECT_EQ(dist.Stats().under_replicated_chunks, 0);
    for (const auto& key : keys) {
      EXPECT_TRUE(dist.CheckReplication(key).FullyReplicated()) << key.chunk_index;
    }
  }
  fs::remove_all(base);
}

}  // namespace
}  // namespace hcache
