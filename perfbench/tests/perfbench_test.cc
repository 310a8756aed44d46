// Self-test of the serving benchmark: the correctness gate catches corruption, the
// timing wrappers change nothing the system computes, and the trace is well formed.
#include <unistd.h>

#include <cctype>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "perfbench/src/bench.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/layout.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

class PerfbenchTest : public ::testing::Test {
 protected:
  // Stores go where the benchmark puts its own: .perfbench_run/<pid> under the working
  // directory, which a later run removes if this process dies before TearDown.
  void SetUp() override {
    root_ = fs::current_path() / ".perfbench_run" / std::to_string(getpid());
    fs::remove_all(root_);
  }
  void TearDown() override { fs::remove_all(root_); }

  // A small chat-shaped configuration: a few short conversations.
  Config SmallChat(const std::string& name, double dram_factor) {
    Config c;
    c.workload = Workload::kChatSpill;
    c.seed = 7;
    c.shape = DefaultShape(Workload::kChatSpill);
    c.shape.sessions = 4;
    c.shape.history_cap = 160;
    c.shape.max_output = 4;
    c.shape.dram_factor = dram_factor;
    c.store_dir = (root_ / name).string();
    return c;
  }

  Config SmallRag(const std::string& name) {
    Config c;
    c.workload = Workload::kRag;
    c.seed = 7;
    c.shape = DefaultShape(Workload::kRag);
    c.shape.sessions = 4;
    c.shape.docs = 2;
    c.shape.doc_min = 64;
    c.shape.doc_max = 128;
    c.shape.answer_max = 4;
    c.store_dir = (root_ / name).string();
    return c;
  }

  fs::path root_;
};

TEST_F(PerfbenchTest, CleanRunsPassTheGate) {
  for (Config c : {SmallChat("chat", 0.25), SmallRag("rag")}) {
    c.max_rounds = 12;
    Bench bench(c);
    bench.Setup();
    const PhaseResult r = bench.Run(0);
    EXPECT_EQ(r.attempted, 12);
    EXPECT_EQ(r.failed, 0) << WorkloadName(c.workload);
    EXPECT_GT(r.restore_ms.count(), 0u);
  }
}

TEST_F(PerfbenchTest, GateFlagsFlippedByteOfColdChunk) {
  Config c = SmallChat("flip", /*dram_factor=*/0.0);  // write-through: every read is cold
  c.max_rounds = 1;                                    // session 0 restores first
  Bench bench(c);
  bench.Setup();
  // The first chunk session 0's restore reads: chunk 0 of its first hidden layer, or
  // of its first KV-offload layer when the scheduler restores no layer from hidden
  // states (FunctionalHCache keeps layer L's KV chunks under layer key 1'000'000 + L).
  const hcache::PartitionScheme scheme =
      bench.restorer().Schedule(bench.session_history(0));
  int64_t layer = scheme.complement == hcache::ComplementMethod::kRecompute
                      ? scheme.layers_other
                      : 0;
  if (scheme.layers_hidden == 0) {
    layer = 1'000'000;
  }
  const hcache::ChunkKey logical{bench.session_context(0), layer, 0};
  // Its physical copy is the file-tier chunk holding the same bytes.
  hcache::StorageBackend* top = bench.top_backend();
  std::vector<char> want(static_cast<size_t>(top->chunk_bytes()));
  const int64_t size = top->ReadChunkUnverified(logical, want.data(), top->chunk_bytes());
  ASSERT_GT(size, 0);
  hcache::FileBackend* file = bench.file_backend();
  std::vector<char> got(want.size());
  hcache::ChunkKey physical;
  int matches = 0;
  for (const auto& [key, bytes] : file->ListChunks()) {
    if (bytes == size && file->ReadChunkUnverified(key, got.data(), size) == size &&
        std::memcmp(got.data(), want.data(), static_cast<size_t>(size)) == 0) {
      physical = key;
      ++matches;
    }
  }
  ASSERT_EQ(matches, 1);
  // Flip one payload bit of that chunk at rest.
  hcache::InstrumentedBackend injector(file);
  const int64_t bit = 8 * static_cast<int64_t>(sizeof(hcache::ChunkHeader) + 17);
  ASSERT_TRUE(injector.CorruptChunk(physical, bit));

  const PhaseResult r = bench.Run(0);
  ASSERT_EQ(r.attempted, 1);
  EXPECT_EQ(r.failed, 1) << "a corrupt cold chunk must fail its round";
  EXPECT_EQ(r.restore_failures, 1) << "detected as a failed restore";
  EXPECT_EQ(r.kv_mismatches, 0) << "never delivered as wrong KV";
  EXPECT_GE(bench.Storage().file.end.crc_failures, 1);
}

TEST_F(PerfbenchTest, GateFlagsPerturbedSnapshotRow) {
  for (Config c : {SmallChat("perturb-chat", 2.0), SmallRag("perturb-rag")}) {
    c.max_rounds = c.shape.sessions;
    Bench bench(c);
    bench.Setup();
    ASSERT_TRUE(bench.PerturbSnapshot(0));
    const PhaseResult r = bench.Run(0);
    EXPECT_GE(r.kv_mismatches, 1) << WorkloadName(c.workload);
    EXPECT_EQ(r.failed, r.kv_mismatches);
    EXPECT_EQ(r.restore_failures, 0);
  }
}

void ExpectSameStats(const hcache::StorageStats& a, const hcache::StorageStats& b,
                     const char* tier) {
  static_assert(sizeof(hcache::StorageStats) % sizeof(int64_t) == 0);
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(a)), 0) << tier << " Stats() differ";
  EXPECT_EQ(a.dram_hit_bytes, b.dram_hit_bytes) << tier;
  EXPECT_EQ(a.cold_hit_bytes, b.cold_hit_bytes) << tier;
  EXPECT_EQ(a.total_writes, b.total_writes) << tier;
}

TEST_F(PerfbenchTest, TimingWrappersAreTransparent) {
  struct Outcome {
    std::vector<std::vector<float>> kv;
    StorageReport storage;
  };
  auto run = [&](bool traced) {
    Config c = SmallChat(traced ? "wrapped" : "plain", 0.25);
    c.traced = traced;
    c.max_rounds = 24;
    c.sync_writeback = true;  // tier stats independent of drainer timing
    Bench bench(c);
    bench.set_log_restored_kv(true);
    bench.Setup();
    const PhaseResult r = bench.Run(0);
    EXPECT_EQ(r.failed, 0);
    Outcome o;
    o.kv = bench.restored_kv_log();
    o.storage = bench.Storage();
    return o;
  };
  const Outcome plain = run(false);
  const Outcome wrapped = run(true);
  ASSERT_FALSE(plain.kv.empty());
  EXPECT_GT(plain.storage.file.end.total_writes, 0);
  EXPECT_GT(plain.storage.tiered.end.cold_hits, 0) << "the run should reach the cold tier";
  EXPECT_TRUE(plain.kv == wrapped.kv) << "restored KV differs with the wrappers in place";
  ExpectSameStats(plain.storage.tiered.end, wrapped.storage.tiered.end, "tiered");
  ExpectSameStats(plain.storage.dedup.end, wrapped.storage.dedup.end, "dedup");
  ExpectSameStats(plain.storage.file.end, wrapped.storage.file.end, "file");
  EXPECT_GT(wrapped.storage.file.reads.chunks, 0);
  EXPECT_GT(wrapped.storage.tiered.writes.chunks, 0);
}

// --- a minimal JSON reader, enough for the trace file ---
struct Json {
  enum Kind { kNull, kBool, kNum, kStr, kArr, kObj } kind = kNull;
  double num = 0;
  std::string str;
  std::vector<Json> arr;
  std::map<std::string, Json> obj;
  const Json& at(const std::string& k) const { return obj.at(k); }
};

class JsonReader {
 public:
  explicit JsonReader(std::string text) : s_(std::move(text)) {}
  bool Parse(Json* out) {
    if (!Value(out)) {
      return false;
    }
    Skip();
    return i_ == s_.size();
  }

 private:
  void Skip() {
    while (i_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[i_]))) {
      ++i_;
    }
  }
  bool Lit(const char* word) {
    const size_t n = std::strlen(word);
    if (s_.compare(i_, n, word) != 0) {
      return false;
    }
    i_ += n;
    return true;
  }
  bool String(std::string* out) {
    if (s_[i_] != '"') {
      return false;
    }
    ++i_;
    while (i_ < s_.size() && s_[i_] != '"') {
      if (s_[i_] == '\\') {
        ++i_;
      }
      out->push_back(s_[i_++]);
    }
    if (i_ >= s_.size()) {
      return false;
    }
    ++i_;
    return true;
  }
  bool Value(Json* v) {
    Skip();
    if (i_ >= s_.size()) {
      return false;
    }
    const char c = s_[i_];
    if (c == '{') {
      v->kind = Json::kObj;
      ++i_;
      Skip();
      if (s_[i_] == '}') {
        ++i_;
        return true;
      }
      while (true) {
        Skip();
        std::string key;
        if (!String(&key)) {
          return false;
        }
        Skip();
        if (s_[i_++] != ':' || !Value(&v->obj[key])) {
          return false;
        }
        Skip();
        if (s_[i_] == ',') {
          ++i_;
          continue;
        }
        return s_[i_++] == '}';
      }
    }
    if (c == '[') {
      v->kind = Json::kArr;
      ++i_;
      Skip();
      if (s_[i_] == ']') {
        ++i_;
        return true;
      }
      while (true) {
        v->arr.emplace_back();
        if (!Value(&v->arr.back())) {
          return false;
        }
        Skip();
        if (s_[i_] == ',') {
          ++i_;
          continue;
        }
        return s_[i_++] == ']';
      }
    }
    if (c == '"') {
      v->kind = Json::kStr;
      return String(&v->str);
    }
    if (Lit("true") || Lit("false")) {
      v->kind = Json::kBool;
      return true;
    }
    if (Lit("null")) {
      return true;
    }
    size_t used = 0;
    v->kind = Json::kNum;
    v->num = std::stod(s_.substr(i_, 32), &used);
    i_ += used;
    return used > 0;
  }

  std::string s_;
  size_t i_ = 0;
};

TEST_F(PerfbenchTest, ChromeTraceParsesAndChildrenNestInParents) {
  Config c = SmallChat("trace", 0.25);
  c.traced = true;
  c.max_rounds = 10;
  Bench bench(c);
  bench.Setup();
  const PhaseResult r = bench.Run(0);
  ASSERT_EQ(r.failed, 0);
  bench.Storage();
  bench.MeasureProfile(96);
  const fs::path path = root_ / "trace.json";
  fs::create_directories(root_);
  ASSERT_TRUE(bench.recorder()->WriteChromeTrace(path.string()));

  std::ifstream in(path);
  std::stringstream buf;
  buf << in.rdbuf();
  Json doc;
  ASSERT_TRUE(JsonReader(buf.str()).Parse(&doc)) << "trace is not valid JSON";
  const Json& events = doc.at("traceEvents");
  ASSERT_EQ(events.kind, Json::kArr);

  struct Ev {
    std::string name;
    double ts, end;
    uint64_t parent, round;
  };
  std::map<uint64_t, Ev> by_id;
  for (const Json& e : events.arr) {
    EXPECT_EQ(e.at("ph").str, "X");
    const Json& args = e.at("args");
    const double ts = e.at("ts").num;
    by_id[static_cast<uint64_t>(args.at("id").num)] =
        Ev{e.at("name").str, ts, ts + e.at("dur").num,
           static_cast<uint64_t>(args.at("parent").num),
           static_cast<uint64_t>(args.at("round").num)};
  }
  std::map<std::string, int> names;
  int children = 0;
  const double eps = 0.002;  // timestamps are printed with 1 ns resolution
  for (const auto& [id, ev] : by_id) {
    ++names[ev.name];
    if (ev.parent == 0) {
      continue;
    }
    ++children;
    auto it = by_id.find(ev.parent);
    ASSERT_NE(it, by_id.end()) << ev.name << " has an unknown parent";
    const Ev& p = it->second;
    EXPECT_LE(p.ts, ev.ts + eps) << ev.name << " starts before its parent " << p.name;
    EXPECT_LE(ev.end, p.end + eps) << ev.name << " ends after its parent " << p.name;
    if (ev.round != 0) {
      ASSERT_TRUE(by_id.count(ev.round));
      EXPECT_EQ(by_id.at(ev.round).name, "round") << ev.name;
    }
  }
  EXPECT_GT(children, 0);
  EXPECT_EQ(names["round"], 10);
  for (const char* want : {"schedule", "restore", "prefill", "decode", "seal", "verify",
                           "tiered.read", "tiered.write", "saver.capture", "layer_profile"}) {
    EXPECT_GT(names[want], 0) << "no " << want << " span";
  }
  // Self time never exceeds total time, and restore spans carry their reads.
  for (const auto& row : bench.recorder()->SelfTimes()) {
    EXPECT_LE(row.self_ms, row.total_ms + 1e-6) << row.name;
    EXPECT_GE(row.self_ms, -1e-6) << row.name;
  }
}

}  // namespace
}  // namespace perfbench
