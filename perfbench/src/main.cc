// hcache_perfbench — the measured serving benchmark (one workload per invocation).
//
//   hcache_perfbench --workload {chat-spill,rag} --seed N --seconds S --trace {0,1}
//                    [--commit SHA] [--source-digest D] [--out-dir DIR] [--run-dir DIR]
//
// --trace 0: sets the workload up five times (setup_s is the median), runs the timed
//            closed loop for S seconds (at least 100 rounds) and prints the
//            end-to-end metrics.
// --trace 1: runs the workload twice from the same seed for S/2 seconds each, first
//            plain, then with timing wrappers between the tiers and around the capture
//            sink; prints the per-layer metrics, the measured vs modeled §4.1.2 profile
//            and the tracing overhead, and writes the spans as Chrome trace-event JSON
//            plus a self-time table under --out-dir.
//
// Every store lives under one per-process directory below --run-dir; directories of
// dead processes are removed at start and this process's directory at exit. The last
// line of stdout is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// The exit code is 0 only when every round restored bit-identical KV.
#include <signal.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/thread_pool.h"
#include "src/storage/codec_simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace fs = std::filesystem;
using namespace perfbench;

namespace {

constexpr int kSetupRepeats = 5;
// One compute thread: ThreadPool runs a 1-thread pool's ParallelFor inline on the
// caller, so kernels never hand work across threads, which on a shared host made the
// decode step's time swing with other tenants' load. With the flush pool's thread and
// the tier's drainer that is three busy threads at most.
constexpr size_t kComputeThreads = 1;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int trace = 0;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
  std::string out_dir = "perfbench_out";
  std::string run_dir = ".perfbench_run";
};

[[noreturn]] void Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: hcache_perfbench --workload {chat-spill,rag} --seed N "
               "--seconds S --trace {0,1} [--commit SHA] [--source-digest D] "
               "[--out-dir DIR] [--run-dir DIR]\n",
               msg);
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) {
      Usage(("missing value for " + key).c_str());
    }
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = val;
      } else if (key == "--seed") {
        a.seed = std::stoull(val);
      } else if (key == "--seconds") {
        a.seconds = std::stod(val);
      } else if (key == "--trace") {
        a.trace = std::stoi(val);
      } else if (key == "--commit") {
        a.commit = val;
      } else if (key == "--source-digest") {
        a.source_digest = val;
      } else if (key == "--out-dir") {
        a.out_dir = val;
      } else if (key == "--run-dir") {
        a.run_dir = val;
      } else {
        Usage(("unknown flag " + key).c_str());
      }
    } catch (const std::exception&) {
      Usage(("bad value for " + key).c_str());
    }
  }
  if (a.workload.empty()) {
    Usage("--workload is required");
  }
  if (a.seconds <= 0 || (a.trace != 0 && a.trace != 1)) {
    Usage("--seconds must be > 0 and --trace 0 or 1");
  }
  return a;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string FsType(const std::string& path) {
  struct statfs st {};
  if (statfs(path.c_str(), &st) != 0) {
    return "unknown";
  }
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0x01021994UL:
      return "tmpfs";
    case 0xEF53UL:
      return "ext2/3/4";
    case 0x58465342UL:
      return "xfs";
    case 0x794C7630UL:
      return "overlayfs";
    case 0x9123683EUL:
      return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx", static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Summed busy and steal jiffies of all CPUs (/proc/stat): the share of CPU time the
// hypervisor gave to other guests while this run measured.
struct CpuTimes {
  long long busy = 0;
  long long steal = 0;
};

CpuTimes ReadCpuTimes() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long user = 0, nice = 0, system = 0, idle = 0, iowait = 0, irq = 0, softirq = 0;
  if (in >> cpu >> user >> nice >> system >> idle >> iowait >> irq >> softirq >> t.steal) {
    t.busy = user + nice + system + idle + iowait + irq + softirq + t.steal;
  }
  return t;
}

double StealFrac(const CpuTimes& a, const CpuTimes& b) {
  const long long total = b.busy - a.busy;
  return total > 0 ? static_cast<double>(b.steal - a.steal) / static_cast<double>(total) : 0.0;
}

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// Run directories are named by the owning process id. Removes those whose process is
// gone (a run that was killed); creates and owns ours.
class RunDir {
 public:
  explicit RunDir(const std::string& root) {
    fs::create_directories(root);
    for (const auto& entry : fs::directory_iterator(root)) {
      const std::string name = entry.path().filename().string();
      char* end = nullptr;
      const long pid = std::strtol(name.c_str(), &end, 10);
      if (end != name.c_str() && *end == '\0' && pid > 0 &&
          kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH) {
        std::error_code ec;
        fs::remove_all(entry.path(), ec);
      }
    }
    path_ = fs::absolute(fs::path(root) / std::to_string(getpid())).string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~RunDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  RunDir(const RunDir&) = delete;
  RunDir& operator=(const RunDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintMetric(const Metric& m) {
  std::printf("metric %-40s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
}

void PrintJson(bool correct, int64_t attempted, int64_t failed,
               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void PrintPhase(const char* label, const PhaseResult& r) {
  std::printf("%s rounds: sent %lld, succeeded %lld, failed %lld (restore fallbacks %lld, "
              "KV mismatches %lld), fail_frac %.6f\n",
              label, static_cast<long long>(r.attempted), static_cast<long long>(r.succeeded),
              static_cast<long long>(r.failed), static_cast<long long>(r.restore_failures),
              static_cast<long long>(r.kv_mismatches),
              r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                              : 0.0);
  std::printf("%s samples: ttft %zu, tbt %zu, restores %zu\n", label, r.ttft_ms.count(),
              r.tbt_ms.count(), r.restore_ms.count());
}

double P(const hcache::Histogram& h, double p) { return h.empty() ? 0.0 : h.Percentile(p); }

int64_t MedianHistory(std::vector<int64_t> v) {
  if (v.empty()) {
    return 64;
  }
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

Config MakeConfig(const Args& a, Workload w, const std::string& dir, bool traced) {
  Config c;
  c.workload = w;
  c.seed = a.seed;
  c.shape = DefaultShape(w);
  c.store_dir = dir;
  c.traced = traced;
  return c;
}

// One tier's traffic. Read times go to the JSON (both workloads read every tier); write
// times to the text, since rag's timed phase writes nothing.
void PrintTier(const char* name, const TierReport& t, std::vector<Metric>* json,
               std::vector<Metric>* text) {
  const std::string p = std::string("storage.") + name + ".";
  json->push_back({p + "read_batches", static_cast<double>(t.reads.batches), "count"});
  json->push_back({p + "read_chunks", static_cast<double>(t.reads.chunks), "count"});
  json->push_back({p + "read_bytes", static_cast<double>(t.reads.bytes), "bytes"});
  json->push_back({p + "write_batches", static_cast<double>(t.writes.batches), "count"});
  json->push_back({p + "write_chunks", static_cast<double>(t.writes.chunks), "count"});
  json->push_back({p + "write_bytes", static_cast<double>(t.writes.bytes), "bytes"});
  json->push_back({p + "read_busy_ms", t.reads.busy_ms, "ms"});
  json->push_back({p + "read_batch_us_p50", P(t.reads.batch_us, 50), "us"});
  json->push_back({p + "read_batch_us_p99", P(t.reads.batch_us, 99), "us"});
  text->push_back({p + "write_busy_ms", t.writes.busy_ms, "ms"});
  text->push_back({p + "write_batch_us_p50", P(t.writes.batch_us, 50), "us"});
  text->push_back({p + "write_batch_us_p99", P(t.writes.batch_us, 99), "us"});
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  Workload workload;
  if (!ParseWorkload(args.workload, &workload)) {
    Usage(("unknown workload " + args.workload).c_str());
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  hcache::ThreadPool::ResizeShared(kComputeThreads);
  RunDir run_dir(args.run_dir);
#ifdef __OPTIMIZE__
  const bool optimized = true;
#else
  const bool optimized = false;
#endif

  std::printf("== hcache perfbench: workload %s, seed %llu, %.1f s, trace %d\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace);
  std::printf("fingerprint nproc=%ld cpu=\"%s\" simd=%s compute_pool=%zu flush_pool=%zu "
              "build=%s flags=\"%s\" optimized=%s seed=%llu store=%s store_fs=%s commit=%s "
              "source_digest=%s\n",
              nproc, CpuModel().c_str(), hcache::SimdTierName(hcache::ActiveSimdTier()),
              hcache::ThreadPool::Shared().num_threads(), kFlushThreads,
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS, optimized ? "yes" : "no",
              static_cast<unsigned long long>(args.seed), run_dir.path().c_str(),
              FsType(run_dir.path()).c_str(), args.commit.c_str(), args.source_digest.c_str());
  if (!optimized) {
    std::printf("WARNING: non-optimized build -- these numbers are NOT a measurement\n");
  }
  if (static_cast<long>(kComputeThreads + kFlushThreads) > nproc) {
    std::printf("WARNING: compute + flush pools (%zu) exceed nproc (%ld)\n",
                kComputeThreads + kFlushThreads, nproc);
  }

  if (args.trace == 0) {
    // Set up kSetupRepeats times from scratch; keep the last set-up for the run.
    std::vector<double> setup_s;
    std::unique_ptr<Bench> bench;
    for (int i = 0; i < kSetupRepeats; ++i) {
      const std::string dir = run_dir.path() + "/setup" + std::to_string(i);
      if (bench != nullptr) {
        bench.reset();
        fs::remove_all(run_dir.path() + "/setup" + std::to_string(i - 1));
      }
      const int64_t t0 = NowNs();
      bench = std::make_unique<Bench>(MakeConfig(args, workload, dir, /*traced=*/false));
      bench->Setup();
      setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
    std::sort(setup_s.begin(), setup_s.end());
    const CpuTimes cpu0 = ReadCpuTimes();
    const PhaseResult r = bench->Run(args.seconds);
    std::printf("host steal during the timed run: %.4f of CPU time\n",
                StealFrac(cpu0, ReadCpuTimes()));
    const StorageReport st = bench->Storage();
    PrintPhase("timed", r);
    std::printf("storage: dram budget %.1f MB over %d shards, dram_hit_byte_ratio %.4f, "
                "after Quiesce %.1f MB held for %lld history tokens\n",
                static_cast<double>(st.dram_budget_bytes) / 1e6, st.tiered_shards,
                st.tiered.delta.DramHitByteRatio(), static_cast<double>(st.physical_bytes) / 1e6,
                static_cast<long long>(st.history_tokens));
    std::printf("setup_s samples:");
    for (double s : setup_s) {
      std::printf(" %.4f", s);
    }
    std::printf("\n");
    const std::vector<Metric> metrics = {
        {"ttft_p50_ms", P(r.ttft_ms, 50), "ms"},
        {"ttft_p90_ms", P(r.ttft_ms, 90), "ms"},
        {"tbt_p50_ms", P(r.tbt_ms, 50), "ms"},
        {"tbt_p90_ms", P(r.tbt_ms, 90), "ms"},
        {"rounds_per_s", r.active_s > 0 ? static_cast<double>(r.attempted) / r.active_s : 0,
         "1/s"},
        {"stored_bytes_per_token",
         r.held_tokens_sum > 0 ? r.held_bytes_sum / r.held_tokens_sum : 0, "bytes"},
        {"setup_s", setup_s[setup_s.size() / 2], "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
    };
    // Printed beside the JSON metrics: fail_frac is 0 on a correct tree (the JSON carries
    // it as attempted/failed), and the TBT p99 swung with host steal across runs by more
    // than any bound the benchmark may set (the JSON carries p90).
    PrintMetric({"fail_frac",
                 r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                                 : 0.0,
                 "ratio"});
    PrintMetric({"tbt_p99_ms", P(r.tbt_ms, 99), "ms"});
    for (const Metric& m : metrics) {
      PrintMetric(m);
    }
    bench.reset();
    const bool correct = r.failed == 0;
    PrintJson(correct, r.attempted, r.failed, metrics);
    return correct ? 0 : 1;
  }

  // --trace 1: the plain run, then the traced run, from the same seed.
  PhaseResult plain;
  {
    Bench bench(MakeConfig(args, workload, run_dir.path() + "/plain", /*traced=*/false));
    bench.Setup();
    plain = bench.Run(args.seconds / 2);
  }
  fs::remove_all(run_dir.path() + "/plain");
  Bench bench(MakeConfig(args, workload, run_dir.path() + "/traced", /*traced=*/true));
  bench.Setup();
  const CpuTimes cpu0 = ReadCpuTimes();
  const PhaseResult r = bench.Run(args.seconds / 2);
  std::printf("host steal during the traced run: %.4f of CPU time\n",
              StealFrac(cpu0, ReadCpuTimes()));
  const StorageReport st = bench.Storage();
  const int64_t median_history = MedianHistory(r.restored_history);
  const MeasuredProfile prof = bench.MeasureProfile(median_history);
  PrintPhase("plain", plain);
  PrintPhase("traced", r);

  // Tracing overhead over the rounds both runs completed (same seed, same rounds).
  const size_t common = std::min(plain.round_s.size(), r.round_s.size());
  double t_plain = 0, t_traced = 0;
  for (size_t i = 0; i < common; ++i) {
    t_plain += plain.round_s[i];
    t_traced += r.round_s[i];
  }
  const double overhead = t_plain > 0 ? t_traced / t_plain - 1.0 : 0.0;
  std::printf("trace overhead over %zu common rounds: plain %.3f s, traced %.3f s\n", common,
              t_plain, t_traced);

  const hcache::LayerProfile modeled = bench.restorer().Profile(median_history);
  const hcache::PartitionScheme chosen = bench.restorer().Schedule(median_history);
  hcache::LayerProfile measured;
  measured.history_tokens = median_history;
  measured.io_hidden = prof.io_h_ms / 1e3;
  measured.c_hidden = prof.c_h_ms / 1e3;
  measured.io_kv = prof.io_kv_ms / 1e3;
  measured.c_token = prof.c_token_ms / 1e3;
  const hcache::PartitionScheme from_measured =
      hcache::SolveLayerWise(measured, bench.model_config().num_layers);
  std::printf("profile at n=%lld (median restored history)\n",
              static_cast<long long>(median_history));
  std::printf("  modeled  (Restorer::Profile, A100 + 4 SSD): %s\n", modeled.ToString().c_str());
  std::printf("  measured (this host, through the public calls): %s\n",
              measured.ToString().c_str());
  std::printf("  scheme chosen by Restorer::Schedule: %s\n", chosen.ToString().c_str());
  std::printf("  scheme the measured profile would give: %s\n",
              from_measured.ToString().c_str());

  std::vector<Metric> json = {
      {"core.restore_ms_p50", P(r.restore_ms, 50), "ms"},
      {"core.restore_ms_p90", P(r.restore_ms, 90), "ms"},
      {"core.schedule_us_p50", P(r.schedule_us, 50), "us"},
      {"core.layers_hidden_mean", r.layers_hidden.Mean(), "layers"},
      {"core.layers_recompute_mean", r.layers_recompute.Mean(), "layers"},
      {"core.layers_kv_mean", r.layers_kv.Mean(), "layers"},
      {"core.save_kv_calls", static_cast<double>(r.save_kv_ms.count()), "count"},
      {"model.prefill_ms_p50", P(r.prefill_ms, 50), "ms"},
      {"model.decode_ms_p50", P(r.decode_ms, 50), "ms"},
      {"saver.capture_calls", static_cast<double>(r.capture_us.count()), "count"},
      {"saver.seal_calls", static_cast<double>(r.seal_ms.count()), "count"},
  };
  // One rule for the JSON: a time is listed only when every workload samples it, so
  // times with no samples on some workload (no capture, seal, save_kv or delete in
  // rag's timed phase) are printed here instead. Counters are listed when some
  // workload moves them; they read 0 where a workload does no such work (rag writes
  // nothing while timed, chat-spill shares no content). Counters that read 0 on every
  // workload of a correct run (writer stalls, skipped promotions, CRC failures) are
  // printed only.
  std::vector<Metric> text = {
      {"core.save_kv_ms_p50", P(r.save_kv_ms, 50), "ms"},
      {"saver.capture_us_p50", P(r.capture_us, 50), "us"},
      {"saver.seal_ms_p50", P(r.seal_ms, 50), "ms"},
      {"core.delete_ms_p50", P(r.delete_ms, 50), "ms"},
  };
  PrintTier("tiered", st.tiered, &json, &text);
  PrintTier("dedup", st.dedup, &json, &text);
  PrintTier("file", st.file, &json, &text);
  const hcache::StorageStats& td = st.tiered.delta;
  json.push_back({"storage.tiered.dram_hit_byte_ratio", td.DramHitByteRatio(), "ratio"});
  json.push_back({"storage.tiered.evicted_contexts", static_cast<double>(td.evicted_contexts),
                  "count"});
  json.push_back({"storage.tiered.writeback_bytes", static_cast<double>(td.writeback_bytes),
                  "bytes"});
  text.push_back({"storage.tiered.writer_stalls", static_cast<double>(td.writer_stalls),
                  "count"});
  json.push_back({"storage.tiered.drain_rescued_chunks",
                  static_cast<double>(td.drain_rescued_chunks), "count"});
  text.push_back({"storage.tiered.promotions_skipped",
                  static_cast<double>(td.promotions_skipped), "count"});
  json.push_back({"storage.dedup.hits", static_cast<double>(st.dedup.delta.dedup_hits),
                  "count"});
  json.push_back({"storage.dedup.bytes_saved",
                  static_cast<double>(st.dedup.delta.dedup_bytes_saved), "bytes"});
  json.push_back({"storage.dedup.unique_chunks", static_cast<double>(st.dedup.end.unique_chunks),
                  "count"});
  json.push_back({"storage.file.crc_checked_bytes",
                  static_cast<double>(st.file.delta.crc_checked_bytes), "bytes"});
  text.push_back({"storage.file.crc_failures", static_cast<double>(st.file.delta.crc_failures),
                  "count"});
  json.push_back({"layer.io_h_ms", prof.io_h_ms, "ms"});
  json.push_back({"layer.c_h_ms", prof.c_h_ms, "ms"});
  json.push_back({"layer.io_kv_ms", prof.io_kv_ms, "ms"});
  json.push_back({"layer.c_token_ms", prof.c_token_ms, "ms"});
  json.push_back({"layer.c_h_gflops", prof.c_h_gflops, "GFLOP/s"});
  json.push_back({"trace.overhead_frac", overhead, "ratio"});

  SpanRecorder* rec = bench.recorder();
  const std::vector<Span> spans = rec->Spans();
  json.push_back({"trace.spans", static_cast<double>(spans.size()), "count"});
  fs::create_directories(args.out_dir);
  const std::string stem =
      args.out_dir + "/trace-" + args.workload + "-seed" + std::to_string(args.seed);
  const bool wrote = rec->WriteChromeTrace(stem + ".json");
  const auto self_times = rec->SelfTimes();
  {
    std::ofstream table(stem + ".selftime.txt");
    std::printf("self-time table (%zu spans; Chrome trace: %s.json)\n", spans.size(),
                stem.c_str());
    char line[160];
    std::snprintf(line, sizeof(line), "  %-22s %8s %12s %12s\n", "span", "count", "total_ms",
                  "self_ms");
    std::printf("%s", line);
    table << line;
    for (const auto& row : self_times) {
      std::snprintf(line, sizeof(line), "  %-22s %8lld %12.3f %12.3f\n", row.name.c_str(),
                    static_cast<long long>(row.count), row.total_ms, row.self_ms);
      std::printf("%s", line);
      table << line;
    }
  }
  for (const Metric& m : text) {
    PrintMetric(m);
  }
  for (const Metric& m : json) {
    PrintMetric(m);
  }
  const bool correct = plain.failed == 0 && r.failed == 0 && wrote;
  PrintJson(correct, r.attempted, r.failed, json);
  return correct ? 0 : 1;
}
