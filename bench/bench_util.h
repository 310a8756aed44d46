// Shared console-reporting helpers for the per-figure bench binaries, plus a minimal
// JSON emitter so benches can persist machine-readable results (BENCH_*.json) that CI
// archives as the repo's performance trajectory.
//
// Every bench prints (a) the series/rows the paper's figure or table reports, and
// (b) a "paper:" annotation with the published values or ratio bands, so the output is
// directly comparable. EXPERIMENTS.md records the comparison.
#ifndef HCACHE_BENCH_BENCH_UTIL_H_
#define HCACHE_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/simd.h"

namespace hcache {

inline void PrintTitle(const std::string& title) {
  std::printf("\n==== %s ====\n", title.c_str());
}

inline void PrintSection(const std::string& s) { std::printf("\n-- %s --\n", s.c_str()); }

inline void PrintNote(const std::string& s) { std::printf("   [paper] %s\n", s.c_str()); }

// A tiny build-and-dump JSON value (object / array / string / number / bool). Exactly
// what the bench emitters need: no parsing, no escapes beyond the JSON-mandated set,
// numbers printed with enough digits to round-trip a double.
class JsonValue {
 public:
  JsonValue() : kind_(Kind::kNull) {}

  static JsonValue Object() { return JsonValue(Kind::kObject); }
  static JsonValue Array() { return JsonValue(Kind::kArray); }
  static JsonValue Str(std::string s) {
    JsonValue v(Kind::kString);
    v.str_ = std::move(s);
    return v;
  }
  static JsonValue Num(double d) {
    JsonValue v(Kind::kNumber);
    v.num_ = d;
    return v;
  }
  static JsonValue Int(int64_t i) {
    JsonValue v(Kind::kInt);
    v.int_ = i;
    return v;
  }
  static JsonValue Bool(bool b) {
    JsonValue v(Kind::kBool);
    v.bool_ = b;
    return v;
  }

  // Object field setters (insertion order is preserved when dumping).
  JsonValue& Set(const std::string& key, JsonValue v) {
    fields_.emplace_back(key, std::move(v));
    return *this;
  }
  JsonValue& Set(const std::string& key, const std::string& s) {
    return Set(key, Str(s));
  }
  JsonValue& Set(const std::string& key, const char* s) { return Set(key, Str(s)); }
  JsonValue& Set(const std::string& key, double d) { return Set(key, Num(d)); }
  JsonValue& Set(const std::string& key, int64_t i) { return Set(key, Int(i)); }
  JsonValue& Set(const std::string& key, int i) {
    return Set(key, Int(static_cast<int64_t>(i)));
  }
  JsonValue& Set(const std::string& key, bool b) { return Set(key, Bool(b)); }

  // Array appender.
  JsonValue& Push(JsonValue v) {
    items_.push_back(std::move(v));
    return *this;
  }

  std::string Dump(int indent = 0) const {
    std::string out;
    DumpTo(out, indent, 0);
    return out;
  }

 private:
  enum class Kind { kNull, kObject, kArray, kString, kNumber, kInt, kBool };

  explicit JsonValue(Kind k) : kind_(k) {}

  static void Escape(const std::string& s, std::string& out) {
    out.push_back('"');
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
          } else {
            out.push_back(c);
          }
      }
    }
    out.push_back('"');
  }

  void DumpTo(std::string& out, int indent, int depth) const {
    const std::string pad(indent > 0 ? static_cast<size_t>(indent * (depth + 1)) : 0, ' ');
    const std::string close_pad(indent > 0 ? static_cast<size_t>(indent * depth) : 0, ' ');
    const char* nl = indent > 0 ? "\n" : "";
    switch (kind_) {
      case Kind::kNull: out += "null"; break;
      case Kind::kString: Escape(str_, out); break;
      case Kind::kBool: out += bool_ ? "true" : "false"; break;
      case Kind::kInt: {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(int_));
        out += buf;
        break;
      }
      case Kind::kNumber: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", num_);
        out += buf;
        break;
      }
      case Kind::kObject: {
        out += "{";
        out += nl;
        for (size_t i = 0; i < fields_.size(); ++i) {
          out += pad;
          Escape(fields_[i].first, out);
          out += indent > 0 ? ": " : ":";
          fields_[i].second.DumpTo(out, indent, depth + 1);
          if (i + 1 < fields_.size()) out += ",";
          out += nl;
        }
        out += close_pad;
        out += "}";
        break;
      }
      case Kind::kArray: {
        out += "[";
        out += nl;
        for (size_t i = 0; i < items_.size(); ++i) {
          out += pad;
          items_[i].DumpTo(out, indent, depth + 1);
          if (i + 1 < items_.size()) out += ",";
          out += nl;
        }
        out += close_pad;
        out += "]";
        break;
      }
    }
  }

  Kind kind_;
  std::string str_;
  double num_ = 0.0;
  int64_t int_ = 0;
  bool bool_ = false;
  std::vector<std::pair<std::string, JsonValue>> fields_;  // kObject
  std::vector<JsonValue> items_;                           // kArray
};

// Writes `v` (pretty-printed) to `path`. Returns false on IO failure.
inline bool WriteJsonFile(const std::string& path, const JsonValue& v) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path.c_str());
    return false;
  }
  const std::string text = v.Dump(/*indent=*/2);
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
                  std::fputc('\n', f) != EOF;
  std::fclose(f);
  if (ok) {
    std::printf("wrote %s\n", path.c_str());
  }
  return ok;
}

// The host measured rows come from (core count, CPU model, SIMD tiers). Measured rows
// are comparable only between equal fingerprints.
inline JsonValue HostFingerprint() {
  std::string cpu = "unknown";
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    const size_t colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
      cpu = line.substr(line.find_first_not_of(' ', colon + 1));
      break;
    }
  }
  JsonValue host = JsonValue::Object();
  host.Set("nproc", static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("cpu_model", cpu)
      .Set("simd_detected", SimdTierName(DetectedSimdTier()))
      .Set("simd_active", SimdTierName(ActiveSimdTier()));
  return host;
}

}  // namespace hcache

#endif  // HCACHE_BENCH_BENCH_UTIL_H_
