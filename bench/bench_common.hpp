// Shared plumbing for the benchmark harness: wall-clock timing with
// min and median over repeats, the host description every committed
// BENCH_*.json carries, and the JSON writer.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "util/timer.hpp"

namespace spiral::bench {

/// Per-call wall-clock seconds of one measured point over its repeats.
struct Timing {
  double min_s = 0.0;
  double median_s = 0.0;
};

/// Times `fn` in `repeats` samples. It first runs fn back to back for
/// 50 ms (worker teams, caches, page tables and clock speed settle; a
/// fresh process measures up to 1.5x slow without it), which also fixes
/// the calls per sample so that a sample lasts about 1 ms. Each sample
/// records its time per call; the result is the min and median of those.
template <class Fn>
Timing time_repeats(Fn&& fn, int repeats) {
  repeats = std::max(repeats, 1);
  constexpr double kWarmupSeconds = 0.05;
  constexpr double kSampleSeconds = 1e-3;
  util::Stopwatch warm;
  int warm_calls = 0;
  do {
    fn();
    ++warm_calls;
  } while (warm.seconds() < kWarmupSeconds);
  const double once = warm.seconds() / warm_calls;
  const auto calls = static_cast<int>(
      std::clamp(kSampleSeconds / once, 1.0, 1e6));
  std::vector<double> per_call;
  per_call.reserve(static_cast<std::size_t>(repeats));
  for (int r = 0; r < repeats; ++r) {
    util::Stopwatch w;
    for (int c = 0; c < calls; ++c) fn();
    per_call.push_back(w.seconds() / calls);
  }
  std::sort(per_call.begin(), per_call.end());
  return {per_call.front(), per_call[per_call.size() / 2]};
}

/// The host's CPU model (from /proc/cpuinfo; "unknown" elsewhere).
inline std::string host_cpu() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto start = line.find_first_not_of(" \t:", line.find(':'));
    if (start == std::string::npos) break;
    return line.substr(start);
  }
  return "unknown";
}

/// Online processors, as nproc prints.
inline int host_nproc() {
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

/// JSON writer for the benchmark results committed to the repo
/// (BENCH_*.json): one object whose header fields describe the run (the
/// host, its processor count, the repeat count) and whose "rows" array
/// holds one flat object per measurement. Strings are quoted and escaped,
/// numbers printed raw — just enough JSON for `python -m json.tool` and
/// plotting scripts, with no dependency.
class JsonRows {
 public:
  /// A header field, written before the rows.
  template <class T>
  void meta(const std::string& key, const T& value) {
    put(meta_, key, value);
  }
  void begin_row() { rows_.emplace_back(); }
  /// A field of the current row.
  template <class T>
  void field(const std::string& key, const T& value) {
    put(rows_.back(), key, value);
  }

  [[nodiscard]] std::string to_string() const {
    std::string out = "{\n";
    for (const auto& [key, value] : meta_) {
      out.append("  \"" + key + "\": " + value + ",\n");
    }
    out.append("  \"rows\": [\n");
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out.append("    {");
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        out.append("\"" + rows_[r][f].first + "\": " + rows_[r][f].second);
        if (f + 1 < rows_[r].size()) out.append(", ");
      }
      out.append(r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out.append("  ]\n}\n");
    return out;
  }

  /// Writes the document to `path`; returns false on I/O failure.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << to_string();
    return static_cast<bool>(os);
  }

 private:
  using Fields = std::vector<std::pair<std::string, std::string>>;

  static void put(Fields& f, const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += c;
    }
    f.emplace_back(key, quoted + "\"");
  }
  static void put(Fields& f, const std::string& key, const char* v) {
    put(f, key, std::string(v));
  }
  static void put(Fields& f, const std::string& key, std::int64_t v) {
    f.emplace_back(key, std::to_string(v));
  }
  static void put(Fields& f, const std::string& key, int v) {
    put(f, key, static_cast<std::int64_t>(v));
  }
  static void put(Fields& f, const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.8g", v);
    f.emplace_back(key, buf);
  }

  Fields meta_;
  std::vector<Fields> rows_;
};

/// Records the host, its processor count and the repeat count in the
/// header of `json`.
inline void describe_host(JsonRows& json, int repeats) {
  json.meta("host", host_cpu());
  json.meta("nproc", host_nproc());
  json.meta("repeats", repeats);
}

}  // namespace spiral::bench
