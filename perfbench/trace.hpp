// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own code, around the calls it
// makes into each library module's public functions: name, layer, start,
// end, the span that caused it and, for service requests, a request id
// shared by every span of that request. Nothing is written until the run
// ends; then the spans go out as a Chrome-trace JSON file (load it in
// chrome://tracing or ui.perfetto.dev) and self time is summed per layer.
//
// Recording is single-threaded: only the benchmark's main thread opens
// spans. With tracing off every call is one branch and no clock read.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

class Tracer {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = 0;

  explicit Tracer(bool on) : on_(on), origin_(Clock::now()) {
    if (on_) spans_.reserve(1 << 20);
  }

  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Opens a span; returns its id (kNone when tracing is off).
  Id begin(const char* name, const char* layer, Id parent = kNone,
           std::uint64_t req = 0) {
    if (!on_) return kNone;
    spans_.push_back({name, layer, now_ns(), -1, parent, req});
    return static_cast<Id>(spans_.size());
  }
  /// Closes span `id` (a no-op for kNone).
  void end(Id id) {
    if (id != kNone) spans_[id - 1].t1 = now_ns();
  }

  /// RAII span for straight-line code.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, const char* layer, Id parent = kNone,
          std::uint64_t req = 0)
        : t_(t), id_(t.begin(name, layer, parent, req)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] Id id() const noexcept { return id_; }

   private:
    Tracer& t_;
    Id id_;
  };

  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }

  /// Self time per layer, seconds: each span's duration minus the part of
  /// its interval covered by its child spans.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Writes a Chrome-trace JSON ("X" complete events, one lane per
  /// in-flight request slot, lane 0 for everything else). At most
  /// `max_per_name` spans of each name are written (the earliest), so rare
  /// spans survive next to a sample of the frequent ones; the file records
  /// how many were dropped.
  bool write_chrome(const std::string& path, std::size_t max_per_name) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    std::int64_t t0;
    std::int64_t t1;
    Id parent;
    std::uint64_t req;
  };

  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_)
        .count();
  }

  bool on_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
