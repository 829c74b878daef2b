// Shared plumbing of the perfbench harness: clocks, order statistics,
// process counters, seeded inputs, the correctness oracle and the metric
// record every workload fills.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "baselines/dft_direct.hpp"
#include "baselines/fft_iterative.hpp"
#include "util/rng.hpp"

namespace perfbench {

using spiral::cplx;
using spiral::idx_t;
using spiral::util::cvec;
using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Process CPU time (user + system) in seconds, all threads.
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set size of the process, MiB.
inline double rss_peak_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Value at quantile q of v (sorted copy, nearest rank). 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto i = static_cast<std::size_t>(
      std::clamp(std::ceil(q * static_cast<double>(v.size())) - 1.0, 0.0,
                 static_cast<double>(v.size() - 1)));
  return v[i];
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The tail the benchmark reports as "p99": the 99th percentile when at
/// least 10 samples lie beyond it, otherwise the highest rank that still
/// has 10 samples beyond it (so small runs never report a lone outlier).
struct Tail {
  double value = 0.0;
  double pct = 0.0;      ///< percentile actually reported
  std::size_t samples = 0;
};
inline Tail tail_p99(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t i = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(n))) - 1;
  if (n >= 11) i = std::min(i, n - 11);
  else i = 0;
  t.value = v[i];
  t.pct = 100.0 * static_cast<double>(i + 1) / static_cast<double>(n);
  return t;
}

/// Latency samples of a measured loop, split into sub-windows that close
/// on a completion once `window_s` has passed. Each window is summarised
/// when it closes (completions per second, process CPU per completion,
/// p50, p99) and its samples dropped, so memory stays flat; the reported
/// figure is the median over windows. On a shared host whose other tenants
/// steal CPU in bursts, the median window is far steadier from run to run
/// than a whole-run figure, which one stall moves. A window longer than the
/// run gives whole-run figures (closed by finish()).
class Windows {
 public:
  explicit Windows(double window_s) : window_s_(window_s) {}

  void start(Clock::time_point now) {
    open_t_ = now;
    open_cpu_ = process_cpu_s();
    open_excluded_ = 0.0;
  }
  void add(double lat_us) { cur_.push_back(lat_us); }
  /// After a completion; `excluded_s` is the running total of
  /// benchmark-only work (output checks) not to count as wall time.
  void tick(Clock::time_point now, double excluded_s) {
    if (seconds_between(open_t_, now) >= window_s_) close(now, excluded_s);
  }
  /// Ends the loop: closes the open window only when none closed yet.
  void finish(Clock::time_point now, double excluded_s) {
    if (p50_.empty()) close(now, excluded_s);
  }

  struct Stats {
    double p50 = 0.0;
    double p99 = 0.0;
    double tps = 0.0;
    double cpu_us = 0.0;
    Tail tail;  ///< tail of the first window (the whole run for one window)
    std::size_t windows = 0;
    std::size_t samples = 0;

    /// Percentile the p99 figure stands for.
    [[nodiscard]] double tail_pct() const { return windows > 1 ? 99.0 : tail.pct; }
    /// How the latency figures were formed, for the run record.
    [[nodiscard]] std::string describe(double window_s) const {
      char buf[160];
      if (windows > 1) {
        std::snprintf(buf, sizeof buf, "p50/p99 per %g s window, median of %zu windows, %zu samples",
                      window_s, windows, samples);
      } else {
        std::snprintf(buf, sizeof buf, "p%.4g of %zu samples", tail.pct, tail.samples);
      }
      return buf;
    }
  };
  [[nodiscard]] Stats stats() const {
    return {median(p50_), median(p99_), median(tps_), median(cpu_us_), first_tail_,
            p50_.size(), samples_};
  }

 private:
  void close(Clock::time_point now, double excluded_s) {
    if (cur_.empty()) return;
    const double cpu = process_cpu_s();
    const double wall = seconds_between(open_t_, now) - (excluded_s - open_excluded_);
    const auto n = static_cast<double>(cur_.size());
    const Tail t = tail_p99(cur_);
    if (p50_.empty()) first_tail_ = t;
    p50_.push_back(median(cur_));
    p99_.push_back(t.value);
    tps_.push_back(n / wall);
    cpu_us_.push_back(1e6 * (cpu - open_cpu_) / n);
    samples_ += cur_.size();
    cur_.clear();
    open_t_ = now;
    open_cpu_ = cpu;
    open_excluded_ = excluded_s;
  }

  double window_s_;
  Clock::time_point open_t_{};
  double open_cpu_ = 0.0;
  double open_excluded_ = 0.0;
  std::vector<double> cur_;
  std::vector<double> p50_, p99_, tps_, cpu_us_;
  Tail first_tail_;
  std::size_t samples_ = 0;
};

/// Pseudo-flop count of the paper's performance metric, 5 n log2(n).
inline double pseudo_flops(idx_t n) {
  return 5.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

/// Deterministic complex input of length n for (seed, stream).
inline cvec make_input(std::uint64_t seed, std::uint64_t stream, idx_t n) {
  spiral::util::Rng rng(seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull + 1);
  return rng.complex_signal(n);
}

/// Reference transform: the O(n^2) direct DFT up to 1024 points, the
/// textbook iterative radix-2 FFT above.
inline cvec reference_dft(const cvec& x) {
  const auto n = static_cast<idx_t>(x.size());
  if (n <= 1024) return spiral::baselines::dft_direct(x, -1);
  return spiral::baselines::fft_iterative(x, -1);
}

/// Relative L2 error ||y - ref|| / ||ref||.
inline double rel_l2(const cplx* y, const cvec& ref) {
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += std::norm(y[i] - ref[i]);
    den += std::norm(ref[i]);
  }
  return den > 0.0 ? std::sqrt(num / den) : std::sqrt(num);
}

/// Accuracy gate: relative L2 error <= c * log2(n) * eps.
inline constexpr double kErrConstant = 8.0;
inline double error_bound(idx_t n) {
  return kErrConstant * std::log2(static_cast<double>(n)) *
         std::numeric_limits<double>::epsilon();
}

/// Counts sampled output checks and remembers the worst error seen.
struct Checker {
  std::uint64_t checked = 0;
  std::uint64_t mismatches = 0;
  double worst = 0.0;

  /// Returns true when y matches ref within the bound for n = ref.size().
  bool check(const cplx* y, const cvec& ref) {
    const double e = rel_l2(y, ref);
    ++checked;
    worst = std::max(worst, std::isfinite(e) ? e : std::numeric_limits<double>::infinity());
    const bool ok = e <= error_bound(static_cast<idx_t>(ref.size()));
    if (!ok) ++mismatches;
    return ok;
  }
};

/// The oracle must reject a wrong answer: corrupt one element of a
/// correct output (in the benchmark's own copy) and confirm the check
/// fails. Returns true when the corruption was caught.
inline bool self_check_catches(const cplx* good_y, const cvec& ref) {
  cvec y(good_y, good_y + ref.size());
  y[ref.size() / 3] += cplx(1e-6 * std::sqrt(std::norm(ref[ref.size() / 3]) + 1.0), 0.0);
  Checker probe;
  return !probe.check(y.data(), ref);
}

/// Everything one workload run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  std::vector<std::pair<std::string, std::string>> notes;  ///< metadata

  void set(const std::string& name, double value) { metrics[name] = value; }
  void note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
};

/// Folds the oracle into a result: failures are the execution errors
/// already counted plus output mismatches; the run is correct only with no
/// failure and a self-check that caught its corrupted output.
inline void finish_checks(Result& r, const Checker& c, std::uint64_t attempted,
                          bool self_check_caught) {
  r.failed += c.mismatches;
  r.attempted = attempted;
  r.correct = r.failed == 0 && self_check_caught;
  if (!self_check_caught) r.note("selfcheck", "a corrupted output passed the check");
  r.set("check.selfcheck_caught", self_check_caught ? 1.0 : 0.0);
  r.set("check.err_rel_l2.max", c.worst);
  r.set("check.sampled", static_cast<double>(c.checked));
  r.set("check.failed_frac", static_cast<double>(r.failed) / static_cast<double>(attempted));
}

}  // namespace perfbench
