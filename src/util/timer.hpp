// Wall-clock timing utilities used by the search engine and the benches.
// Every committed performance figure is a wall-clock measurement on the
// host (EXPERIMENTS.md).
#pragma once

#include <chrono>
#include <cstdint>

namespace spiral::util {

/// Monotonic stopwatch with microsecond resolution.
class Stopwatch {
 public:
  Stopwatch() { reset(); }

  void reset() { start_ = clock::now(); }

  /// Elapsed time in seconds since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

  /// Elapsed time in microseconds.
  [[nodiscard]] double micros() const { return seconds() * 1e6; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Runs `fn` repeatedly until at least `min_seconds` elapsed, returns the
/// best (minimum) time per call in seconds. Mirrors how Spiral's evaluation
/// level measures candidate implementations.
template <class Fn>
double time_min_seconds(Fn&& fn, int min_reps = 3, double min_seconds = 1e-3) {
  double best = 1e30;
  int reps = 0;
  Stopwatch total;
  while (reps < min_reps || total.seconds() < min_seconds) {
    Stopwatch w;
    fn();
    best = std::min(best, w.seconds());
    ++reps;
    if (reps > 1'000'000) break;  // safety for degenerate fn
  }
  return best;
}

/// Pseudo Mflop/s as defined in the paper's Section 4:
///   5 N log2(N) / runtime_in_microseconds.
[[nodiscard]] inline double pseudo_mflops(std::int64_t n, double seconds) {
  if (seconds <= 0.0) return 0.0;
  double l = 0.0;
  for (std::int64_t m = n; m > 1; m /= 2) l += 1.0;
  return 5.0 * static_cast<double>(n) * l / (seconds * 1e6);
}

}  // namespace spiral::util
