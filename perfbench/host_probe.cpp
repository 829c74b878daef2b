#include "host_probe.hpp"

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr int kChains = 12;  // > FMA latency x ports, so the chain never stalls
constexpr std::int64_t kFmaIters = 20'000'000;

__attribute__((target("avx512f,fma"))) double fma_chain_avx512(double seed) {
  __m512d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm512_set1_pd(seed + c);
  const __m512d m = _mm512_set1_pd(0.999999);
  const __m512d a = _mm512_set1_pd(1e-7);
  for (std::int64_t i = 0; i < kFmaIters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm512_fmadd_pd(acc[c], m, a);
  }
  __m512d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm512_add_pd(s, acc[c]);
  alignas(64) double out[8];
  _mm512_store_pd(out, s);
  return out[0] + out[1] + out[2] + out[3] + out[4] + out[5] + out[6] + out[7];
}

__attribute__((target("avx2,fma"))) double fma_chain_avx2(double seed) {
  __m256d acc[kChains];
  for (int c = 0; c < kChains; ++c) acc[c] = _mm256_set1_pd(seed + c);
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d a = _mm256_set1_pd(1e-7);
  for (std::int64_t i = 0; i < kFmaIters; ++i) {
    for (int c = 0; c < kChains; ++c) acc[c] = _mm256_fmadd_pd(acc[c], m, a);
  }
  __m256d s = acc[0];
  for (int c = 1; c < kChains; ++c) s = _mm256_add_pd(s, acc[c]);
  alignas(32) double out[4];
  _mm256_store_pd(out, s);
  return out[0] + out[1] + out[2] + out[3];
}

/// Keeps a computed value alive so the timed loop cannot be elided.
inline void keep(double v) { asm volatile("" : : "x"(v) : "memory"); }

/// Runs fn on `threads` threads at once; returns the wall time.
template <class Fn>
double timed_parallel(int threads, Fn&& fn) {
  std::vector<std::thread> team;
  const auto t0 = Clock::now();
  for (int t = 1; t < threads; ++t) team.emplace_back(fn, t);
  fn(0);
  for (auto& th : team) th.join();
  return seconds_between(t0, Clock::now());
}

}  // namespace

HostBounds probe_host(int threads, double array_mib) {
  HostBounds hb;
  __builtin_cpu_init();
  int lanes = 1;
  if (__builtin_cpu_supports("avx512f")) {
    hb.fma_isa = "avx512f";
    lanes = 8;
  } else if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    hb.fma_isa = "avx2";
    lanes = 4;
  } else {
    hb.fma_isa = "none";
  }
  if (lanes > 1) {
    for (int trial = 0; trial < 3; ++trial) {
      const double wall = timed_parallel(threads, [&](int t) {
        keep(lanes == 8 ? fma_chain_avx512(t + trial) : fma_chain_avx2(t + trial));
      });
      const double flops = 2.0 * lanes * kChains * static_cast<double>(kFmaIters) * threads;
      hb.fma_gflops = std::max(hb.fma_gflops, flops / wall * 1e-9);
    }
  }

  hb.stream_array_mib = array_mib;
  const auto n = static_cast<std::size_t>(array_mib * 1024.0 * 1024.0 / sizeof(double));
  std::unique_ptr<double[]> a(new double[n]);
  std::unique_ptr<double[]> b(new double[n]);
  std::unique_ptr<double[]> c(new double[n]);
  auto range = [&](int t) {
    return std::pair<std::size_t, std::size_t>(n * static_cast<std::size_t>(t) / threads,
                                                n * static_cast<std::size_t>(t + 1) / threads);
  };
  // First touch from the thread that later streams the range.
  timed_parallel(threads, [&](int t) {
    const auto [lo, hi] = range(t);
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  for (int trial = 0; trial < 3; ++trial) {
    const double wall = timed_parallel(threads, [&](int t) {
      const auto [lo, hi] = range(t);
      double* __restrict pa = a.get();
      const double* __restrict pb = b.get();
      const double* __restrict pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + 3.0 * pc[i];
    });
    keep(a[n / 2]);
    hb.stream_gbps = std::max(hb.stream_gbps, 24.0 * static_cast<double>(n) / wall * 1e-9);
  }
  return hb;
}

}  // namespace perfbench
