// Google-benchmark microbenchmarks of the real (host) execution path:
// codelets, fused programs, plan reuse, thread-pool dispatch. These
// measure the library's actual implementation quality on the host CPU,
// complementing the wall-clock figure bench (bench_fig3).
#include <benchmark/benchmark.h>

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "baselines/fft_iterative.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/breakdown.hpp"
#include "util/rng.hpp"

namespace {

using namespace spiral;

void BM_Codelet(benchmark::State& state) {
  const idx_t n = state.range(0);
  // One DFT_n over contiguous sides, as a one-stage program.
  backend::Stage s;
  s.iters = 1;
  s.cn = n;
  s.is_compute = true;
  std::vector<idx_t> strides;
  for (idx_t b = 1; b < n; b *= 2) strides.push_back(b);
  s.in_bits = backend::BitStrideMap(0, strides);
  s.out_bits = s.in_bits;
  backend::Program prog(backend::StageList{n, {s}},
                        backend::ExecPolicy::kSequential);
  util::Rng rng(static_cast<std::uint64_t>(n));
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  for (auto _ : state) {
    prog.execute(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Codelet)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

void BM_SpiralSequential(benchmark::State& state) {
  const idx_t n = idx_t{1} << state.range(0);
  auto plan = core::plan_dft(n);
  util::Rng rng(static_cast<std::uint64_t>(n));
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  for (auto _ : state) {
    plan->execute(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  const double l = static_cast<double>(state.range(0));
  state.counters["pseudo_mflops"] = benchmark::Counter(
      5.0 * double(n) * l * double(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpiralSequential)->DenseRange(6, 16, 2);

void BM_IterativeBaseline(benchmark::State& state) {
  const idx_t n = idx_t{1} << state.range(0);
  util::Rng rng(static_cast<std::uint64_t>(n));
  auto x = rng.complex_signal(n);
  for (auto _ : state) {
    auto y = x;
    baselines::fft_iterative_inplace(y.data(), n);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_IterativeBaseline)->DenseRange(6, 16, 2);

void BM_SpiralThreaded(benchmark::State& state) {
  const idx_t n = idx_t{1} << state.range(0);
  core::PlannerOptions opt;
  opt.threads = 2;
  auto plan = core::plan_dft(n, opt);
  util::Rng rng(static_cast<std::uint64_t>(n));
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  for (auto _ : state) {
    plan->execute(x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_SpiralThreaded)->DenseRange(8, 16, 2);

void BM_PlanCreation(benchmark::State& state) {
  const idx_t n = idx_t{1} << state.range(0);
  for (auto _ : state) {
    auto plan = core::plan_dft(n);
    benchmark::DoNotOptimize(plan.get());
  }
}
BENCHMARK(BM_PlanCreation)->Arg(8)->Arg(12);

}  // namespace

BENCHMARK_MAIN();
