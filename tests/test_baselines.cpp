// Tests for the baseline implementations: direct DFT, iterative FFT,
// six-step program, FFTW-like planner/executor.
#include <gtest/gtest.h>

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "baselines/dft_direct.hpp"
#include "rewrite/breakdown.hpp"
#include "baselines/fft_iterative.hpp"
#include "baselines/fftw_like.hpp"
#include "baselines/sixstep.hpp"
#include "test_helpers.hpp"

namespace spiral::baselines {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

TEST(DirectDft, MatchesReference) {
  for (idx_t n : {1, 2, 3, 8, 16, 31}) {
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    EXPECT_LT(max_diff(dft_direct(x), reference_dft(x)), 1e-10) << n;
  }
}

TEST(DirectDft, InverseSign) {
  util::Rng rng(1);
  const auto x = rng.complex_signal(16);
  EXPECT_LT(max_diff(dft_direct(x, +1), reference_dft(x, +1)), 1e-11);
}

TEST(DirectDft, RejectsInPlace) {
  util::cvec x(8);
  EXPECT_THROW(dft_direct(x.data(), x.data(), 8), std::invalid_argument);
}

TEST(IterativeFft, MatchesReferenceAcrossSizes) {
  for (int k = 1; k <= 12; ++k) {
    const idx_t n = idx_t{1} << k;
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    EXPECT_LT(max_diff(fft_iterative(x), reference_dft(x)),
              fft_tolerance(n))
        << "n=" << n;
  }
}

TEST(IterativeFft, RoundTrip) {
  const idx_t n = 1 << 10;
  util::Rng rng(3);
  const auto x = rng.complex_signal(n);
  auto y = fft_iterative(x, -1);
  auto z = fft_iterative(y, +1);
  for (auto& v : z) v /= double(n);
  EXPECT_LT(max_diff(z, x), fft_tolerance(n));
}

TEST(IterativeFft, RejectsNonPow2) {
  util::cvec x(12);
  EXPECT_THROW(fft_iterative_inplace(x.data(), 12), std::invalid_argument);
}

TEST(SixStep, FormulaMatchesDft) {
  spiral::testing::expect_same_matrix(six_step_formula(64), spl::DFT(64));
}

TEST(SixStep, ProgramComputesDft) {
  for (idx_t n : {16, 64, 256, 1024}) {
    auto list = six_step_program(n, 2);
    backend::Program prog(list, backend::ExecPolicy::kSequential);
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    util::cvec y(x.size());
    prog.execute(x.data(), y.data());
    EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n)) << n;
  }
}

TEST(SixStep, KeepsExplicitTransposes) {
  auto list = six_step_program(1 << 10, 2);
  int data_stages = 0;
  for (const auto& s : list.stages) {
    if (!s.is_compute) ++data_stages;
  }
  EXPECT_EQ(data_stages, 3) << "six-step must transpose explicitly 3 times";
}

TEST(SixStep, ParallelStagesMarked) {
  auto list = six_step_program(1 << 10, 4);
  for (const auto& s : list.stages) {
    EXPECT_EQ(s.parallel_p, 4) << s.label;
    EXPECT_EQ(s.sched_block, 0) << "six-step uses contiguous chunks";
  }
}

TEST(SixStep, ThreadedExecutionMatches) {
  const idx_t n = 1 << 10;
  auto list = six_step_program(n, 2);
  threading::ThreadPool pool(2);
  backend::ExecContext ctx;
  ctx.set_pool(&pool);
  const backend::Program prog(list, backend::ExecPolicy::kThreadPool);
  util::Rng rng(7);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  prog.execute(ctx, x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(FftwLike, SequentialPlanComputesDft) {
  for (idx_t n : {8, 64, 512, 4096}) {
    FftwLikeOptions opt;
    auto plan = fftw_like_plan(n, opt);
    FftwLikeExecutor ex(std::move(plan));
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    util::cvec y(x.size());
    ex.execute(x.data(), y.data());
    if (n <= 1024) {
      EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n)) << n;
    }
    EXPECT_FALSE(ex.parallel());
  }
}

TEST(FftwLike, ParallelPlanComputesDft) {
  FftwLikeOptions opt;
  opt.threads = 2;
  opt.min_parallel_n = 64;
  auto plan = fftw_like_plan(1 << 10, opt);
  FftwLikeExecutor ex(std::move(plan));
  EXPECT_TRUE(ex.parallel());
  util::Rng rng(4);
  const auto x = rng.complex_signal(1 << 10);
  util::cvec y(x.size());
  ex.execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(1 << 10));
}

TEST(FftwLike, RespectsParallelSizeCutoff) {
  FftwLikeOptions opt;
  opt.threads = 4;
  opt.min_parallel_n = 1 << 13;
  auto small = fftw_like_plan(1 << 10, opt);
  for (const auto& s : small.stages) EXPECT_EQ(s.parallel_p, 0);
  auto large = fftw_like_plan(1 << 13, opt);
  bool any_parallel = false;
  for (const auto& s : large.stages) any_parallel |= s.parallel_p > 0;
  EXPECT_TRUE(any_parallel);
}

TEST(FftwLike, UsesBlockCyclicSchedule) {
  FftwLikeOptions opt;
  opt.threads = 2;
  opt.min_parallel_n = 2;
  auto plan = fftw_like_plan(1 << 10, opt);
  bool any_cyclic = false;
  for (const auto& s : plan.stages) {
    if (s.parallel_p > 0) {
      EXPECT_GT(s.sched_block, 0);
      any_cyclic = true;
    }
  }
  EXPECT_TRUE(any_cyclic);
}

TEST(FftwLike, SequentialQualityMatchesSpiralStageCount) {
  // The honest-baseline requirement: same number of memory passes as the
  // Spiral sequential program (both fully fused, same codelets).
  const idx_t n = 1 << 12;
  FftwLikeOptions opt;
  auto fftw = fftw_like_plan(n, opt);
  auto spiral_seq = backend::lower_fused(rewrite::formula_from_ruletree(
      rewrite::balanced_ruletree(n)));
  EXPECT_EQ(fftw.stages.size(), spiral_seq.stages.size());
}

TEST(FftwLike, RepeatedParallelExecutionWorks) {
  FftwLikeOptions opt;
  opt.threads = 2;
  opt.min_parallel_n = 64;
  FftwLikeExecutor ex(fftw_like_plan(256, opt));
  util::Rng rng(5);
  const auto x = rng.complex_signal(256);
  util::cvec y1(256), y2(256);
  ex.execute(x.data(), y1.data());
  ex.execute(x.data(), y2.data());
  EXPECT_LT(max_diff(y1, y2), 1e-300);
}

}  // namespace
}  // namespace spiral::baselines
