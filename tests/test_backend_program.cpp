// Tests for the Program executor: the one interpreter walk gives identical
// results inline, on a folded (smaller) team and on a full team; in-place
// execution; barrier elision; repeated execution.
#include <gtest/gtest.h>

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "test_helpers.hpp"

namespace spiral::backend {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

/// Fused multicore program for DFT_n on p "processors".
StageList multicore_program(idx_t n, idx_t p, idx_t mu) {
  auto f = rewrite::derive_multicore_ct(
      n, /*m=*/idx_t{1} << (util::log2_exact(n) / 2), p, mu);
  return lower_fused(rewrite::expand_dfts_balanced(f));
}

/// y = prog(x) on `pool`, through a context that borrows it.
void run_on(const Program& prog, threading::ThreadPool& pool, const cplx* x,
            cplx* y) {
  ExecContext ctx;
  ctx.set_pool(&pool);
  prog.execute(ctx, x, y);
}

TEST(Program, SequentialMatchesReference) {
  const idx_t n = 256;
  auto list = multicore_program(n, 2, 2);
  Program prog(list, ExecPolicy::kSequential);
  util::Rng rng(1);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  prog.execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Program, ThreadPoolMatchesSequential) {
  // A p=4 plan on 1, 2 and 4 threads: the walk's inline, folded and
  // full-team paths must all agree with kSequential.
  const idx_t n = 1024;
  auto list = multicore_program(n, 4, 2);
  util::Rng rng(2);
  const auto x = rng.complex_signal(n);
  util::cvec y_seq(x.size()), y_par(x.size());
  Program seq(list, ExecPolicy::kSequential);
  seq.execute(x.data(), y_seq.data());
  const Program par(list, ExecPolicy::kThreadPool);
  for (int threads : {1, 2, 4}) {
    threading::ThreadPool pool(threads);
    run_on(par, pool, x.data(), y_par.data());
    EXPECT_LT(max_diff(y_par, y_seq), 1e-14)
        << "policies disagree on " << threads << " threads";
  }
}

TEST(Program, PoolSmallerThanStageParallelism) {
  // A plan generated for p=4 must still run correctly on a 2-thread pool.
  const idx_t n = 1024;
  auto list = multicore_program(n, 4, 2);
  util::Rng rng(3);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  threading::ThreadPool pool(2);
  const Program par(list, ExecPolicy::kThreadPool);
  run_on(par, pool, x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Program, InPlaceExecution) {
  const idx_t n = 256;
  auto list = multicore_program(n, 2, 2);
  util::Rng rng(5);
  auto x = rng.complex_signal(n);
  const auto ref = reference_dft(x);
  Program prog(list, ExecPolicy::kSequential);
  prog.execute(x.data(), x.data());
  EXPECT_LT(max_diff(x, ref), fft_tolerance(n));
}

TEST(Program, SingleStageInPlace) {
  auto list = lower_fused(spl::L(64, 8));
  util::Rng rng(6);
  auto x = rng.complex_signal(64);
  const auto ref = spl::to_dense(spl::L(64, 8)).apply(x);
  Program prog(list, ExecPolicy::kSequential);
  prog.execute(x.data(), x.data());
  EXPECT_LT(max_diff(x, ref), 1e-15);
}

TEST(Program, RepeatedExecutionIsDeterministic) {
  const idx_t n = 512;
  auto list = multicore_program(n, 2, 4);
  threading::ThreadPool pool(2);
  ExecContext ctx;
  ctx.set_pool(&pool);
  const Program prog(list, ExecPolicy::kThreadPool);
  util::Rng rng(7);
  const auto x = rng.complex_signal(n);
  util::cvec y1(x.size()), y2(x.size());
  prog.execute(ctx, x.data(), y1.data());
  for (int rep = 0; rep < 50; ++rep) {
    prog.execute(ctx, x.data(), y2.data());
    ASSERT_LT(max_diff(y1, y2), 0.0 + 1e-300) << "rep " << rep;
  }
}

TEST(Program, PoolPolicyWithoutExplicitPoolBuildsOwnTeam) {
  // No borrowed pool: the execution context lazily builds a persistent
  // worker team sized to the program's parallelism.
  const idx_t n = 256;
  auto list = multicore_program(n, 2, 2);
  Program prog(list, ExecPolicy::kThreadPool);
  EXPECT_EQ(prog.max_parallelism(), 2);
  util::Rng rng(11);
  const auto x = rng.complex_signal(n);
  util::cvec y(n);
  prog.execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
  // A pool borrowed through a context is honored.
  threading::ThreadPool pool(2);
  run_on(prog, pool, x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Program, DistinctContextsShareOneProgram) {
  // The plan/context split: one immutable program, several caller-owned
  // contexts, identical results from each.
  const idx_t n = 512;
  auto list = multicore_program(n, 2, 2);
  const Program prog(list, ExecPolicy::kThreadPool);
  util::Rng rng(12);
  const auto x = rng.complex_signal(n);
  const auto ref = reference_dft(x);
  ExecContext a, b;
  util::cvec ya(n), yb(n);
  prog.execute(a, x.data(), ya.data());
  prog.execute(b, x.data(), yb.data());
  EXPECT_LT(max_diff(ya, ref), fft_tolerance(n));
  EXPECT_LT(max_diff(yb, ref), fft_tolerance(n));
  // Contexts survive reset() and can be reused across programs.
  a.reset();
  prog.execute(a, x.data(), ya.data());
  EXPECT_LT(max_diff(ya, ref), fft_tolerance(n));
}

TEST(Program, FusedInPlaceMultiStage) {
  // x == y through the fused single-fork path: the first stage moves the
  // data into a scratch buffer, so writing y == x at the end is safe.
  const idx_t n = 1024;
  auto list = multicore_program(n, 4, 2);
  util::Rng rng(22);
  auto x = rng.complex_signal(n);
  const auto ref = reference_dft(x);
  threading::ThreadPool pool(4);
  const Program prog(list, ExecPolicy::kThreadPool);
  run_on(prog, pool, x.data(), x.data());
  EXPECT_LT(max_diff(x, ref), fft_tolerance(n));
}

TEST(Program, FusedInPlaceSingleParallelStage) {
  // Single-stage in-place through the fused path: the executor must
  // stage the input through a scratch copy before the team scatters.
  auto list = lower_fused(spl::L(64, 8));
  ASSERT_EQ(list.stages.size(), 1u);
  for (auto& s : list.stages) s.parallel_p = 4;  // pure copy: safe to split
  util::Rng rng(23);
  auto x = rng.complex_signal(64);
  const auto ref = spl::to_dense(spl::L(64, 8)).apply(x);
  threading::ThreadPool pool(4);
  const Program prog(list, ExecPolicy::kThreadPool);
  run_on(prog, pool, x.data(), x.data());
  EXPECT_LT(max_diff(x, ref), 1e-15);
}

TEST(Program, FusedSkipsBarriersBetweenSequentialStages) {
  // Demote every stage but the last-executed one to sequential:
  // participant 0 runs the sequential prefix alone while the others fall
  // through (interior barriers elided for sequential-sequential
  // transitions), then everyone synchronizes once for the final parallel
  // stage — results must be untouched.
  const idx_t n = 256;
  // The unfused lowering keeps the permutation stages explicit, so the
  // program has enough stages to contain sequential-sequential runs.
  auto f = rewrite::expand_dfts_balanced(
      rewrite::derive_multicore_ct(n, 16, 2, 2));
  auto list = lower(f);
  ASSERT_GE(list.stages.size(), 3u);
  for (std::size_t i = 1; i < list.stages.size(); ++i) {
    list.stages[i].parallel_p = 1;
  }
  // Bijective out_map: splitting the final stage across 2 tasks is safe.
  list.stages.front().parallel_p = 2;
  util::Rng rng(24);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  threading::ThreadPool pool(2);
  const Program prog(list, ExecPolicy::kThreadPool);
  run_on(prog, pool, x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Program, SequentialPolicyMatchesDenseSemantics) {
  // kSequential equivalence against the dense SPL semantics of the exact
  // lowered formula (not just the DFT reference): catches lowering bugs
  // the reference-DFT comparison would mask with a compensating error.
  const idx_t n = 64;
  auto f = rewrite::expand_dfts_balanced(
      rewrite::derive_multicore_ct(n, 8, 2, 2));
  auto list = lower_fused(f);
  util::Rng rng(26);
  const auto x = rng.complex_signal(n);
  const auto ref = spl::to_dense(f).apply(x);
  util::cvec y(x.size());
  Program(list, ExecPolicy::kSequential).execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, ref), fft_tolerance(n));
}

TEST(Program, LinearityProperty) {
  // DFT(a*x + y) == a*DFT(x) + DFT(y): a property check on the whole
  // pipeline (plan reuse across inputs).
  const idx_t n = 256;
  auto list = multicore_program(n, 2, 2);
  Program prog(list, ExecPolicy::kSequential);
  util::Rng rng(8);
  const auto x = rng.complex_signal(n);
  const auto y = rng.complex_signal(n);
  const cplx a{0.7, -1.3};
  util::cvec combo(n);
  for (idx_t i = 0; i < n; ++i) {
    combo[size_t(i)] = a * x[size_t(i)] + y[size_t(i)];
  }
  util::cvec fx(n), fy(n), fc(n);
  prog.execute(x.data(), fx.data());
  prog.execute(y.data(), fy.data());
  prog.execute(combo.data(), fc.data());
  double d = 0.0;
  for (idx_t i = 0; i < n; ++i) {
    d = std::max(d, std::abs(fc[size_t(i)] - (a * fx[size_t(i)] +
                                              fy[size_t(i)])));
  }
  EXPECT_LT(d, fft_tolerance(n));
}

TEST(Program, ImpulseResponseIsAllOnes) {
  // DFT of the unit impulse is the all-ones vector.
  const idx_t n = 256;
  auto list = multicore_program(n, 2, 2);
  Program prog(list, ExecPolicy::kSequential);
  util::cvec x(n, cplx{0, 0});
  x[0] = cplx{1, 0};
  util::cvec y(n);
  prog.execute(x.data(), y.data());
  for (idx_t i = 0; i < n; ++i) {
    EXPECT_LT(std::abs(y[size_t(i)] - cplx{1, 0}), 1e-12) << i;
  }
}

TEST(Program, ParsevalEnergyConservation) {
  const idx_t n = 1024;
  auto list = multicore_program(n, 4, 2);
  Program prog(list, ExecPolicy::kSequential);
  util::Rng rng(9);
  const auto x = rng.complex_signal(n);
  util::cvec y(n);
  prog.execute(x.data(), y.data());
  double ex = 0.0, ey = 0.0;
  for (idx_t i = 0; i < n; ++i) {
    ex += std::norm(x[size_t(i)]);
    ey += std::norm(y[size_t(i)]);
  }
  EXPECT_NEAR(ey, ex * static_cast<double>(n), 1e-6 * ex * n);
}

}  // namespace
}  // namespace spiral::backend
