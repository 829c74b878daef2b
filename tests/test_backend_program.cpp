// Tests for the Program executor: the iteration schedule partitions
// every stage; the one interpreter walk gives identical results inline,
// on a folded (smaller) team, on a full team and on a larger one; in-place
// execution; barrier elision; repeated execution; stage groups run block
// by block bit-identically to the flat stage walk, and their streamed
// final writes change no bits; a reused context's stale scratch never
// reaches an output; symbolic scales are shared, never copied, and read
// bit-identically to expanded tables.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <thread>
#include <type_traits>
#include <utility>

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "backend/schedule.hpp"
#include "backend/simd.hpp"
#include "core/spiral_fft.hpp"
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

TEST(Program, RejectsTableAddressedStages) {
  // Execution reads the bit-stride maps only; an int32 table on either
  // side (as the analyses' rebuilt programs carry) is refused up front.
  const auto list = lower_fused(spl::L(64, 8));
  ASSERT_EQ(list.stages.size(), 1u);
  for (const bool input : {true, false}) {
    StageList tabled = list;
    Stage& s = tabled.stages.front();
    const BitStrideMap& map = input ? s.in_bits : s.out_bits;
    auto& table = input ? s.in_map : s.out_map;
    for (idx_t k = 0; k < s.total_elems(); ++k) {
      table.push_back(static_cast<std::int32_t>(map.at(k)));
    }
    EXPECT_THROW(Program(tabled, ExecPolicy::kSequential),
                 std::invalid_argument);
  }
  EXPECT_NO_THROW(Program(list, ExecPolicy::kSequential));
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

core::PlannerOptions group_planner(int threads, idx_t nu) {
  core::PlannerOptions opt;
  opt.threads = threads;
  opt.cache_line_complex = 4;
  opt.vector_nu = nu;
  opt.verify_lowering = false;
  return opt;
}

bool bit_identical(const util::cvec& a, const util::cvec& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

// ---- The iteration schedule (backend/schedule) -------------------------

TEST(Schedule, RunsPartitionTheIterationsInOrder) {
  // For every task count and schedule: the runs of the T tasks partition
  // [0, iters), contiguous chunks are one run each, runs come in
  // ascending order, and task_of inverts the runs.
  for (const idx_t iters : {1, 3, 12, 64, 1000}) {
    for (const idx_t T : {1, 2, 3, 4, 6}) {
      for (const idx_t block : {0, 1, 3}) {
        SCOPED_TRACE("iters=" + std::to_string(iters) + " T=" +
                     std::to_string(T) + " block=" + std::to_string(block));
        Stage s;
        s.iters = iters;
        s.parallel_p = T == 1 ? 0 : T;
        s.sched_block = block;
        ASSERT_EQ(stage_tasks(s), T);
        std::vector<idx_t> owner(static_cast<std::size_t>(iters), -1);
        for (idx_t t = 0; t < T; ++t) {
          std::vector<idx_t> its;
          int runs = 0;
          for_each_run(s, t, T, [&](idx_t lo, idx_t hi) {
            ++runs;
            ASSERT_LT(lo, hi);
            ASSERT_TRUE(its.empty() || its.back() < lo);
            for (idx_t it = lo; it < hi; ++it) {
              ASSERT_EQ(owner[static_cast<std::size_t>(it)], -1) << it;
              owner[static_cast<std::size_t>(it)] = t;
              its.push_back(it);
            }
          });
          if (block == 0 || T == 1) {
            EXPECT_LE(runs, 1);
          }
        }
        for (idx_t it = 0; it < iters; ++it) {
          ASSERT_NE(owner[static_cast<std::size_t>(it)], -1) << it;
          EXPECT_EQ(task_of(s, T, it), owner[static_cast<std::size_t>(it)]);
        }
      }
    }
  }
}

TEST(Program, LargerTeamsRunTheVerifiedPartitionBitForBit) {
  // A p-way plan splits every stage into its p tasks on any team: on 3,
  // 6 and 8 participants the extra ones idle, and the output bytes equal
  // those of a team of p. 2^15 runs stage groups; the others flat steps.
  std::vector<std::unique_ptr<threading::ThreadPool>> teams;
  for (const int size : {3, 6, 8}) {
    teams.push_back(std::make_unique<threading::ThreadPool>(size));
  }
  for (const int lg : {8, 10, 15}) {
    const idx_t n = idx_t{1} << lg;
    util::Rng rng(static_cast<std::uint64_t>(50 + lg));
    const auto x = rng.complex_signal(n);
    for (const int p : {2, 4}) {
      threading::ThreadPool own(p);
      for (const idx_t nu : {idx_t{0}, idx_t{4}}) {
        SCOPED_TRACE("n=2^" + std::to_string(lg) + " p=" +
                     std::to_string(p) + " nu=" + std::to_string(nu));
        const auto plan = core::plan_dft(n, group_planner(p, nu));
        ASSERT_EQ(plan->stages().stages.front().parallel_p, p);
        util::cvec want(x.size()), y(x.size());
        {
          ExecContext ctx;
          ctx.set_pool(&own);
          plan->execute(ctx, x.data(), want.data());
        }
        for (const auto& team : teams) {
          ExecContext ctx;
          ctx.set_pool(team.get());
          plan->execute(ctx, x.data(), y.data());
          EXPECT_TRUE(bit_identical(y, want)) << "team of " << team->size();
        }
      }
    }
  }
}

// ---- Stage groups (backend/stage_group) -------------------------------

/// y = the program's stages applied one at a time, each a single-stage
/// Program (which never groups) with SIMD width nu.
util::cvec stage_by_stage(const StageList& list, idx_t nu,
                          const util::cvec& x) {
  ExecContext ctx;
  util::cvec a = x;
  util::cvec b(x.size());
  for (std::size_t k = list.stages.size(); k-- > 0;) {
    Program one(StageList{list.n, {list.stages[k]}}, ExecPolicy::kThreadPool);
    one.enable_simd(nu);
    one.execute(ctx, a.data(), b.data());
    std::swap(a, b);
  }
  return a;
}

TEST(StageGroups, Large4mPlanFormsTwoTwoStageGroups) {
  // The large-4m shape (n = 2^22, p = 4, nu = 4): each DFT_2048 = 32 x 64
  // half of formula (14) is two full-array stages, linked by the block
  // proof; the global transpose between the halves breaks the link.
  const auto list = lower_fused(
      core::planner_formula(idx_t{1} << 22, group_planner(4, 4)));
  ASSERT_EQ(list.stages.size(), 4u);
  const auto groups = find_stage_groups(list);
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, 0u);
  EXPECT_EQ(groups[0].count, 2u);
  EXPECT_EQ(groups[1].first, 2u);
  EXPECT_EQ(groups[1].count, 2u);
  EXPECT_EQ(kGroupBlock, 8192);
}

TEST(StageGroups, NoGroupOnBurst1kShape) {
  // n = 2^10 is below one block: the flat walk is unchanged.
  const auto plan = core::plan_dft(1024, group_planner(4, 4));
  EXPECT_TRUE(find_stage_groups(plan->stages()).empty());
}

TEST(StageGroups, RebasedSideIsABijectionOntoOneBlock) {
  const auto list = lower_fused(
      core::planner_formula(idx_t{1} << 16, group_planner(4, 4)));
  for (const Stage& s : list.stages) {
    for (const BitStrideMap* m : {&s.in_bits, &s.out_bits}) {
      const BitStrideMap r = rebase_to_block(*m);
      std::vector<char> seen(static_cast<std::size_t>(kGroupBlock), 0);
      for (idx_t k = 0; k < kGroupBlock; ++k) {
        const idx_t a = r.at(k);
        ASSERT_GE(a, 0);
        ASSERT_LT(a, kGroupBlock);
        ASSERT_FALSE(seen[static_cast<std::size_t>(a)]) << s.label;
        seen[static_cast<std::size_t>(a)] = 1;
        // Block bits do not move the rebased address.
        ASSERT_EQ(r.at(k + kGroupBlock), a);
      }
    }
  }
}

TEST(StageGroups, GroupedMatchesStageByStageBitForBit) {
  // Each element gets the same arithmetic in another order, so the
  // grouped walk reproduces the flat one exactly: out of place, in place
  // (x == y), and on a pool smaller than the plan's parallelism.
  for (const int lg : {15, 17, 20}) {
    const idx_t n = idx_t{1} << lg;
    util::Rng rng(static_cast<std::uint64_t>(lg));
    const auto x = rng.complex_signal(n);
    for (const int p : {1, 2, 4}) {
      for (const idx_t nu : {idx_t{0}, idx_t{4}}) {
        SCOPED_TRACE("n=2^" + std::to_string(lg) + " p=" +
                     std::to_string(p) + " nu=" + std::to_string(nu));
        const auto plan = core::plan_dft(n, group_planner(p, nu));
        const StageList& list = plan->stages();
        ASSERT_FALSE(find_stage_groups(list).empty());
        const util::cvec want = stage_by_stage(list, nu, x);
        ExecContext ctx;
        util::cvec y(x.size());
        plan->execute(ctx, x.data(), y.data());
        EXPECT_TRUE(bit_identical(y, want)) << "out of place";
        util::cvec z = x;
        plan->execute(ctx, z.data(), z.data());
        EXPECT_TRUE(bit_identical(z, want)) << "in place";
        if (p > 1) {
          threading::ThreadPool small(p / 2);
          ExecContext folded;
          folded.set_pool(&small);
          plan->execute(folded, x.data(), y.data());
          EXPECT_TRUE(bit_identical(y, want)) << "pool of " << p / 2;
        }
      }
    }
  }
}

TEST(StageGroups, SingleGroupProgramInPlace) {
  // A program that is one group reads x and writes y in the same step;
  // in place, the input must be staged through a copy first.
  const idx_t n = idx_t{1} << 15;
  const auto plan = core::plan_dft(n, group_planner(4, 4));
  const StageList& full = plan->stages();
  const auto groups = find_stage_groups(full);
  ASSERT_FALSE(groups.empty());
  const auto& g = groups.front();
  StageList part{n, {}};
  for (std::size_t m = g.count; m-- > 0;) {
    part.stages.push_back(full.stages[g.stage(m, full.stages.size())]);
  }
  ASSERT_EQ(find_stage_groups(part).size(), 1u);
  const Program prog(part, ExecPolicy::kThreadPool);
  util::Rng rng(31);
  const auto x = rng.complex_signal(n);
  const util::cvec want = stage_by_stage(part, 0, x);
  util::cvec z = x;
  ExecContext ctx;
  prog.execute(ctx, z.data(), z.data());
  EXPECT_TRUE(bit_identical(z, want));
}

TEST(StageGroups, ConcurrentContextsOnOneGroupedProgram) {
  // Two callers, two contexts, one grouped program: each context owns
  // its block scratch, so the results match a lone run exactly.
  const idx_t n = idx_t{1} << 15;
  const auto plan = core::plan_dft(n, group_planner(2, 4));
  ASSERT_FALSE(find_stage_groups(plan->stages()).empty());
  util::Rng rng(32);
  const auto x = rng.complex_signal(n);
  util::cvec want(x.size());
  plan->execute(x.data(), want.data());
  util::cvec ya(x.size()), yb(x.size());
  auto caller = [&](util::cvec* y) {
    ExecContext ctx;
    for (int rep = 0; rep < 4; ++rep) plan->execute(ctx, x.data(), y->data());
  };
  std::thread a(caller, &ya), b(caller, &yb);
  a.join();
  b.join();
  EXPECT_TRUE(bit_identical(ya, want));
  EXPECT_TRUE(bit_identical(yb, want));
}

TEST(StageGroups, MutantGroupingComputesWrongOutput) {
  // --mutate-group: grouping without the block proof runs blocks that
  // read what other blocks wrote, so execution must go wrong.
  const idx_t n = idx_t{1} << 16;
  util::Rng rng(33);
  const auto x = rng.complex_signal(n);
  const auto list = lower_fused(core::planner_formula(n, group_planner(4, 0)));
  const util::cvec want = stage_by_stage(list, 0, x);
  set_group_mutation(true);
  ASSERT_EQ(find_stage_groups(list).size(), 1u);
  const Program mutant(list, ExecPolicy::kThreadPool);
  set_group_mutation(false);
  ExecContext ctx;
  util::cvec y(x.size());
  mutant.execute(ctx, x.data(), y.data());
  EXPECT_FALSE(bit_identical(y, want));
  EXPECT_GT(max_diff(y, want), 1.0);
}

// ---- Context scratch (ExecContext) ------------------------------------

TEST(ContextScratch, StaleScratchNeverReachesTheOutput) {
  // Context scratch is never initialized, and growing it keeps no old
  // contents: a context that ran larger plans hands their leftovers to
  // the next plan. Every read of scratch follows a write of the same
  // position, so each output matches a fresh context's byte for byte.
  // The leftovers come from a grouped 2^19 plan (buf_[0] and the group
  // block scratch) and a flat 2^14 plan of four steps (buf_[1] too).
  util::Rng rng(41);
  const auto plan = [](int lg, int p) {
    return core::plan_dft(idx_t{1} << lg, group_planner(p, 4));
  };
  const auto p19 = plan(19, 4);
  const auto p14 = plan(14, 4);
  ASSERT_FALSE(find_stage_groups(p19->stages()).empty());
  ASSERT_TRUE(find_stage_groups(p14->stages()).empty());
  ASSERT_GT(p14->stages().stages.size(), 2u);
  const auto x19 = rng.complex_signal(idx_t{1} << 19);
  const auto x14 = rng.complex_signal(idx_t{1} << 14);
  util::cvec y19(x19.size()), y14(x14.size());
  ExecContext used;
  const auto dirty = [&] {
    p19->execute(used, x19.data(), y19.data());
    p14->execute(used, x14.data(), y14.data());
  };
  // `run(ctx, y)` writes the case's output into y.
  const auto check = [&](const char* what, std::size_t n, const auto& run) {
    SCOPED_TRACE(what);
    util::cvec want(n), got(n);
    {
      ExecContext fresh;
      run(fresh, want);
    }
    dirty();
    run(used, got);
    EXPECT_TRUE(bit_identical(got, want));
  };

  // 2^10 is two flat steps, 2^13 three (its middle step writes buf_[1]),
  // 2^16 two stage groups; 2^18 runs sequentially.
  const auto p10 = plan(10, 4);
  const auto p13 = plan(13, 4);
  const auto p16 = plan(16, 4);
  const auto p18 = plan(18, 1);
  ASSERT_EQ(p13->stages().stages.size(), 3u);
  ASSERT_TRUE(find_stage_groups(p13->stages()).empty());
  ASSERT_FALSE(find_stage_groups(p16->stages()).empty());
  const Program single(
      StageList{idx_t{1} << 16, {p16->stages().stages.back()}},
      ExecPolicy::kThreadPool);
  const auto x10 = rng.complex_signal(idx_t{1} << 10);
  const auto x13 = rng.complex_signal(idx_t{1} << 13);
  const auto x16 = rng.complex_signal(idx_t{1} << 16);
  const auto x18 = rng.complex_signal(idx_t{1} << 18);
  const auto out_of_place = [](const auto& plan, const util::cvec& x) {
    return [&plan, &x](ExecContext& ctx, util::cvec& y) {
      plan->execute(ctx, x.data(), y.data());
    };
  };
  // In place: the multi-step walk moves x out in its first step; a single
  // step copies x into buf_[0] first.
  const auto in_place = [](const auto& prog, const util::cvec& x) {
    return [&prog, &x](ExecContext& ctx, util::cvec& y) {
      y = x;
      prog.execute(ctx, y.data(), y.data());
    };
  };
  for (const bool after_reset : {false, true}) {
    SCOPED_TRACE(after_reset ? "after reset()" : "first use");
    if (after_reset) used.reset();
    check("2^10 p=4", x10.size(), out_of_place(p10, x10));
    check("2^13 p=4", x13.size(), out_of_place(p13, x13));
    check("2^16 p=4", x16.size(), out_of_place(p16, x16));
    check("2^18 p=1", x18.size(), out_of_place(p18, x18));
    check("2^13 p=4 in place", x13.size(), in_place(*p13, x13));
    check("2^16 p=4 in place", x16.size(), in_place(*p16, x16));
    check("single step in place", x16.size(), in_place(single, x16));
  }
}

// ---- Streamed group writes (StagePlan::stream_out) --------------------

TEST(StreamedWrites, AlignedAndOffsetOutputsAgreeBitForBit) {
  // At 2^20 (16 MiB, above the L2 of a team of 1 or 4) every group's last
  // member streams into a 64 B-aligned y. The same y one element off
  // takes the plain stores, and the stages run alone never stream: all
  // three agree bit for bit. nu = 8 runs the W = 8 stream.
  const idx_t lanes = simd::isa_width(simd::detect_isa());
  if (lanes < 4) GTEST_SKIP() << "no 4-lane vector ISA on this host";
  const idx_t n = idx_t{1} << 20;
  util::Rng rng(34);
  const auto x = rng.complex_signal(n);
  const std::pair<int, idx_t> shapes[] = {{1, 4}, {4, 4}, {1, 8}};
  for (const auto& [p, nu] : shapes) {
    if (nu > lanes) continue;
    SCOPED_TRACE("p=" + std::to_string(p) + " nu=" + std::to_string(nu));
    const auto plan = core::plan_dft(n, group_planner(p, nu));
    Program prog(plan->stages(), ExecPolicy::kThreadPool);
    prog.enable_simd(nu);
    ASSERT_EQ(prog.group_count(), 2u);
    for (std::size_t g = 0; g < prog.group_count(); ++g) {
      EXPECT_TRUE(prog.group_streams(g)) << "group " << g;
    }
    ExecContext ctx;
    util::cvec y(x.size());
    prog.execute(ctx, x.data(), y.data());
    util::cvec shifted(x.size() + 1);
    prog.execute(ctx, x.data(), shifted.data() + 1);
    const util::cvec off(shifted.begin() + 1, shifted.end());
    EXPECT_TRUE(bit_identical(y, off)) << "offset y";
    EXPECT_TRUE(bit_identical(y, stage_by_stage(plan->stages(), nu, x)))
        << "stages alone";
  }
}

TEST(StreamedWrites, NoStreamWithinTheTeamsL2) {
  // 2^16 (1 MiB) fits the L2 of one core and of four: the groups write
  // through the cache, and describe() names no streamed write.
  const auto plan = core::plan_dft(idx_t{1} << 16, group_planner(4, 4));
  Program prog(plan->stages(), ExecPolicy::kThreadPool);
  prog.enable_simd(4);
  ASSERT_EQ(prog.group_count(), 2u);
  for (std::size_t g = 0; g < prog.group_count(); ++g) {
    EXPECT_FALSE(prog.group_streams(g)) << "group " << g;
  }
  EXPECT_NE(plan->describe().find("group 1: execution stages 2-3\n"),
            std::string::npos)
      << plan->describe();
  EXPECT_EQ(plan->describe().find("streamed"), std::string::npos);
}

TEST(StreamedWrites, DescribeNamesTheStreamedGroups) {
  if (simd::isa_width(simd::detect_isa()) < 4) {
    GTEST_SKIP() << "no 4-lane vector ISA on this host";
  }
  const auto plan = core::plan_dft(idx_t{1} << 20, group_planner(4, 4));
  const std::string d = plan->describe();
  EXPECT_NE(d.find("group 0: execution stages 0-1, streamed final write\n"),
            std::string::npos)
      << d;
  EXPECT_NE(d.find("group 1: execution stages 2-3, streamed final write\n"),
            std::string::npos)
      << d;
}

// ---- Symbolic scales (StageScale) -------------------------------------

// A plan records only how lanes read a scale (simd::ScaleForm), so no
// stage plan or group plan can hold a copy of the values.
static_assert(std::is_trivially_copyable_v<simd::StagePlan>);

TEST(StageScales, CopiesShareOneValueBuffer) {
  const idx_t n = idx_t{1} << 16;
  StageList list = lower_fused(core::planner_formula(n, group_planner(4, 4)));
  std::vector<const double*> values;
  for (const Stage& s : list.stages) {
    for (const StageScale* sc : {&s.in_scale, &s.out_scale}) {
      values.push_back(sc->empty() ? nullptr : sc->factors()[0].re());
    }
  }
  ASSERT_NE(std::count(values.begin(), values.end(), nullptr),
            static_cast<std::ptrdiff_t>(values.size()));
  Program prog(std::move(list), ExecPolicy::kThreadPool);
  prog.enable_simd(4);
  ASSERT_FALSE(find_stage_groups(prog.stages()).empty());
  const StageList copy = prog.stages();
  std::size_t i = 0;
  for (std::size_t k = 0; k < copy.stages.size(); ++k) {
    // A single-stage program over a copy, as the per-stage probes build.
    const Program one(StageList{n, {copy.stages[k]}}, ExecPolicy::kThreadPool);
    for (const auto side : {&Stage::in_scale, &Stage::out_scale}) {
      const double* want = values[i++];
      for (const Stage* s : {&prog.stages().stages[k], &copy.stages[k],
                             &one.stages().stages[0]}) {
        EXPECT_EQ((s->*side).empty() ? nullptr
                                        : (s->*side).factors()[0].re(),
                  want)
            << s->label;
      }
    }
  }
}

/// A scale over 256 positions: position bit b moves the value index by
/// strides[b]; random values.
StageScale random_scale(std::vector<idx_t> strides, std::uint64_t seed) {
  idx_t count = 1;
  for (const idx_t st : strides) count += st;
  util::Rng rng(seed);
  const util::cvec v = rng.complex_signal(count);
  util::dvec re(v.size()), im(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) {
    re[i] = v[i].real();
    im[i] = v[i].imag();
  }
  return StageScale(std::move(re), std::move(im),
                    BitStrideMap(0, std::move(strides)));
}

/// y = a one-stage program of `s` on x, under `isa` at its full width.
util::cvec run_stage(const Stage& s, simd::Isa isa, const util::cvec& x,
                     simd::StagePlan* plan) {
  simd::set_isa_override(isa);
  Program prog(StageList{s.total_elems(), {s}}, ExecPolicy::kSequential);
  prog.enable_simd(8);
  simd::clear_isa_override();
  *plan = prog.stage_plans()[0];
  util::cvec y(x.size());
  prog.execute(x.data(), y.data());
  return y;
}

TEST(StageScales, LaneFormsMatchExpandedTables) {
  // Hand-built stages over 256 positions whose lanes are adjacent
  // iterations on both sides: DFT_4 (x) I_64 (element bits 0-1, lane
  // bits 2-4 at W = 8) and a cn = 1 copy (lane bits 0-2). Each scale
  // projects all, none or only some of the lane bits. On every ISA the
  // host has, scalar included, the stage must reproduce bit for bit the
  // same stage with its scales expanded to execution-order tables.
  Stage dft;
  dft.iters = 64;
  dft.cn = 4;
  dft.is_compute = true;
  dft.in_bits = BitStrideMap(0, {64, 128, 1, 2, 4, 8, 16, 32});
  dft.out_bits = dft.in_bits;
  Stage copy;
  copy.iters = 256;
  copy.in_bits = BitStrideMap(0, {1, 2, 4, 8, 16, 32, 64, 128});
  copy.out_bits = BitStrideMap(0, {1, 2, 4, 128, 64, 32, 16, 8});
  struct Case {
    const char* name;
    Stage stage;
    std::vector<idx_t> in, out;
    simd::ScaleForm form2, form8;  // expected lane form at W = 2 and W >= 4
  };
  using simd::ScaleForm;
  const std::vector<Case> cases = {
      {"dft all", dft, {64, 128, 1, 2, 4, 8, 16, 32},
       {64, 128, 1, 2, 4, 8, 16, 32}, ScaleForm::kContiguous,
       ScaleForm::kContiguous},
      {"dft none", dft, {1, 2, 0, 0, 0, 4, 8, 0}, {0, 1, 0, 0, 0, 0, 2, 4},
       ScaleForm::kBroadcast, ScaleForm::kBroadcast},
      {"dft some", dft, {1, 2, 0, 4, 0, 0, 8, 0}, {1, 0, 0, 2, 4, 0, 0, 0},
       ScaleForm::kBroadcast, ScaleForm::kGather},
      {"copy all", copy, {1, 2, 4, 8, 16, 32, 64, 128}, {},
       ScaleForm::kContiguous, ScaleForm::kContiguous},
      {"copy none", copy, {0, 0, 0, 1, 2, 0, 4, 8}, {},
       ScaleForm::kBroadcast, ScaleForm::kBroadcast},
      {"copy some", copy, {0, 1, 0, 2, 0, 4, 0, 0}, {},
       ScaleForm::kBroadcast, ScaleForm::kGather},
  };
  const bool host_simd = simd::detect_isa() != simd::Isa::kScalar;
  util::Rng rng(40);
  const auto x = rng.complex_signal(256);
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    Stage s = c.stage;
    s.in_scale = random_scale(c.in, 41);
    if (!c.out.empty()) s.out_scale = random_scale(c.out, 42);
    Stage table = s;
    table.in_scale = StageScale(s.in_scale.expand());
    table.out_scale = StageScale(s.out_scale.expand());
    for (const simd::Isa isa :
         {simd::Isa::kScalar, simd::Isa::kVec128, simd::Isa::kAvx2,
          simd::Isa::kAvx512}) {
      SCOPED_TRACE(simd::to_string(isa));
      simd::StagePlan plan, table_plan;
      const util::cvec want = run_stage(table, isa, x, &table_plan);
      const util::cvec y = run_stage(s, isa, x, &plan);
      EXPECT_TRUE(bit_identical(y, want));
      ASSERT_EQ(plan.width, table_plan.width);
      EXPECT_EQ(plan.width > 1, host_simd && isa != simd::Isa::kScalar);
      // One lane reads every scale as a broadcast.
      const ScaleForm form = plan.width == 1   ? ScaleForm::kBroadcast
                             : plan.width == 2 ? c.form2
                                               : c.form8;
      EXPECT_EQ(plan.in_scale[0], form) << "W=" << plan.width;
      EXPECT_EQ(plan.out_scale[0], c.out.empty() ? ScaleForm::kNone : form);
    }
  }
}

TEST(StageScales, FactoredScalesMatchExpandedTables) {
  // A scale of two factors multiplies the pack by their product, rounded
  // as StageScale::at rounds it: on every ISA the host has, scalar
  // included, the stage reproduces bit for bit the same stage with the
  // scale expanded to one execution-order table. Each factor records its
  // own lane form. Same DFT_4 (x) I_64 stage as above.
  Stage s;
  s.iters = 64;
  s.cn = 4;
  s.is_compute = true;
  s.in_bits = BitStrideMap(0, {64, 128, 1, 2, 4, 8, 16, 32});
  s.out_bits = s.in_bits;
  using simd::ScaleForm;
  auto two = [](std::vector<idx_t> a, std::vector<idx_t> b) {
    return StageScale({random_scale(std::move(a), 43).factors()[0],
                       random_scale(std::move(b), 44).factors()[0]});
  };
  s.in_scale = two({64, 128, 1, 2, 4, 8, 16, 32}, {1, 2, 0, 0, 0, 4, 8, 0});
  s.out_scale = two({1, 2, 0, 0, 0, 4, 8, 0}, {1, 2, 0, 4, 0, 0, 8, 0});
  ASSERT_EQ(s.in_scale.size(), 256U + 16U);
  Stage table = s;
  table.in_scale = StageScale(s.in_scale.expand());
  table.out_scale = StageScale(s.out_scale.expand());
  for (idx_t k = 0; k < 256; ++k) {
    const auto& f = s.in_scale.factors();
    const cplx want = scale_product(f[0].at(k), f[1].at(k));
    ASSERT_EQ(s.in_scale.at(k), want);
  }
  const bool host_simd = simd::detect_isa() != simd::Isa::kScalar;
  util::Rng rng(45);
  const auto x = rng.complex_signal(256);
  for (const simd::Isa isa :
       {simd::Isa::kScalar, simd::Isa::kVec128, simd::Isa::kAvx2,
        simd::Isa::kAvx512}) {
    SCOPED_TRACE(simd::to_string(isa));
    simd::StagePlan plan, table_plan;
    const util::cvec want = run_stage(table, isa, x, &table_plan);
    const util::cvec y = run_stage(s, isa, x, &plan);
    EXPECT_TRUE(bit_identical(y, want));
    EXPECT_EQ(plan.width > 1, host_simd && isa != simd::Isa::kScalar);
    if (plan.width == 1) continue;
    const ScaleForm some =
        plan.width == 2 ? ScaleForm::kBroadcast : ScaleForm::kGather;
    EXPECT_EQ(plan.in_scale[0], ScaleForm::kContiguous);
    EXPECT_EQ(plan.in_scale[1], ScaleForm::kBroadcast);
    EXPECT_EQ(plan.out_scale[0], ScaleForm::kBroadcast);
    EXPECT_EQ(plan.out_scale[1], some);
  }
}

TEST(StageScales, Large4mFactorsReadAsBroadcastOrContiguous) {
  // The 2^22 p = 4 nu = 4 plan's factored diagonal: the j split keeps
  // the lane bits in one factor, so no factor's lanes need a gather. (A
  // group member's rebased plan carries its stage plan's scale forms:
  // scales are read by global position.)
  StageList list =
      lower_fused(core::planner_formula(idx_t{1} << 22, group_planner(4, 4)));
  Program prog(std::move(list), ExecPolicy::kThreadPool);
  prog.enable_simd(4);
  if (!prog.simd_active()) GTEST_SKIP() << "no SIMD on this host";
  int factored = 0;
  for (std::size_t k = 0; k < prog.stages().stages.size(); ++k) {
    const Stage& s = prog.stages().stages[k];
    const simd::StagePlan& plan = prog.stage_plans()[k];
    if (s.in_scale.factors().size() < 2) continue;
    ++factored;
    ASSERT_GT(plan.width, 1) << s.label;
    for (std::size_t f = 0; f < s.in_scale.factors().size(); ++f) {
      EXPECT_TRUE(plan.in_scale[f] == simd::ScaleForm::kBroadcast ||
                  plan.in_scale[f] == simd::ScaleForm::kContiguous)
          << s.label << " factor " << f;
    }
  }
  EXPECT_EQ(factored, 1);
}

}  // namespace
}  // namespace spiral::backend
