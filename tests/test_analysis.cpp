// Tests for the static verifier over the lowered Stage IR
// (src/analysis/): clean verdicts for everything the planner produces,
// exact diagnostics for deliberately corrupted programs, and
// cross-validation of the static verdicts against real execution.
#include <gtest/gtest.h>

#include <limits>

#include "analysis/verify.hpp"
#include "backend/lower.hpp"
#include "backend/stage_group.hpp"
#include "baselines/fftw_like.hpp"
#include "core/spiral_fft.hpp"
#include "test_helpers.hpp"

namespace spiral {
namespace {

using analysis::Diag;
using analysis::Options;
using analysis::Report;
using backend::Stage;
using backend::StageList;

bool has_kind(const Report& r, Diag kind) {
  for (const auto& f : r.findings) {
    if (f.kind == kind) return true;
  }
  return false;
}

/// Planner program for (n, p) without the plan-time hook (the tests call
/// the verifier explicitly, on good and corrupted copies).
StageList planner_program(idx_t n, int p, idx_t nu = 0) {
  core::PlannerOptions opt;
  opt.threads = p;
  opt.vector_nu = nu;
  opt.verify_lowering = false;
  return backend::lower_fused(core::planner_formula(n, opt));
}

/// Index of the first parallel stage, or -1.
int first_parallel_stage(const StageList& list) {
  for (std::size_t i = 0; i < list.stages.size(); ++i) {
    if (list.stages[i].parallel_p > 1) return static_cast<int>(i);
  }
  return -1;
}

/// Tabulates the index maps of a lowered stage so the negative tests can
/// corrupt individual entries (a table takes precedence over the map).
void materialize(Stage& s) {
  const auto esz = static_cast<std::size_t>(s.iters * s.cn);
  s.in_map.resize(esz);
  s.out_map.resize(esz);
  for (std::size_t k = 0; k < esz; ++k) {
    const auto pos = static_cast<idx_t>(k);
    s.in_map[k] = static_cast<std::int32_t>(s.in_bits.at(pos));
    s.out_map[k] = static_cast<std::int32_t>(s.out_bits.at(pos));
  }
}

// ---------------------------------------------------------------------------
// Positive path: everything the planner produces verifies clean.

TEST(AnalysisClean, DefaultPlannerSweep) {
  // Acceptance sweep: sizes 2^4..2^16, p in {2,4,8}. Sizes without an
  // admissible multicore split fall back to sequential generation — those
  // must be clean too.
  for (int k = 4; k <= 16; k += 2) {
    for (int p : {2, 4, 8}) {
      const idx_t n = idx_t{1} << k;
      const Report rep = analysis::verify(planner_program(n, p));
      EXPECT_TRUE(rep.clean()) << "n=2^" << k << " p=" << p << "\n"
                               << rep.to_string();
    }
  }
}

TEST(AnalysisClean, ParallelPlansActuallyParallel) {
  // Guard against the sweep passing vacuously: the admissible sizes must
  // contain parallel stages.
  const StageList list = planner_program(1 << 12, 4);
  EXPECT_GE(first_parallel_stage(list), 0);
}

TEST(AnalysisClean, OtherTransforms) {
  core::PlannerOptions opt;
  opt.threads = 4;
  opt.verify_lowering = false;
  EXPECT_TRUE(analysis::verify(core::plan_wht(1 << 10, opt)->stages()).clean());
  EXPECT_TRUE(
      analysis::verify(core::plan_dft_2d(64, 64, opt)->stages()).clean());
  EXPECT_TRUE(
      analysis::verify(core::plan_batch_dft(256, 8, opt)->stages()).clean());
}

TEST(AnalysisClean, VectorizedPlans) {
  const Report rep = analysis::verify(planner_program(1 << 12, 4, /*nu=*/2));
  EXPECT_TRUE(rep.clean()) << rep.to_string();
}

// ---------------------------------------------------------------------------
// Negative path: mutate good programs, assert the exact diagnostic kind.

TEST(AnalysisNegative, BlockCyclicScheduleIsFalseSharing) {
  StageList list = planner_program(1 << 12, 4);
  ASSERT_GE(first_parallel_stage(list), 0);
  // The FFTW-3.1-style schedule the paper warns about: iteration blocks
  // of 1, ignoring the cache line length mu. (Only stages whose writes
  // are line-contiguous actually share lines under it — scatter stages
  // stay private by accident — so inject it everywhere, as FFTW does.)
  for (auto& s : list.stages) {
    if (s.parallel_p > 1) s.sched_block = 1;
  }
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kFalseSharing)) << rep.to_string();
  EXPECT_GT(rep.total(Diag::kFalseSharing), 0);
  // A bad schedule is a performance-guarantee violation, not a
  // correctness error: the verdict is a warning, results stay right.
  EXPECT_TRUE(rep.ok());
  EXPECT_FALSE(rep.clean());

  // The FFTW-like baseline's own plan under that schedule (claim C3):
  // parallelizing DFT_m (x) I_n by handing consecutive iterations to
  // different threads makes neighbouring writes share cache lines.
  baselines::FftwLikeOptions fo;
  fo.threads = 2;
  fo.min_parallel_n = 2;
  fo.sched_block = 1;
  const Report fftw = analysis::verify(baselines::fftw_like_plan(1 << 10, fo));
  EXPECT_GT(fftw.total(Diag::kFalseSharing), 0) << fftw.to_string();
  EXPECT_TRUE(fftw.ok());
}

TEST(AnalysisNegative, OutMapSwapAcrossThreads) {
  StageList list = planner_program(1 << 12, 4);
  const int si = first_parallel_stage(list);
  ASSERT_GE(si, 0);
  Stage& s = list.stages[static_cast<std::size_t>(si)];
  materialize(s);
  // Swap one write target of thread 0 with one of the last thread: both
  // threads now write into a cache line owned by the other — the
  // line-granular race (false sharing) of a corrupted schedule/map.
  const std::size_t a = 0;
  const std::size_t b = s.out_map.size() - 1;
  std::swap(s.out_map[a], s.out_map[b]);
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kFalseSharing)) << rep.to_string();
}

TEST(AnalysisNegative, OutMapDuplicateIsWriteWriteRace) {
  StageList list = planner_program(1 << 12, 4);
  const int si = first_parallel_stage(list);
  ASSERT_GE(si, 0);
  Stage& s = list.stages[static_cast<std::size_t>(si)];
  materialize(s);
  // Two threads now write the same element; the overwritten target is
  // never written at all.
  s.out_map[0] = s.out_map[s.out_map.size() - 1];
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kRaceWriteWrite)) << rep.to_string();
  EXPECT_TRUE(has_kind(rep, Diag::kLostElement)) << rep.to_string();
  EXPECT_FALSE(rep.ok());
}

TEST(AnalysisNegative, DuplicateWithinOneThreadIsDuplicateWrite) {
  StageList list = planner_program(1 << 12, 4);
  const int si = first_parallel_stage(list);
  ASSERT_GE(si, 0);
  Stage& s = list.stages[static_cast<std::size_t>(si)];
  materialize(s);
  // Both entries live in iteration 0 -> same thread: not a race, but
  // out_map is no longer injective.
  ASSERT_GE(s.cn, 2);
  s.out_map[0] = s.out_map[1];
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kDuplicateWrite)) << rep.to_string();
  EXPECT_FALSE(has_kind(rep, Diag::kRaceWriteWrite)) << rep.to_string();
}

TEST(AnalysisNegative, TruncatedScaleVector) {
  StageList list = planner_program(1 << 12, 4);
  int si = -1;
  for (std::size_t i = 0; i < list.stages.size(); ++i) {
    if (!list.stages[i].in_scale.empty()) si = static_cast<int>(i);
  }
  ASSERT_GE(si, 0) << "expected a fused twiddle diagonal somewhere";
  // A table three positions short of the stage.
  auto& scale = list.stages[static_cast<std::size_t>(si)].in_scale;
  util::cvec table = scale.expand();
  table.resize(table.size() - 3);
  scale = backend::StageScale(table);
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kScaleSizeMismatch)) << rep.to_string();
  EXPECT_FALSE(rep.ok());
}

TEST(AnalysisNegative, OutOfBoundsIndices) {
  StageList list = planner_program(1 << 10, 2);
  Stage& s = list.stages.front();
  materialize(s);
  s.in_map[3] = -1;
  s.out_map[5] = static_cast<std::int32_t>(list.n + 7);
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kIndexOutOfBounds)) << rep.to_string();
  EXPECT_GE(rep.error_count(), 2u);  // one finding per map
}

TEST(AnalysisNegative, MapSizeMismatch) {
  StageList list = planner_program(1 << 10, 2);
  materialize(list.stages.front());
  list.stages.front().in_map.pop_back();
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kMapSizeMismatch)) << rep.to_string();
}

TEST(AnalysisNegative, AffineOutOfBounds) {
  // Hand-built affine copy stage whose output stride walks past the end
  // of the buffer: the verifier must evaluate the bit-stride maps, not
  // just the (absent) tables.
  StageList list;
  list.n = 16;
  Stage s;
  s.label = "affine-oob";
  s.iters = 16;
  s.cn = 1;
  s.parallel_p = 1;
  s.in_bits = backend::BitStrideMap(0, {1, 2, 4, 8});
  // Writes 0,2,..,30: the top half is out of bounds.
  s.out_bits = backend::BitStrideMap(0, {2, 4, 8, 16});
  s.in_affine = s.out_affine = true;
  list.stages.push_back(s);
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kIndexOutOfBounds)) << rep.to_string();
  EXPECT_TRUE(has_kind(rep, Diag::kLostElement)) << rep.to_string();
  EXPECT_FALSE(rep.ok());
}

TEST(AnalysisNegative, AffineWriteWriteRace) {
  // Affine output with iter_stride 0 in a parallel stage: every thread
  // scatters onto the same elements.
  StageList list;
  list.n = 16;
  Stage s;
  s.label = "affine-race";
  s.iters = 4;
  s.cn = 4;
  s.is_compute = true;
  s.parallel_p = 4;
  s.in_bits = backend::BitStrideMap(0, {1, 2, 4, 8});
  // All iterations write elements [0, 4).
  s.out_bits = backend::BitStrideMap(0, {1, 2, 0, 0});
  s.in_affine = s.out_affine = true;
  list.stages.push_back(s);
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kRaceWriteWrite)) << rep.to_string();
  EXPECT_TRUE(has_kind(rep, Diag::kLostElement)) << rep.to_string();
  EXPECT_FALSE(rep.ok());
}

TEST(AnalysisNegative, DegenerateScheduleIsLoadImbalance) {
  StageList list = planner_program(1 << 12, 4);
  const int si = first_parallel_stage(list);
  ASSERT_GE(si, 0);
  Stage& s = list.stages[static_cast<std::size_t>(si)];
  // Block-cyclic with block == iters: thread 0 executes everything,
  // threads 1..p-1 idle.
  s.sched_block = s.iters;
  const Report rep = analysis::verify(list);
  EXPECT_TRUE(has_kind(rep, Diag::kLoadImbalance)) << rep.to_string();
}

TEST(AnalysisNegative, InPlaceAliasingReadWriteRace) {
  // A parallel reversal permutation: thread 0 writes [0, n/2) while
  // reading [n/2, n) — race-free out of place, a read/write race when the
  // ping-pong buffers alias (in-place execution without a staging copy).
  StageList list;
  list.n = 16;
  Stage s;
  s.iters = 16;
  s.cn = 1;
  s.parallel_p = 2;
  s.in_map.resize(16);
  s.out_map.resize(16);
  for (std::int32_t i = 0; i < 16; ++i) {
    s.out_map[static_cast<std::size_t>(i)] = i;
    s.in_map[static_cast<std::size_t>(i)] = 15 - i;
  }
  s.label = "reversal";
  list.stages.push_back(std::move(s));

  EXPECT_TRUE(analysis::verify(list).clean());
  Options aliased;
  aliased.inplace_aliasing = true;
  const Report rep = analysis::verify(list, aliased);
  EXPECT_TRUE(has_kind(rep, Diag::kRaceReadWrite)) << rep.to_string();
}

TEST(AnalysisNegative, IndexOverflowRule) {
  StageList list;
  list.n = backend::kMaxIndexableElems + 1;
  list.stages.emplace_back();  // maps never even inspected
  const Report rep = analysis::verify(list);
  ASSERT_EQ(rep.findings.size(), 1u);
  EXPECT_EQ(rep.findings[0].kind, Diag::kIndexOverflow);
  EXPECT_EQ(rep.findings[0].severity, analysis::Severity::kError);
}

TEST(AnalysisGroups, ProvenGroupsVerifyClean) {
  // n = 2^16 forms two groups at p = 1 and p = 4; their blocks are
  // closed, entry by entry.
  for (const int p : {1, 4}) {
    const StageList list = planner_program(65536, p, 4);
    ASSERT_EQ(backend::find_stage_groups(list).size(), 2u);
    const Report rep = analysis::verify(list);
    EXPECT_FALSE(has_kind(rep, Diag::kGroupLeak)) << rep.to_string();
    EXPECT_TRUE(rep.clean()) << rep.to_string();
  }
}

TEST(AnalysisGroups, UnprovenGroupingIsGroupLeak) {
  // The --mutate-group finder skips the stride check: the verifier's
  // entry-by-entry recomputation must catch the leaking blocks.
  const StageList list = planner_program(65536, 4, 4);
  backend::set_group_mutation(true);
  const Report rep = analysis::verify(list);
  backend::set_group_mutation(false);
  EXPECT_TRUE(has_kind(rep, Diag::kGroupLeak)) << rep.to_string();
  EXPECT_GT(rep.total(Diag::kGroupLeak), 0);
  EXPECT_FALSE(rep.ok());
}

// ---------------------------------------------------------------------------
// The checked int32 narrowing in the lowerer.

TEST(CheckedIndex, AcceptsRepresentableRange) {
  EXPECT_EQ(backend::checked_index(0), 0);
  EXPECT_EQ(backend::checked_index(5), 5);
  EXPECT_EQ(backend::checked_index(backend::kMaxIndexableElems - 1),
            std::numeric_limits<std::int32_t>::max());
}

TEST(CheckedIndex, RejectsWrappingValues) {
  EXPECT_THROW(backend::checked_index(backend::kMaxIndexableElems),
               std::overflow_error);
  EXPECT_THROW(backend::checked_index(idx_t{1} << 40), std::overflow_error);
  EXPECT_THROW(backend::checked_index(-1), std::overflow_error);
}

TEST(CheckedIndex, LowerRejectsUnaddressableTransform) {
  // 2^32 elements would wrap the int32 maps; lower() must fail loudly
  // before allocating anything, not emit a corrupted program.
  EXPECT_THROW(backend::lower(spl::I(idx_t{1} << 32)), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Execution-safety subset (the suite-wide test_helpers hook).

TEST(ExecutionSafety, ToleratesFalseSharingByDesign) {
  // The FFTW-like baseline block-cyclic schedule false-shares on purpose;
  // it must still pass the races+bounds subset the suite hook enforces.
  baselines::FftwLikeOptions fo;
  fo.threads = 2;
  fo.min_parallel_n = 2;
  fo.sched_block = 1;
  const StageList list = baselines::fftw_like_plan(1 << 12, fo);
  const Report safety =
      analysis::verify(list, Options::execution_safety());
  EXPECT_TRUE(safety.ok()) << safety.to_string();
  // ... while the full contract correctly reports the line ping-pong.
  Options full;
  const Report rep = analysis::verify(list, full);
  EXPECT_TRUE(has_kind(rep, Diag::kFalseSharing)) << rep.to_string();
}

// ---------------------------------------------------------------------------
// Cross-validation: static verdicts vs. real execution.

TEST(CrossValidation, RaceFreeProgramsExecuteCorrectly) {
  const idx_t n = 1 << 10;
  core::PlannerOptions opt;
  opt.threads = 4;
  opt.verify_lowering = true;  // plan-time hook on explicitly
  const auto plan = core::plan_dft(n, opt);
  EXPECT_TRUE(analysis::verify(plan->stages()).clean());

  util::cvec x(static_cast<std::size_t>(n)), y(x.size());
  util::Rng rng(7);
  for (auto& v : x) v = {rng.uniform(-1, 1), rng.uniform(-1, 1)};
  plan->execute(x.data(), y.data());
  const auto ref = testing::reference_dft(x);
  EXPECT_LT(testing::max_diff(y, ref), testing::fft_tolerance(n));
}

// ---------------------------------------------------------------------------
// The plan-time hook (PlannerOptions::verify_lowering).

TEST(VerifyLoweringHook, CorruptedProgramThrowsAtPlanTime) {
  const idx_t n = 1 << 12;
  core::PlannerOptions opt;
  opt.threads = 4;
  opt.verify_lowering = false;
  StageList corrupted = planner_program(n, 4);
  const int si = first_parallel_stage(corrupted);
  ASSERT_GE(si, 0);
  auto& s = corrupted.stages[static_cast<std::size_t>(si)];
  // The top position bit (the one the threads split) takes the lowest
  // bit's stride: threads write each other's elements. The corruption
  // stays in the map, which Program executes; it rejects tables.
  std::vector<idx_t> st = s.out_bits.strides();
  ASSERT_GE(st.size(), 2u);
  st.back() = st.front();
  s.out_bits = backend::BitStrideMap(s.out_bits.base(), std::move(st),
                                     s.out_bits.outer_count(),
                                     s.out_bits.outer_stride());

  auto formula = core::planner_formula(n, opt);
  StageList copy = corrupted;
  opt.verify_lowering = true;
  EXPECT_THROW(
      core::FftPlan(formula, std::move(copy), opt),
      std::logic_error);
  opt.verify_lowering = false;
  EXPECT_NO_THROW(core::FftPlan(formula, std::move(corrupted), opt));
}

TEST(VerifyLoweringHook, DefaultPlannerPlansPassWithHookOn) {
  core::PlannerOptions opt;
  opt.threads = 4;
  opt.verify_lowering = true;
  EXPECT_NO_THROW(core::plan_dft(1 << 12, opt));
  EXPECT_NO_THROW(core::plan_wht(1 << 10, opt));
  EXPECT_NO_THROW(core::plan_dft_2d(32, 32, opt));
  EXPECT_NO_THROW(core::plan_batch_dft(128, 4, opt));
}

}  // namespace
}  // namespace spiral
