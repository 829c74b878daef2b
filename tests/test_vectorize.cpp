// Tests for the vectorizability analysis: the paper's claim that formula
// (14) provides alignment guarantees enabling SIMD ("in tandem with the
// short vector Cooley-Tukey FFT"), made executable on the kernel IR.
#include <gtest/gtest.h>

#include "backend/lower.hpp"
#include "backend/vectorize.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "test_helpers.hpp"

namespace spiral::backend {
namespace {

StageList multicore_program(idx_t n, idx_t p, idx_t mu) {
  auto f = rewrite::derive_multicore_ct(
      n, idx_t{1} << (util::log2_exact(n) / 2), p, mu);
  return lower_fused(rewrite::expand_dfts_balanced(f));
}

TEST(Vectorize, TensorWithIdentityRightIsAcrossIterations) {
  // DFT_8 (x) I_16: iterations are the 16 interleaved columns.
  auto list = lower(spl::Builder::tensor(spl::DFT(8), spl::I(16)));
  ASSERT_EQ(list.stages.size(), 1u);
  const auto vi = stage_vector_info(list.stages[0], 4);
  EXPECT_EQ(vi.form, VecForm::kAcrossIterations);
  EXPECT_EQ(vi.width, 4);
}

TEST(Vectorize, TensorWithIdentityLeftIsWithinCodelet) {
  // I_16 (x) DFT_8: each codelet reads 8 contiguous elements.
  auto list = lower(spl::Builder::tensor(spl::I(16), spl::DFT(8)));
  ASSERT_EQ(list.stages.size(), 1u);
  const auto vi = stage_vector_info(list.stages[0], 4);
  EXPECT_NE(vi.form, VecForm::kNone);
  EXPECT_EQ(vi.width, 4);
}

TEST(Vectorize, StridePermBreaksContiguity) {
  // A raw odd-stride gather is not vectorizable.
  auto list = lower(spl::L(64, 8));
  ASSERT_EQ(list.stages.size(), 1u);
  // L^64_8 moves aligned 8-blocks? stride-8 gather: y[i*8+j]=x[j*8+i]:
  // output contiguous, input stride 8 -> across-iterations on neither.
  const auto vi = stage_vector_info(list.stages[0], 4);
  // cn == 1 here: across_iterations needs map[it+v] == map[it]+v, which a
  // transposition violates.
  EXPECT_EQ(vi.form, VecForm::kNone);
}

TEST(Vectorize, MulticoreFormulaIsFullyVectorizableAtMu) {
  // The alignment guarantee of (14): when DFT_m and DFT_n are codelet
  // leaves, every stage of the lowered formula is mu-vectorizable — the
  // per-processor blocks start/end on cache-line (= vector) boundaries.
  // (Making the *inner expansions* of larger DFT_m vector-shaped is the
  // job of the short vector Cooley-Tukey rewriting of [10, 13], which the
  // paper composes with; not reimplemented here.)
  for (auto [n, p, mu] : std::vector<std::array<idx_t, 3>>{
           {1 << 10, 2, 2}, {1 << 10, 2, 4}, {1 << 9, 4, 2},
           {1 << 10, 4, 4}}) {
    auto prog = multicore_program(n, p, mu);
    EXPECT_TRUE(fully_vectorizable(prog, mu))
        << "n=" << n << " p=" << p << " mu=" << mu << "\n"
        << prog.summary();
  }
}

TEST(Vectorize, ExpandedProgramsKeepVectorizableBoundaryStages) {
  // For sizes whose inner DFTs must be expanded, the stages fused with
  // the mu-granular boundary permutations of (14) stay vectorizable;
  // inner-recursion stages may not (they await the short-vector rules).
  auto prog = multicore_program(1 << 14, 2, 4);
  const auto info = program_vector_info(prog, 4);
  int vectorizable = 0;
  for (const auto& vi : info) vectorizable += vi.width >= 4;
  EXPECT_GE(vectorizable, 1) << prog.summary();
}

TEST(Vectorize, ReportsPerStageInfo) {
  auto prog = multicore_program(1 << 10, 2, 4);
  const auto info = program_vector_info(prog, 4);
  ASSERT_EQ(info.size(), prog.stages.size());
  for (const auto& vi : info) {
    EXPECT_GE(vi.width, 4);
    EXPECT_NE(vi.form, VecForm::kNone);
  }
}

TEST(Vectorize, Radix2ProgramIsNotFullyVectorizable) {
  // The textbook all-radix-2 expansion interleaves at stride 1 through
  // fused bit-reversal-like permutations; some stage loses alignment.
  auto f = rewrite::formula_from_ruletree(
      rewrite::default_ruletree(1 << 8, 2));
  auto prog = lower_fused(f);
  EXPECT_FALSE(fully_vectorizable(prog, 4)) << prog.summary();
}

TEST(Vectorize, WidthNeverExceedsRequested) {
  auto prog = multicore_program(1 << 10, 2, 4);
  for (const auto& vi : program_vector_info(prog, 2)) {
    EXPECT_LE(vi.width, 2);
  }
}

}  // namespace
}  // namespace spiral::backend
