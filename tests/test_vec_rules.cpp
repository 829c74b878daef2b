// Tests for the short-vector rewriting rules and their composition with
// the shared-memory rules ("in tandem", paper Section 3.2).
#include <gtest/gtest.h>

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "backend/vectorize.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "rewrite/vec_rules.hpp"
#include "spl/printer.hpp"
#include "spl/properties.hpp"
#include "test_helpers.hpp"

namespace spiral::rewrite {
namespace {

using spiral::testing::expect_same_matrix;
using spl::Builder;
using spl::DFT;
using spl::I;
using spl::Kind;
using spl::L;

TEST(VecConstructs, VecTensorDenseIsKroneckerWithIdentity) {
  expect_same_matrix(Builder::vec_tensor(DFT(4), 2),
                     Builder::tensor(DFT(4), I(2)));
}

TEST(VecConstructs, VecShuffleDenseIsBlockTransposes) {
  expect_same_matrix(Builder::vec_shuffle(3, 2),
                     Builder::tensor(I(3), L(4, 2)));
  expect_same_matrix(Builder::vec_shuffle(1, 4), L(16, 4));
}

TEST(VecConstructs, VecTagIsTransparent) {
  expect_same_matrix(Builder::vec(2, DFT(8)), DFT(8));
}

TEST(VecRules, StridePermIdentityI) {
  // L^{m nu}_m = (I_{m/nu} (x) L^{nu^2}_nu)(L^m_{m/nu} (x) I_nu).
  for (auto [m, nu] : std::vector<std::pair<idx_t, idx_t>>{
           {4, 2}, {8, 2}, {8, 4}, {16, 4}}) {
    auto rhs = Builder::compose({
        Builder::tensor(I(m / nu), L(nu * nu, nu)),
        Builder::tensor(L(m, m / nu), I(nu)),
    });
    expect_same_matrix(L(m * nu, m), rhs);
  }
}

TEST(VecRules, StridePermIdentityII) {
  // L^{n nu}_nu = (L^n_nu (x) I_nu)(I_{n/nu} (x) L^{nu^2}_nu).
  for (auto [n, nu] : std::vector<std::pair<idx_t, idx_t>>{
           {4, 2}, {8, 2}, {8, 4}, {16, 4}}) {
    auto rhs = Builder::compose({
        Builder::tensor(L(n, nu), I(nu)),
        Builder::tensor(I(n / nu), L(nu * nu, nu)),
    });
    expect_same_matrix(L(n * nu, nu), rhs);
  }
}

TEST(VecRules, VectorizeStridePermReachesTerminals) {
  for (auto [mn, m, nu] : std::vector<std::array<idx_t, 3>>{
           {64, 8, 2}, {64, 8, 4}, {256, 16, 4}, {64, 16, 2}}) {
    auto g = vectorize(L(mn, m), nu);
    EXPECT_FALSE(spl::has_vec_tag(g)) << spl::to_string(g);
    EXPECT_TRUE(is_fully_vectorized(g, nu)) << spl::to_string(g);
    expect_same_matrix(g, L(mn, m));
  }
}

TEST(VecRules, VectorizeDftIsCorrectAndFullyVectorized) {
  for (auto [n, nu] : std::vector<std::pair<idx_t, idx_t>>{
           {16, 2}, {64, 2}, {64, 4}, {256, 4}}) {
    auto g = vectorize(DFT(n), nu);
    EXPECT_FALSE(spl::has_vec_tag(g)) << spl::to_string(g);
    EXPECT_TRUE(is_fully_vectorized(g, nu)) << spl::to_string(g);
    expect_same_matrix(g, DFT(n));
  }
}

TEST(VecRules, VectorizeWht) {
  auto g = vectorize(spl::WHT(64), 4);
  EXPECT_FALSE(spl::has_vec_tag(g));
  EXPECT_TRUE(is_fully_vectorized(g, 4));
  expect_same_matrix(g, spl::WHT(64));
}

TEST(VecRules, ResidualTagWhenPreconditionsFail) {
  // nu = 4 cannot vectorize DFT_8 (no split with 4 | m and 4 | n).
  auto g = vectorize(DFT(8), 4);
  EXPECT_TRUE(spl::has_vec_tag(g));
}

TEST(VecRules, TraceShowsRuleApplications) {
  Trace trace;
  (void)vectorize(DFT(64), 2, &trace);
  ASSERT_FALSE(trace.empty());
  auto used = [&](const std::string& name) {
    for (const auto& e : trace) {
      if (e.rule_name == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(used("vec-8-dft-breakdown"));
  EXPECT_TRUE(used("vec-1-compose"));
  EXPECT_TRUE(used("vec-5-tensor"));
  EXPECT_TRUE(used("vec-6-commute"));
  EXPECT_TRUE(used("vec-4-stride-split"));
  EXPECT_TRUE(used("vec-shuffle-base"));
}

TEST(VecRules, DerivationTraceGolden) {
  // Golden snapshot of the full vectorization of DFT_16 at nu=2: exact
  // rule names, exact firing positions (child-index paths from the root,
  // "." = root), exact order. A change to the vec rule set, its relative
  // order, or the engine's traversal strategy diffs against this
  // published derivation — the vec counterpart of the smp golden trace
  // in test_rewrite_multicore.cpp.
  Trace trace;
  (void)vectorize(DFT(16), 2, &trace);
  const std::vector<std::string> golden = {
      "vec-8-dft-breakdown @ .",
      "vec-1-compose @ .",
      "vec-5-tensor @ 0",
      "vec-7-diag @ 1",
      "vec-6-commute @ 2",
      "vec-4-stride-split @ 2",
      "vec-2-nested-stride @ 2",
      "vec-3-perm-block @ 2",
      "vec-shuffle-base @ 3",
      "vec-3-perm-block @ 4",
      "vec-5-tensor @ 5",
      "vec-4-stride-split @ 6",
      "vec-2-nested-stride @ 6",
      "vec-3-perm-block @ 6",
      "vec-shuffle-base @ 7",
      "vec-3-perm-block @ 8",
      "vec-4-stride-split @ 9",
      "vec-2-nested-stride @ 9",
      "vec-3-perm-block @ 9",
      "vec-shuffle-base @ 10",
      "vec-3-perm-block @ 11",
  };
  ASSERT_EQ(trace.size(), golden.size());
  for (std::size_t i = 0; i < golden.size(); ++i) {
    EXPECT_EQ(trace[i].rule_name + " @ " + to_string(trace[i].position),
              golden[i])
        << "step " << i;
  }
}

TEST(VecRules, LoweredVectorizedProgramPassesStageAnalysis) {
  // The formula-level guarantee carries to the kernel IR: every stage of
  // the lowered vectorized program has vector width >= nu.
  for (auto [n, nu] : std::vector<std::pair<idx_t, idx_t>>{
           {64, 2}, {256, 4}}) {
    auto g = vectorize(DFT(n), nu);
    auto list = backend::lower_fused(g);
    EXPECT_TRUE(backend::fully_vectorizable(list, nu)) << list.summary();
    // And it still computes the DFT.
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    util::cvec y(x.size());
    backend::Program prog(list, backend::ExecPolicy::kSequential);
    prog.execute(x.data(), y.data());
    EXPECT_LT(spiral::testing::max_diff(
                  y, spiral::testing::reference_dft(x)),
              spiral::testing::fft_tolerance(n));
  }
}

TEST(VecRules, TandemSmpAndVec) {
  // The paper's composition: derive (14), then vectorize the
  // per-processor blocks. The result is BOTH fully optimized for
  // (p, mu) (Definition 1) AND block-wise fully vectorized at nu.
  const idx_t n = 1 << 8, p = 2, mu = 4, nu = 2;
  auto f = derive_multicore_ct(n, 16, p, mu);
  auto g = vectorize_parallel_blocks(f, nu);
  auto d1 = spl::check_fully_optimized(g, p, mu);
  EXPECT_TRUE(d1.ok) << d1.reason;
  // Every parallel block is vectorized.
  std::function<void(const spl::FormulaPtr&)> walk =
      [&](const spl::FormulaPtr& h) {
        if (h->kind == Kind::kTensorPar) {
          EXPECT_TRUE(is_fully_vectorized(h->child(0), nu))
              << spl::to_string(h->child(0));
        }
        for (const auto& c : h->children) walk(c);
      };
  walk(g);
  expect_same_matrix(g, DFT(n));
}

TEST(VecRules, TandemLoweredProgramIsVectorizableAndCorrect) {
  const idx_t n = 1 << 10, p = 2, mu = 4, nu = 4;
  auto f = derive_multicore_ct(n, 32, p, mu);
  auto g = vectorize_parallel_blocks(f, nu);
  auto list = backend::lower_fused(g);
  EXPECT_TRUE(backend::fully_vectorizable(list, nu)) << list.summary();
  util::Rng rng(7);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  threading::ThreadPool pool(2);
  backend::ExecContext ctx;
  ctx.set_pool(&pool);
  const backend::Program prog(list, backend::ExecPolicy::kThreadPool);
  prog.execute(ctx, x.data(), y.data());
  EXPECT_LT(
      spiral::testing::max_diff(y, spiral::testing::reference_dft(x)),
      spiral::testing::fft_tolerance(n));
}

TEST(VecRules, DefinitionVRejectsScalarConstructs) {
  EXPECT_FALSE(is_fully_vectorized(L(16, 4), 2));
  EXPECT_FALSE(is_fully_vectorized(Builder::tensor(DFT(4), I(4)), 2));
  EXPECT_FALSE(is_fully_vectorized(Builder::vec(2, DFT(16)), 2));
  EXPECT_TRUE(is_fully_vectorized(Builder::vec_tensor(DFT(4), 2), 2));
  EXPECT_FALSE(is_fully_vectorized(Builder::vec_tensor(DFT(4), 4), 2));
}

}  // namespace
}  // namespace spiral::rewrite
