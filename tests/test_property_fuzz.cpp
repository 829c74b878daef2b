// Randomized property tests over the whole pipeline: a generator of
// random well-formed SPL formulas feeds invariants that must hold for
// EVERY formula — the strongest correctness statement in the suite.
//
// Invariants:
//   P1  simplify(f)  ==_matrix  f
//   P2  normalize(f) ==_matrix  f
//   P3  Program(lower(f))(x)       == dense(f) * x
//   P4  Program(lower_fused(f))(x) == dense(f) * x
//   P5  fused and unfused programs agree bit-for-bit in structure count
//       direction: fused never has more stages
//   P6  parallelize(f, p, mu) ==_matrix f, for random (p, mu)
//   P7  threaded execution == sequential execution
#include <gtest/gtest.h>

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "rewrite/simplify.hpp"
#include "rewrite/smp_rules.hpp"
#include "spl/printer.hpp"
#include "test_helpers.hpp"

namespace spiral {
namespace {

using spl::Builder;
using spl::FormulaPtr;

/// Random formula generator. Sizes are kept small (<= 64) so dense
/// comparison stays fast; `depth` bounds the construct nesting.
FormulaPtr random_formula(util::Rng& rng, idx_t size, int depth) {
  // Leaves.
  if (depth == 0 || size == 1) {
    if (size == 1) return spl::I(1);
    switch (rng.uniform_int(0, 3)) {
      case 0:
        return spl::I(size);
      case 1:
        if (size <= 32 && size >= 2) return spl::DFT(size);
        return spl::I(size);
      case 2:
        if (util::is_pow2(size) && size >= 2 && size <= 32) {
          return spl::WHT(size);
        }
        return spl::I(size);
      default: {
        // Stride permutation with a random divisor.
        std::vector<idx_t> divs;
        for (idx_t d = 2; d < size; ++d) {
          if (size % d == 0) divs.push_back(d);
        }
        if (divs.empty()) return spl::I(size);
        return spl::L(size, divs[static_cast<std::size_t>(rng.uniform_int(
                                0, static_cast<idx_t>(divs.size()) - 1))]);
      }
    }
  }
  // Inner constructs.
  switch (rng.uniform_int(0, 3)) {
    case 0: {  // compose of 2-3 same-size factors
      const idx_t k = rng.uniform_int(2, 3);
      std::vector<FormulaPtr> fs;
      for (idx_t i = 0; i < k; ++i) {
        fs.push_back(random_formula(rng, size, depth - 1));
      }
      return Builder::compose(std::move(fs));
    }
    case 1: {  // tensor with a random factorization
      std::vector<idx_t> divs;
      for (idx_t d = 2; d < size; ++d) {
        if (size % d == 0) divs.push_back(d);
      }
      if (divs.empty()) return random_formula(rng, size, 0);
      const idx_t a = divs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<idx_t>(divs.size()) - 1))];
      return Builder::tensor(random_formula(rng, a, depth - 1),
                             random_formula(rng, size / a, depth - 1));
    }
    case 2: {  // twiddle diagonal
      std::vector<idx_t> divs;
      for (idx_t d = 2; d < size; ++d) {
        if (size % d == 0) divs.push_back(d);
      }
      if (divs.empty()) return random_formula(rng, size, 0);
      const idx_t a = divs[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<idx_t>(divs.size()) - 1))];
      return spl::Tw(a, size / a);
    }
    default:
      return random_formula(rng, size, 0);
  }
}

class PropertyFuzz : public ::testing::TestWithParam<int> {};

TEST_P(PropertyFuzz, SimplifyPreservesSemantics) {
  util::Rng rng(1000 + GetParam());
  const idx_t size = idx_t{1} << rng.uniform_int(2, 5);
  auto f = random_formula(rng, size, 2);
  spiral::testing::expect_same_matrix(f, rewrite::simplify(f));
}

TEST_P(PropertyFuzz, NormalizePreservesSemantics) {
  util::Rng rng(2000 + GetParam());
  const idx_t size = idx_t{1} << rng.uniform_int(2, 5);
  auto f = random_formula(rng, size, 2);
  spiral::testing::expect_same_matrix(f, backend::normalize(f));
}

TEST_P(PropertyFuzz, LoweredProgramMatchesDense) {
  util::Rng rng(3000 + GetParam());
  const idx_t size = idx_t{1} << rng.uniform_int(2, 6);
  auto f = random_formula(rng, size, 2);
  const auto x = rng.complex_signal(size);
  const auto ref = spl::to_dense(f).apply(x);
  for (bool fused : {false, true}) {
    auto list = fused ? backend::lower_fused(f) : backend::lower(f);
    util::cvec y(x.size());
    backend::Program prog(std::move(list),
                          backend::ExecPolicy::kSequential);
    prog.execute(x.data(), y.data());
    EXPECT_LT(spiral::testing::max_diff(y, ref), 1e-9)
        << (fused ? "fused " : "plain ") << spl::to_string(f);
  }
}

TEST_P(PropertyFuzz, FusionNeverAddsStages) {
  util::Rng rng(4000 + GetParam());
  const idx_t size = idx_t{1} << rng.uniform_int(2, 6);
  auto f = random_formula(rng, size, 2);
  EXPECT_LE(backend::lower_fused(f).stages.size(),
            backend::lower(f).stages.size());
}

TEST_P(PropertyFuzz, ParallelizePreservesSemantics) {
  util::Rng rng(5000 + GetParam());
  const idx_t size = idx_t{1} << rng.uniform_int(3, 6);
  auto f = random_formula(rng, size, 2);
  const idx_t p = rng.uniform_int(0, 1) ? 2 : 4;
  const idx_t mu = rng.uniform_int(0, 1) ? 2 : 4;
  auto g = rewrite::parallelize(f, p, mu);
  spiral::testing::expect_same_matrix(f, g);
}

TEST_P(PropertyFuzz, ThreadedExecutionMatchesSequential) {
  util::Rng rng(6000 + GetParam());
  const idx_t size = idx_t{1} << rng.uniform_int(4, 6);
  auto f = random_formula(rng, size, 2);
  auto g = rewrite::parallelize(f, 2, 2);
  if (spl::has_smp_tag(g)) g = f;  // not parallelizable: still executable
  auto list = backend::lower_fused(g);
  const auto x = rng.complex_signal(size);
  util::cvec ys(x.size()), yp(x.size());
  backend::Program seq(list, backend::ExecPolicy::kSequential);
  seq.execute(x.data(), ys.data());
  threading::ThreadPool pool(2);
  backend::ExecContext ctx;
  ctx.set_pool(&pool);
  const backend::Program par(list, backend::ExecPolicy::kThreadPool);
  par.execute(ctx, x.data(), yp.data());
  EXPECT_LT(spiral::testing::max_diff(ys, yp), 1e-13)
      << spl::to_string(g);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PropertyFuzz, ::testing::Range(0, 25));

}  // namespace
}  // namespace spiral
