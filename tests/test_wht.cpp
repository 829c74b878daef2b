// Tests for the Walsh-Hadamard transform: the second transform the
// framework generates, demonstrating that the Table 1 rules are not
// DFT-specific (WHT has the same tensor structure with no twiddles).
#include <gtest/gtest.h>

#include <functional>

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/smp_rules.hpp"
#include "spl/printer.hpp"
#include "spl/properties.hpp"
#include "test_helpers.hpp"

namespace spiral {
namespace {

using spiral::testing::max_diff;

/// Reference WHT by the recursive definition y = (F2 (x) WHT_{n/2}) x.
util::cvec reference_wht(const util::cvec& x) {
  const idx_t n = static_cast<idx_t>(x.size());
  if (n == 1) return x;
  util::cvec y(x.size());
  util::cvec lo(n / 2), hi(n / 2);
  for (idx_t i = 0; i < n / 2; ++i) {
    lo[size_t(i)] = x[size_t(i)];
    hi[size_t(i)] = x[size_t(i + n / 2)];
  }
  const auto wl = reference_wht(lo);
  const auto wh = reference_wht(hi);
  for (idx_t i = 0; i < n / 2; ++i) {
    y[size_t(i)] = wl[size_t(i)] + wh[size_t(i)];
    y[size_t(i + n / 2)] = wl[size_t(i)] - wh[size_t(i)];
  }
  return y;
}

TEST(Wht, DenseMatchesKroneckerDefinition) {
  // WHT_4 = F2 (x) F2.
  auto k = spl::Builder::tensor(spl::Builder::f2(), spl::Builder::f2());
  spiral::testing::expect_same_matrix(spl::WHT(4), k);
}

TEST(Wht, DenseEntriesArePlusMinusOne) {
  const auto d = spl::to_dense(spl::WHT(8));
  for (idx_t i = 0; i < 8; ++i) {
    for (idx_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(std::abs(d.at(i, j).real()), 1.0, 1e-15);
      EXPECT_NEAR(d.at(i, j).imag(), 0.0, 1e-15);
    }
  }
}

TEST(Wht, BreakdownRulePreservesSemantics) {
  for (auto [m, n] : std::vector<std::pair<idx_t, idx_t>>{
           {2, 2}, {2, 8}, {8, 2}, {4, 8}}) {
    spiral::testing::expect_same_matrix(rewrite::wht_breakdown(m, n),
                                        spl::WHT(m * n));
  }
}

TEST(Wht, ExpandProducesCodeletLeaves) {
  auto f = rewrite::expand_whts(spl::WHT(1 << 10), 8);
  std::function<void(const spl::FormulaPtr&)> walk =
      [&](const spl::FormulaPtr& g) {
        if (g->kind == spl::Kind::kWHT) {
          EXPECT_LE(g->n, 8);
        }
        for (const auto& c : g->children) walk(c);
      };
  walk(f);
}

TEST(Wht, CodeletMatchesReference) {
  for (idx_t n : {2, 4, 8, 16, 32}) {
    // One WHT_n codelet over contiguous sides, as a one-stage program.
    backend::Stage s;
    s.iters = 1;
    s.cn = n;
    s.is_compute = true;
    s.wht = true;
    std::vector<idx_t> strides;
    for (idx_t b = 1; b < n; b *= 2) strides.push_back(b);
    s.in_bits = backend::BitStrideMap(0, strides);
    s.out_bits = s.in_bits;
    backend::Program prog(backend::StageList{n, {s}},
                          backend::ExecPolicy::kSequential);
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    util::cvec y(x.size());
    prog.execute(x.data(), y.data());
    EXPECT_LT(max_diff(y, reference_wht(x)), 1e-12) << n;
  }
}

TEST(Wht, ParallelizationReachesDefinitionOne) {
  auto r = rewrite::parallelize(spl::WHT(1 << 8), 2, 4);
  EXPECT_TRUE(spl::is_fully_optimized(r, 2, 4)) << spl::to_string(r);
  spiral::testing::expect_same_matrix(r, spl::WHT(1 << 8));
}

TEST(Wht, SequentialPlanComputesWht) {
  for (idx_t n : {8, 64, 1024}) {
    auto plan = core::plan_wht(n);
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    util::cvec y(x.size());
    plan->execute(x.data(), y.data());
    EXPECT_LT(max_diff(y, reference_wht(x)), 1e-10) << n;
  }
}

TEST(Wht, ParallelPlanComputesWht) {
  core::PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 4;
  const idx_t n = 1 << 12;
  auto plan = core::plan_wht(n, opt);
  EXPECT_TRUE(plan->parallel());
  util::Rng rng(1);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_wht(x)), 1e-9);
}

TEST(Wht, SelfInverseUpToScaling) {
  const idx_t n = 256;
  auto plan = core::plan_wht(n);
  util::Rng rng(2);
  const auto x = rng.complex_signal(n);
  util::cvec y(n), z(n);
  plan->execute(x.data(), y.data());
  plan->execute(y.data(), z.data());
  for (auto& v : z) v /= double(n);
  EXPECT_LT(max_diff(z, x), 1e-10);
}

TEST(Wht, DescribeSaysWht) {
  auto plan = core::plan_wht(64);
  EXPECT_NE(plan->describe().find("WHT_64"), std::string::npos);
}

TEST(Wht, InadmissibleParallelFallsBackToSequential) {
  core::PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 4;
  // n = 16: (p*mu)^2 = 64 does not divide 16.
  auto plan = core::plan_wht(16, opt);
  util::Rng rng(3);
  const auto x = rng.complex_signal(16);
  util::cvec y(16);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_wht(x)), 1e-12);
}

TEST(Wht, BuilderRejectsNonPow2) {
  EXPECT_THROW(spl::Builder::wht(12), std::invalid_argument);
}

}  // namespace
}  // namespace spiral
