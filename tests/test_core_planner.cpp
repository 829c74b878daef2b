// Tests for the public planner API (core::plan_dft): correctness over
// sizes/directions/thread counts, fallback behaviour, plan inspection.
#include <gtest/gtest.h>

#include <cstring>

#include "backend/vectorize.hpp"
#include "core/spiral_fft.hpp"
#include "spl/properties.hpp"
#include "test_helpers.hpp"

namespace spiral::core {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

TEST(Planner, SequentialPlansAcrossSizes) {
  for (int k = 1; k <= 12; ++k) {
    const idx_t n = idx_t{1} << k;
    auto plan = plan_dft(n);
    ASSERT_EQ(plan->size(), n);
    EXPECT_FALSE(plan->parallel());
    util::Rng rng(n);
    const auto x = rng.complex_signal(n);
    util::cvec y(x.size());
    plan->execute(x.data(), y.data());
    EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n)) << "n=" << n;
  }
}

TEST(Planner, ParallelPlanMatchesReference) {
  PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 4;
  const idx_t n = 1 << 12;
  auto plan = plan_dft(n, opt);
  EXPECT_TRUE(plan->parallel());
  util::Rng rng(1);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Planner, FourThreadPlan) {
  PlannerOptions opt;
  opt.threads = 4;
  opt.cache_line_complex = 2;
  const idx_t n = 1 << 10;
  auto plan = plan_dft(n, opt);
  util::Rng rng(2);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Planner, InversePlan) {
  PlannerOptions opt;
  opt.direction = +1;
  const idx_t n = 256;
  auto plan = plan_dft(n, opt);
  util::Rng rng(3);
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x, +1)), fft_tolerance(n));
}

TEST(Planner, ForwardInverseRoundTrip) {
  PlannerOptions fwd;
  fwd.threads = 2;
  PlannerOptions inv = fwd;
  inv.direction = +1;
  const idx_t n = 1 << 10;
  auto pf = plan_dft(n, fwd);
  auto pi = plan_dft(n, inv);
  util::Rng rng(4);
  const auto x = rng.complex_signal(n);
  util::cvec mid(n), back(n);
  pf->execute(x.data(), mid.data());
  pi->execute(mid.data(), back.data());
  for (auto& v : back) v /= double(n);
  EXPECT_LT(max_diff(back, x), fft_tolerance(n));
}

TEST(Planner, FallsBackWhenNotDivisible) {
  // n = 16 with p=2, mu=4: (p*mu)^2 = 64 does not divide 16.
  PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 4;
  EXPECT_FALSE(parallel_plan_available(16, 2, 4));
  auto plan = plan_dft(16, opt);
  util::Rng rng(5);
  const auto x = rng.complex_signal(16);
  util::cvec y(16);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(16));
}

TEST(Planner, ParallelAvailabilityMatchesPaperCondition) {
  // (14) exists iff an admissible split exists; for 2-powers that is
  // (p*mu)^2 | n.
  EXPECT_TRUE(parallel_plan_available(1 << 6, 2, 4));   // 64 = (8)^2 / ok
  EXPECT_FALSE(parallel_plan_available(1 << 5, 2, 4));
  EXPECT_TRUE(parallel_plan_available(1 << 8, 4, 4));   // (16)^2 = 256
  EXPECT_FALSE(parallel_plan_available(1 << 7, 4, 4));
}

TEST(Planner, PlannerFormulaIsFullyOptimizedWhenParallel) {
  PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 4;
  auto f = planner_formula(1 << 12, opt);
  auto check = spl::check_fully_optimized(f, 2, 4);
  EXPECT_TRUE(check.ok) << check.reason;
}

TEST(Planner, DescribeMentionsKeyFacts) {
  PlannerOptions opt;
  opt.threads = 2;
  auto plan = plan_dft(1 << 10, opt);
  const std::string d = plan->describe();
  EXPECT_NE(d.find("DFT_1024"), std::string::npos);
  EXPECT_NE(d.find("parallel"), std::string::npos);
  EXPECT_NE(d.find("(x)||"), std::string::npos) << d;
}

TEST(Planner, RejectsNonPow2) {
  EXPECT_THROW((void)plan_dft(24), std::invalid_argument);
  EXPECT_THROW((void)plan_dft(0), std::invalid_argument);
}

TEST(Planner, ManyExecutionsReusePlan) {
  PlannerOptions opt;
  opt.threads = 2;
  auto plan = plan_dft(256, opt);
  util::Rng rng(7);
  for (int rep = 0; rep < 100; ++rep) {
    const auto x = rng.complex_signal(256);
    util::cvec y(256);
    plan->execute(x.data(), y.data());
    ASSERT_LT(max_diff(y, reference_dft(x)), fft_tolerance(256));
  }
}

TEST(Planner, AutotunedPlanIsCorrect) {
  PlannerOptions opt;
  opt.autotune = true;
  const idx_t n = 1 << 9;
  auto plan = plan_dft(n, opt);
  util::Rng rng(8);
  const auto x = rng.complex_signal(n);
  util::cvec y(n);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}


TEST(Planner, VectorizedSequentialPlan) {
  PlannerOptions opt;
  opt.vector_nu = 4;
  const idx_t n = 1 << 10;
  auto plan = plan_dft(n, opt);
  // Every lowered stage moves aligned nu-blocks.
  EXPECT_TRUE(backend::fully_vectorizable(plan->stages(), 4))
      << plan->describe();
  util::Rng rng(21);
  const auto x = rng.complex_signal(n);
  util::cvec y(n);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Planner, VectorizedParallelPlanTandem) {
  PlannerOptions opt;
  opt.threads = 2;
  opt.cache_line_complex = 4;
  opt.vector_nu = 4;
  const idx_t n = 1 << 12;
  auto plan = plan_dft(n, opt);
  EXPECT_TRUE(plan->parallel());
  EXPECT_TRUE(backend::fully_vectorizable(plan->stages(), 4))
      << plan->describe();
  util::Rng rng(22);
  const auto x = rng.complex_signal(n);
  util::cvec y(n);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(n));
}

TEST(Planner, VectorNuFallsBackWhenTooSmall) {
  PlannerOptions opt;
  opt.vector_nu = 4;
  auto plan = plan_dft(8, opt);  // no split with 4 | m, 4 | n
  util::Rng rng(23);
  const auto x = rng.complex_signal(8);
  util::cvec y(8);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(8));
}

TEST(Planner, BatchSplitsOverTheLargestAdmissibleThreadCount) {
  // 4 does not divide a batch of 6, 2 does: the 4-thread request splits
  // over 2 and runs the very plan a 2-thread request gets.
  PlannerOptions opt;
  opt.threads = 4;
  auto plan = plan_batch_dft(64, 6, opt);
  bool split_over_two = false;
  for (const auto& s : plan->stages().stages) {
    split_over_two |= s.parallel_p == 2;
  }
  EXPECT_TRUE(split_over_two) << plan->describe();

  opt.threads = 2;
  auto two = plan_batch_dft(64, 6, opt);
  util::Rng rng(24);
  const auto x = rng.complex_signal(plan->size());
  util::cvec y(x.size());
  util::cvec y2(x.size());
  plan->execute(x.data(), y.data());
  two->execute(x.data(), y2.data());
  EXPECT_EQ(std::memcmp(y.data(), y2.data(), y.size() * sizeof(cplx)), 0);
}

}  // namespace
}  // namespace spiral::core
