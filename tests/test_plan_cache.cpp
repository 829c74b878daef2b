// Tests for the plan cache and the batched-transform API.
#include <gtest/gtest.h>

#include "core/plan_cache.hpp"
#include "test_helpers.hpp"

namespace spiral::core {
namespace {

using spiral::testing::fft_tolerance;
using spiral::testing::max_diff;
using spiral::testing::reference_dft;

TEST(PlanCache, ReturnsSameObjectForSameKey) {
  PlanCache cache;
  auto a = cache.dft(256);
  auto b = cache.dft(256);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanCache, DistinguishesOptions) {
  PlanCache cache;
  PlannerOptions par;
  par.threads = 2;
  auto a = cache.dft(256);
  auto b = cache.dft(256, par);
  PlannerOptions inv;
  inv.direction = +1;
  auto c = cache.dft(256, inv);
  EXPECT_NE(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 3u);
}

TEST(PlanCache, VectorNuIsPartOfTheKey) {
  // Regression test: the cache key used to omit vector_nu, so a scalar
  // request could be served a vectorized plan (and vice versa).
  PlanCache cache;
  PlannerOptions scalar;
  PlannerOptions vec;
  vec.vector_nu = 2;
  auto a = cache.dft(256, scalar);
  auto b = cache.dft(256, vec);
  EXPECT_NE(a.get(), b.get())
      << "scalar and nu=2 requests must not alias in the cache";
  EXPECT_EQ(cache.size(), 2u);
  // Both plans still compute the same transform.
  util::Rng rng(5);
  const auto x = rng.complex_signal(256);
  util::cvec ya(256), yb(256);
  a->execute(x.data(), ya.data());
  b->execute(x.data(), yb.data());
  EXPECT_LT(max_diff(ya, yb), 1e-13);
}

TEST(PlanCache, BatchDftIsCached) {
  PlanCache cache;
  auto a = cache.batch_dft(64, 4);
  auto b = cache.batch_dft(64, 4);
  auto c = cache.batch_dft(64, 8);  // batch count is part of the key
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, StatsCountHitsAndMisses) {
  PlanCache cache;
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);
  (void)cache.dft(128);
  (void)cache.dft(128);
  (void)cache.wht(64);
  const auto st = cache.stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.wisdom_hits, 0u);
  EXPECT_GT(st.plan_nanos, 0u);
  EXPECT_GE(st.plan_seconds(), 0.0);
  cache.reset_stats();
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(cache.stats().plan_nanos, 0u);
}

TEST(PlanCache, ShardCountIsConfigurable) {
  PlanCache one(1);
  EXPECT_EQ(one.shard_count(), 1u);
  (void)one.dft(64);
  (void)one.dft(128);
  EXPECT_EQ(one.size(), 2u);
  PlanCache dflt;
  EXPECT_EQ(dflt.shard_count(), PlanCache::kDefaultShards);
  PlanCache zero(0);  // rounded up to one shard
  EXPECT_EQ(zero.shard_count(), 1u);
}

TEST(PlanCache, DistinguishesTransformKinds) {
  PlanCache cache;
  auto a = cache.dft(64);
  auto b = cache.wht(64);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCache, CachedPlanStillComputesCorrectly) {
  PlanCache cache;
  auto plan = cache.dft(256);
  util::Rng rng(1);
  const auto x = rng.complex_signal(256);
  util::cvec y(256);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(256));
}

TEST(PlanCache, TwoDimensionalKeyUsesBothExtents) {
  PlanCache cache;
  auto a = cache.dft_2d(8, 16);
  auto b = cache.dft_2d(16, 8);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a->size(), b->size());
}

TEST(PlanCache, ClearEmpties) {
  PlanCache cache;
  (void)cache.dft(64);
  (void)cache.dft(128);
  EXPECT_EQ(cache.size(), 2u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
}

TEST(PlanCache, GlobalCacheIsSingleton) {
  auto& a = global_plan_cache();
  auto& b = global_plan_cache();
  EXPECT_EQ(&a, &b);
}

TEST(BatchDft, ComputesIndependentTransforms) {
  const idx_t n = 64, batch = 8;
  auto plan = plan_batch_dft(n, batch);
  ASSERT_EQ(plan->size(), n * batch);
  util::Rng rng(2);
  const auto x = rng.complex_signal(n * batch);
  util::cvec y(x.size());
  plan->execute(x.data(), y.data());
  for (idx_t b = 0; b < batch; ++b) {
    util::cvec xi(n);
    std::copy(x.begin() + b * n, x.begin() + (b + 1) * n, xi.begin());
    const auto ref = reference_dft(xi);
    for (idx_t i = 0; i < n; ++i) {
      ASSERT_LT(std::abs(y[size_t(b * n + i)] - ref[size_t(i)]),
                fft_tolerance(n))
          << "batch " << b;
    }
  }
}

TEST(BatchDft, ParallelBatchesMatchSequential) {
  const idx_t n = 128, batch = 16;
  PlannerOptions par;
  par.threads = 4;
  par.cache_line_complex = 4;
  auto pp = plan_batch_dft(n, batch, par);
  auto ps = plan_batch_dft(n, batch);
  util::Rng rng(3);
  const auto x = rng.complex_signal(n * batch);
  util::cvec yp(x.size()), ys(x.size());
  pp->execute(x.data(), yp.data());
  ps->execute(x.data(), ys.data());
  EXPECT_LT(max_diff(yp, ys), 1e-13);
}

TEST(BatchDft, ParallelBatchIsEmbarrassinglyParallel) {
  PlannerOptions par;
  par.threads = 2;
  par.cache_line_complex = 2;
  auto plan = plan_batch_dft(64, 8, par);
  // One parallel stage, no data-movement stages: the formula is
  // I_p (x)|| (I_{batch/p} (x) DFT_n).
  bool any_parallel = false;
  for (const auto& s : plan->stages().stages) {
    any_parallel |= s.parallel_p > 0;
  }
  EXPECT_TRUE(any_parallel) << plan->describe();
}

TEST(BatchDft, SingleBatchDegeneratesToPlainDft) {
  auto plan = plan_batch_dft(256, 1);
  util::Rng rng(4);
  const auto x = rng.complex_signal(256);
  util::cvec y(256);
  plan->execute(x.data(), y.data());
  EXPECT_LT(max_diff(y, reference_dft(x)), fft_tolerance(256));
}

TEST(BatchDft, RejectsBadArguments) {
  EXPECT_THROW((void)plan_batch_dft(24, 4), std::invalid_argument);
  EXPECT_THROW((void)plan_batch_dft(64, 0), std::invalid_argument);
}

}  // namespace
}  // namespace spiral::core
