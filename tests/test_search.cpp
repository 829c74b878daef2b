// Tests for the search engine: DP memoization, exhaustive enumeration,
// and random search.
#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "search/search.hpp"

namespace spiral::search {
namespace {

using rewrite::BreakdownKind;

/// Synthetic cost: counts codelet leaves weighted to prefer leaf size 8.
/// Deterministic and fast — lets us verify search mechanics exactly.
double toy_cost(const RuleTreePtr& t) {
  if (t->kind == BreakdownKind::kBaseCase) {
    return std::abs(double(t->n) - 8.0) + 1.0;
  }
  return toy_cost(t->left) + toy_cost(t->right) + 0.25;
}

TEST(Enumerate, CountsMatchRecurrence) {
  // T(n) = [n <= leaf] + sum over splits T(m)*T(n/m).
  std::map<idx_t, std::size_t> expect;
  const idx_t leaf = 8;
  for (idx_t n = 2; n <= 256; n *= 2) {
    std::size_t cnt = n <= leaf ? 1 : 0;
    for (idx_t m : rewrite::possible_splits(n)) {
      cnt += expect[m] * expect[n / m];
    }
    expect[n] = cnt;
    EXPECT_EQ(enumerate_ruletrees(n, leaf).size(), cnt) << "n=" << n;
  }
}

TEST(Enumerate, AllTreesHaveCorrectSize) {
  for (const auto& t : enumerate_ruletrees(64, 8)) {
    EXPECT_EQ(t->n, 64);
  }
}

TEST(DpSearchTest, FindsOptimumOfDecomposableCost) {
  // toy_cost is additive over subtrees, so DP is exact: compare against
  // exhaustive search.
  for (idx_t n : {16, 64, 256}) {
    DpSearch dp(toy_cost, 8);
    const auto dp_result = dp.best(n);
    const auto ex_result = exhaustive_search(n, toy_cost, 8);
    EXPECT_DOUBLE_EQ(dp_result.cost, ex_result.cost) << "n=" << n;
  }
}

TEST(DpSearchTest, PrefersLeafEight) {
  DpSearch dp(toy_cost, 32);
  const auto r = dp.best(64);
  // Optimal: two DFT_8 leaves (cost 1 each) + node overhead.
  ASSERT_EQ(r.tree->kind, BreakdownKind::kCooleyTukey);
  EXPECT_EQ(r.tree->left->n, 8);
  EXPECT_EQ(r.tree->right->n, 8);
}

TEST(DpSearchTest, MemoizationBoundsEvaluations) {
  int calls = 0;
  CostFn counting = [&calls](const RuleTreePtr& t) {
    ++calls;
    return toy_cost(t);
  };
  DpSearch dp(counting, 8);
  (void)dp.best(1 << 12);
  // Without memoization the space is exponential (>> 10^4 trees for
  // 2^12); DP evaluates only per-size candidate lists.
  EXPECT_LT(calls, 200);
}

TEST(DpSearchTest, RejectsNonPow2) {
  DpSearch dp(toy_cost);
  EXPECT_THROW((void)dp.best(24), std::invalid_argument);
}

TEST(RandomSearch, FindsReasonableTree) {
  util::Rng rng(17);
  const auto r = random_search(256, toy_cost, 64, rng, 8);
  EXPECT_EQ(r.tree->n, 256);
  EXPECT_EQ(r.evaluations, 64);
  const auto best = exhaustive_search(256, toy_cost, 8);
  EXPECT_GE(r.cost, best.cost);
}

}  // namespace
}  // namespace spiral::search
