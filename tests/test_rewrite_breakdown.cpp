// Tests for the breakdown rules (Cooley-Tukey, six-step) and ruletrees:
// every decomposition must equal DFT_n as a matrix.
#include <gtest/gtest.h>

#include "rewrite/breakdown.hpp"
#include "spl/printer.hpp"
#include "test_helpers.hpp"

namespace spiral::rewrite {
namespace {

using spiral::testing::expect_same_matrix;
using spl::DFT;

TEST(Breakdown, CooleyTukeyEqualsDft) {
  for (auto [m, n] : std::vector<std::pair<idx_t, idx_t>>{
           {2, 2}, {2, 4}, {4, 2}, {4, 4}, {2, 8}, {8, 4}, {3, 4}, {5, 3}}) {
    expect_same_matrix(cooley_tukey(m, n), DFT(m * n));
  }
}

TEST(Breakdown, CooleyTukeyInverse) {
  expect_same_matrix(cooley_tukey(4, 4, +1), DFT(16, +1));
}

TEST(Breakdown, SixStepEqualsDft) {
  for (auto [m, n] : std::vector<std::pair<idx_t, idx_t>>{
           {2, 2}, {4, 4}, {4, 8}, {8, 4}, {3, 5}}) {
    expect_same_matrix(six_step(m, n), DFT(m * n));
  }
}

TEST(Breakdown, CooleyTukeyRejectsBadSplits) {
  EXPECT_THROW(cooley_tukey(1, 8), std::invalid_argument);
  EXPECT_THROW(cooley_tukey(8, 1), std::invalid_argument);
}

TEST(RuleTreeTest, LeafValidation) {
  EXPECT_NO_THROW(RuleTree::leaf(2));
  EXPECT_NO_THROW(RuleTree::leaf(32));
  EXPECT_NO_THROW(RuleTree::leaf(64));
  EXPECT_THROW(RuleTree::leaf(128), std::invalid_argument);
  EXPECT_THROW(RuleTree::leaf(1), std::invalid_argument);
}

TEST(RuleTreeTest, NodeComputesSize) {
  auto t = RuleTree::node(BreakdownKind::kCooleyTukey, RuleTree::leaf(4),
                          RuleTree::leaf(8));
  EXPECT_EQ(t->n, 32);
}

TEST(RuleTreeTest, FormulaFromLeafIsPlainDft) {
  auto f = formula_from_ruletree(RuleTree::leaf(16));
  EXPECT_TRUE(spl::equal(f, DFT(16)));
}

TEST(RuleTreeTest, RecursiveExpansionEqualsDft) {
  // DFT_64 = CT(8x8) with each 8 split CT(2x4) on the left.
  auto eight = RuleTree::node(BreakdownKind::kCooleyTukey, RuleTree::leaf(2),
                              RuleTree::leaf(4));
  auto t = RuleTree::node(BreakdownKind::kCooleyTukey, eight, eight);
  expect_same_matrix(formula_from_ruletree(t), DFT(64));
}

TEST(RuleTreeTest, SixStepNodeEqualsDft) {
  auto t = RuleTree::node(BreakdownKind::kSixStep, RuleTree::leaf(4),
                          RuleTree::leaf(8));
  expect_same_matrix(formula_from_ruletree(t), DFT(32));
}

TEST(RuleTreeTest, DefaultRuletreeCoversAllSizes) {
  for (int k = 1; k <= 12; ++k) {
    const idx_t n = idx_t{1} << k;
    auto t = default_ruletree(n);
    EXPECT_EQ(t->n, n);
  }
}

TEST(RuleTreeTest, DefaultRuletreeSemantics) {
  for (idx_t n : {64, 128, 256}) {
    expect_same_matrix(formula_from_ruletree(default_ruletree(n)), DFT(n));
  }
}

TEST(RuleTreeTest, BalancedRuletreeSemantics) {
  for (idx_t n : {64, 256, 1024}) {
    auto t = balanced_ruletree(n);
    EXPECT_EQ(t->n, n);
    if (n <= 256) {
      expect_same_matrix(formula_from_ruletree(t), DFT(n));
    }
  }
}

TEST(RuleTreeTest, BalancedSplitsNearSqrt) {
  auto t = balanced_ruletree(1 << 12, 2);
  ASSERT_EQ(t->kind, BreakdownKind::kCooleyTukey);
  EXPECT_EQ(t->left->n, 1 << 6);
  EXPECT_EQ(t->right->n, 1 << 6);
}

TEST(RuleTreeTest, PossibleSplitsEnumeration) {
  const auto s = possible_splits(16);
  const std::vector<idx_t> expected = {2, 4, 8};
  EXPECT_EQ(s, expected);
  EXPECT_TRUE(possible_splits(2).empty());
}

TEST(RuleTreeTest, ToStringMentionsStructure) {
  auto t = RuleTree::node(BreakdownKind::kCooleyTukey, RuleTree::leaf(4),
                          RuleTree::leaf(8));
  EXPECT_EQ(to_string(t), "CT(32 = DFT_4 x DFT_8)");
}

}  // namespace
}  // namespace spiral::rewrite
