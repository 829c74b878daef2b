#include "rewrite/breakdown.hpp"

#include <sstream>

#include "rewrite/engine.hpp"
#include "rewrite/simplify.hpp"
#include "util/common.hpp"

namespace spiral::rewrite {

using spl::Builder;
using spl::DFT;
using spl::I;
using spl::L;
using spl::Tw;
using util::require;

FormulaPtr cooley_tukey(idx_t m, idx_t n, int root_sign) {
  require(m >= 2 && n >= 2, "Cooley-Tukey requires m, n >= 2");
  // (1): DFT_{mn} = (DFT_m (x) I_n) D_{m,n} (I_m (x) DFT_n) L^{mn}_m
  return Builder::compose({
      Builder::tensor(DFT(m, root_sign), I(n)),
      Tw(m, n, root_sign),
      Builder::tensor(I(m), DFT(n, root_sign)),
      L(m * n, m),
  });
}

FormulaPtr six_step(idx_t m, idx_t n, int root_sign) {
  require(m >= 2 && n >= 2, "six-step requires m, n >= 2");
  // (3): DFT_{mn} = L^{mn}_m (I_n (x) DFT_m) L^{mn}_n D_{m,n}
  //                 (I_m (x) DFT_n) L^{mn}_m
  return Builder::compose({
      L(m * n, m),
      Builder::tensor(I(n), DFT(m, root_sign)),
      L(m * n, n),
      Tw(m, n, root_sign),
      Builder::tensor(I(m), DFT(n, root_sign)),
      L(m * n, m),
  });
}

FormulaPtr wht_breakdown(idx_t m, idx_t n) {
  require(util::is_pow2(m) && util::is_pow2(n) && m >= 2 && n >= 2,
          "WHT breakdown requires 2-power m, n >= 2");
  return Builder::compose({
      Builder::tensor(spl::WHT(m), I(n)),
      Builder::tensor(I(m), spl::WHT(n)),
  });
}

RuleSet breakdown_rules(idx_t leaf) {
  RuleSet rules;
  rules.push_back(Rule{
      "dft-balanced-breakdown",
      [leaf](const FormulaPtr& g) -> FormulaPtr {
        if (g->kind != spl::Kind::kDFT || g->n <= leaf) return nullptr;
        if (!util::is_pow2(g->n)) return nullptr;
        const int k = util::log2_exact(g->n);
        const idx_t m = idx_t{1} << (k / 2);
        return cooley_tukey(m, g->n / m, g->root_sign);
      },
  });
  rules.push_back(Rule{
      "wht-balanced-breakdown",
      [leaf](const FormulaPtr& g) -> FormulaPtr {
        if (g->kind != spl::Kind::kWHT || g->n <= leaf) return nullptr;
        const int k = util::log2_exact(g->n);
        const idx_t m = idx_t{1} << (k / 2);
        return wht_breakdown(m, g->n / m);
      },
  });
  return rules;
}

RuleSet sixstep_rules(idx_t leaf) {
  RuleSet rules;
  rules.push_back(Rule{
      "dft-six-step-breakdown",
      [leaf](const FormulaPtr& g) -> FormulaPtr {
        if (g->kind != spl::Kind::kDFT || g->n <= leaf) return nullptr;
        if (!util::is_pow2(g->n)) return nullptr;
        const int k = util::log2_exact(g->n);
        const idx_t m = idx_t{1} << (k / 2);
        return six_step(m, g->n / m, g->root_sign);
      },
  });
  return rules;
}

FormulaPtr expand_whts(const FormulaPtr& f, idx_t leaf) {
  // The DFT rule in the set never matches here by construction (expand_whts
  // is only called on WHT trees); sharing the set keeps one definition.
  return rewrite_fixpoint(f, breakdown_rules(leaf));
}

RuleTreePtr RuleTree::leaf(idx_t n) {
  require(n >= 2 && n <= kMaxCodeletSize,
          "codelet leaf size out of range [2, 64]");
  auto t = std::make_shared<RuleTree>();
  t->n = n;
  t->kind = BreakdownKind::kBaseCase;
  return t;
}

RuleTreePtr RuleTree::node(BreakdownKind kind, RuleTreePtr left,
                           RuleTreePtr right) {
  require(kind != BreakdownKind::kBaseCase, "inner node needs a split rule");
  require(left != nullptr && right != nullptr, "inner node needs children");
  auto t = std::make_shared<RuleTree>();
  t->n = left->n * right->n;
  t->kind = kind;
  t->left = std::move(left);
  t->right = std::move(right);
  return t;
}

FormulaPtr formula_from_ruletree(const RuleTreePtr& tree, int root_sign) {
  require(tree != nullptr, "null ruletree");
  if (tree->kind == BreakdownKind::kBaseCase) {
    return DFT(tree->n, root_sign);
  }
  const idx_t m = tree->left->n;
  const idx_t n = tree->right->n;
  const FormulaPtr a = formula_from_ruletree(tree->left, root_sign);
  const FormulaPtr b = formula_from_ruletree(tree->right, root_sign);
  FormulaPtr skeleton;
  switch (tree->kind) {
    case BreakdownKind::kCooleyTukey:
      skeleton = Builder::compose({
          Builder::tensor(a, I(n)),
          Tw(m, n, root_sign),
          Builder::tensor(I(m), b),
          L(m * n, m),
      });
      break;
    case BreakdownKind::kSixStep:
      skeleton = Builder::compose({
          L(m * n, m),
          Builder::tensor(I(n), a),
          L(m * n, n),
          Tw(m, n, root_sign),
          Builder::tensor(I(m), b),
          L(m * n, m),
      });
      break;
    case BreakdownKind::kBaseCase:
      break;  // unreachable
  }
  return simplify(skeleton);
}

RuleTreePtr default_ruletree(idx_t n, idx_t leaf) {
  require(util::is_pow2(n) && n >= 2, "default_ruletree: n must be 2-power");
  require(util::is_pow2(leaf) && leaf >= 2 && leaf <= kMaxCodeletSize,
          "default_ruletree: bad leaf size");
  if (n <= leaf) return RuleTree::leaf(n);
  // Split off the largest codelet-sized factor on the left; recurse right.
  const idx_t m = leaf;
  return RuleTree::node(BreakdownKind::kCooleyTukey, RuleTree::leaf(m),
                        default_ruletree(n / m, leaf));
}

RuleTreePtr balanced_ruletree(idx_t n, idx_t leaf) {
  require(util::is_pow2(n) && n >= 2, "balanced_ruletree: n must be 2-power");
  if (n <= leaf) return RuleTree::leaf(n);
  const int k = util::log2_exact(n);
  const idx_t m = idx_t{1} << (k / 2);
  return RuleTree::node(BreakdownKind::kCooleyTukey,
                        balanced_ruletree(m, leaf),
                        balanced_ruletree(n / m, leaf));
}

std::vector<idx_t> possible_splits(idx_t n) {
  std::vector<idx_t> splits;
  for (idx_t m = 2; m * 2 <= n; m *= 2) {
    if (n % m == 0) splits.push_back(m);
  }
  return splits;
}

std::string to_string(const RuleTreePtr& tree) {
  if (!tree) return "<null>";
  if (tree->kind == BreakdownKind::kBaseCase) {
    std::ostringstream os;
    os << "DFT_" << tree->n;
    return os.str();
  }
  std::ostringstream os;
  os << (tree->kind == BreakdownKind::kCooleyTukey ? "CT" : "SixStep") << "("
     << tree->n << " = " << to_string(tree->left) << " x "
     << to_string(tree->right) << ")";
  return os.str();
}

}  // namespace spiral::rewrite
