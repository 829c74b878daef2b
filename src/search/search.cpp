#include "search/search.hpp"

#include <atomic>

namespace spiral::search {

using rewrite::BreakdownKind;
using rewrite::RuleTree;

namespace {
std::atomic<std::uint64_t> g_dp_invocations{0};
}  // namespace

std::uint64_t dp_search_invocations() noexcept {
  return g_dp_invocations.load(std::memory_order_relaxed);
}

RuleTreePtr DpSearch::best_tree(idx_t n) {
  auto it = memo_.find(n);
  if (it != memo_.end()) return it->second;

  std::vector<RuleTreePtr> candidates;
  if (n <= leaf_) candidates.push_back(RuleTree::leaf(n));
  for (idx_t m : rewrite::possible_splits(n)) {
    candidates.push_back(RuleTree::node(BreakdownKind::kCooleyTukey,
                                        best_tree(m), best_tree(n / m)));
  }
  util::require(!candidates.empty(), "DpSearch: no expansion for size");

  RuleTreePtr best;
  double best_cost = 0.0;
  for (const auto& c : candidates) {
    const double cost = cost_(c);
    ++evals_;
    if (!best || cost < best_cost) {
      best = c;
      best_cost = cost;
    }
  }
  memo_.emplace(n, best);
  return best;
}

SearchResult DpSearch::best(idx_t n) {
  util::require(util::is_pow2(n) && n >= 2, "DpSearch: 2-power n required");
  g_dp_invocations.fetch_add(1, std::memory_order_relaxed);
  evals_ = 0;
  SearchResult r;
  r.tree = best_tree(n);
  r.cost = cost_(r.tree);
  r.evaluations = evals_ + 1;
  return r;
}

std::vector<RuleTreePtr> enumerate_ruletrees(idx_t n, idx_t leaf) {
  util::require(util::is_pow2(n) && n >= 2, "enumerate: 2-power n required");
  std::vector<RuleTreePtr> out;
  if (n <= leaf) out.push_back(RuleTree::leaf(n));
  for (idx_t m : rewrite::possible_splits(n)) {
    for (const auto& lt : enumerate_ruletrees(m, leaf)) {
      for (const auto& rt : enumerate_ruletrees(n / m, leaf)) {
        out.push_back(RuleTree::node(BreakdownKind::kCooleyTukey, lt, rt));
      }
    }
  }
  return out;
}

SearchResult exhaustive_search(idx_t n, const CostFn& cost, idx_t leaf) {
  const auto trees = enumerate_ruletrees(n, leaf);
  util::require(!trees.empty(), "exhaustive_search: empty space");
  SearchResult r;
  for (const auto& t : trees) {
    const double c = cost(t);
    ++r.evaluations;
    if (!r.tree || c < r.cost) {
      r.tree = t;
      r.cost = c;
    }
  }
  return r;
}

namespace {

RuleTreePtr random_tree(idx_t n, idx_t leaf, util::Rng& rng) {
  const auto splits = rewrite::possible_splits(n);
  const bool can_leaf = n <= leaf;
  if (splits.empty() || (can_leaf && rng.uniform_int(0, 1) == 0)) {
    return RuleTree::leaf(n);
  }
  const idx_t m =
      splits[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<idx_t>(splits.size()) - 1))];
  return RuleTree::node(BreakdownKind::kCooleyTukey,
                        random_tree(m, leaf, rng),
                        random_tree(n / m, leaf, rng));
}

}  // namespace

SearchResult random_search(idx_t n, const CostFn& cost, int samples,
                           util::Rng& rng, idx_t leaf) {
  util::require(samples >= 1, "random_search: need at least one sample");
  SearchResult r;
  for (int i = 0; i < samples; ++i) {
    auto t = random_tree(n, leaf, rng);
    const double c = cost(t);
    ++r.evaluations;
    if (!r.tree || c < r.cost) {
      r.tree = t;
      r.cost = c;
    }
  }
  return r;
}

}  // namespace spiral::search
