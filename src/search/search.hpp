// Spiral's evaluation/search level (Section 2.3): explores the space of
// ruletrees for a transform size and picks the fastest according to a
// user-supplied cost function — the planner's is measured wall-clock time
// on the host (search::walltime_cost), as FFTW's planner measures.
//
// Implemented strategies:
//   * Dynamic programming (the workhorse in Spiral): best tree for size n
//     combines the memoized best trees for the factors of each split.
//   * Exhaustive search over all binary 2-power ruletrees (small sizes).
//   * Random search (baseline for search-quality experiments).
#pragma once

#include <functional>
#include <map>
#include <vector>

#include "rewrite/breakdown.hpp"
#include "util/rng.hpp"

namespace spiral::search {

using rewrite::RuleTreePtr;

/// Cost of executing the full transform whose expansion is `tree`
/// (lower is better). The function receives the complete ruletree for
/// DFT_{tree->n}; implementations lower it and time it.
using CostFn = std::function<double(const RuleTreePtr& tree)>;

struct SearchResult {
  RuleTreePtr tree;
  double cost = 0.0;
  int evaluations = 0;  ///< number of cost-function calls
};

/// Dynamic programming over Cooley-Tukey splits: for every 2-power size
/// k <= n, the best tree is the best split m of k combined with the
/// memoized best trees of m and k/m (leaves up to `leaf` allowed).
class DpSearch {
 public:
  explicit DpSearch(CostFn cost, idx_t leaf = rewrite::kMaxCodeletSize)
      : cost_(std::move(cost)), leaf_(leaf) {}

  /// Runs DP for DFT_n and returns the best tree found.
  SearchResult best(idx_t n);

  /// The memoized best trees discovered so far (size -> tree): the raw
  /// material for wisdom plan descriptors (src/wisdom/) — exporting this
  /// map lets another process replay the tuned expansion without paying
  /// for the search again.
  [[nodiscard]] const std::map<idx_t, RuleTreePtr>& memo() const {
    return memo_;
  }

 private:
  RuleTreePtr best_tree(idx_t n);

  CostFn cost_;
  idx_t leaf_;
  std::map<idx_t, RuleTreePtr> memo_;
  int evals_ = 0;
};

/// Enumerates all binary Cooley-Tukey ruletrees for a 2-power n (leaves
/// up to `leaf`). Exponential — intended for n <= 2^10.
[[nodiscard]] std::vector<RuleTreePtr> enumerate_ruletrees(
    idx_t n, idx_t leaf = rewrite::kMaxCodeletSize);

/// Exhaustive search: evaluates every tree from enumerate_ruletrees.
[[nodiscard]] SearchResult exhaustive_search(
    idx_t n, const CostFn& cost, idx_t leaf = rewrite::kMaxCodeletSize);

/// Random search: samples `samples` random ruletrees.
[[nodiscard]] SearchResult random_search(
    idx_t n, const CostFn& cost, int samples, util::Rng& rng,
    idx_t leaf = rewrite::kMaxCodeletSize);

/// Process-wide count of DpSearch::best() runs. The wisdom tests use the
/// delta across a planning call to prove that an imported descriptor
/// skipped the autotuning search entirely.
[[nodiscard]] std::uint64_t dp_search_invocations() noexcept;

}  // namespace spiral::search
