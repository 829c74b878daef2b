#include "search/cost.hpp"

#include "analysis/locality.hpp"
#include "backend/lower.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace spiral::search {

CostFn walltime_cost() {
  return [](const RuleTreePtr& tree) -> double {
    auto f = rewrite::formula_from_ruletree(tree);
    auto list = backend::lower_fused(f);
    backend::Program prog(std::move(list), backend::ExecPolicy::kSequential);
    util::Rng rng(static_cast<std::uint64_t>(tree->n));
    const auto x = rng.complex_signal(tree->n);
    util::cvec y(x.size());
    return util::time_min_seconds([&] { prog.execute(x.data(), y.data()); },
                                  3, 2e-4);
  };
}

CostFn simulated_cost(const machine::MachineConfig& m) {
  return [m](const RuleTreePtr& tree) -> double {
    auto f = rewrite::formula_from_ruletree(tree);
    auto list = backend::lower_fused(f);
    machine::SimOptions opt;
    opt.threads = 1;
    return machine::simulate(list, m, opt).cycles;
  };
}

CostFn simulated_parallel_cost(const machine::MachineConfig& m, idx_t p,
                               idx_t mu) {
  return [m, p, mu](const RuleTreePtr& tree) -> double {
    const idx_t n = tree->n;
    // The tree's root split doubles as the multicore CT split; inner
    // subtrees expand the per-processor blocks. Trees whose root split
    // violates the p*mu divisibility cannot be parallelized -> +inf.
    if (tree->kind == rewrite::BreakdownKind::kBaseCase) return kInfeasibleCost;
    const idx_t ms = tree->left->n;
    const idx_t ns = tree->right->n;
    if (ms % (p * mu) != 0 || ns % (p * mu) != 0) return kInfeasibleCost;
    auto f = rewrite::derive_multicore_ct(n, ms, p, mu);
    // Expand the inner DFT_m / DFT_n with the tree's own subtrees.
    auto chooser = [&](idx_t sz) -> RuleTreePtr {
      if (sz == ms) return tree->left;
      if (sz == ns) return tree->right;
      return rewrite::balanced_ruletree(sz);
    };
    auto g = rewrite::expand_dfts(f, chooser);
    auto list = backend::lower_fused(g);
    machine::SimOptions opt;
    opt.threads = static_cast<int>(p);
    opt.thread_pool = true;
    return machine::simulate(list, m, opt).cycles;
  };
}

CostFn locality_model_parallel_cost(const machine::MachineConfig& m,
                                    idx_t p, idx_t mu) {
  return [m, p, mu](const RuleTreePtr& tree) -> double {
    const idx_t n = tree->n;
    // Same admissibility rule as simulated_parallel_cost: the model must
    // reject exactly the candidates the simulator would, or pruning
    // could resurrect an unparallelizable split.
    if (tree->kind == rewrite::BreakdownKind::kBaseCase) return kInfeasibleCost;
    const idx_t ms = tree->left->n;
    const idx_t ns = tree->right->n;
    if (ms % (p * mu) != 0 || ns % (p * mu) != 0) return kInfeasibleCost;
    auto f = rewrite::derive_multicore_ct(n, ms, p, mu);
    auto chooser = [&](idx_t sz) -> RuleTreePtr {
      if (sz == ms) return tree->left;
      if (sz == ns) return tree->right;
      return rewrite::balanced_ruletree(sz);
    };
    auto g = rewrite::expand_dfts(f, chooser);
    auto list = backend::lower_fused(g);
    analysis::LocalityOptions opt;
    opt.threads = static_cast<int>(p);
    return analysis::analyze_locality(list, m, opt).pred_cycles;
  };
}

}  // namespace spiral::search
