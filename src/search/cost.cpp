#include "search/cost.hpp"

#include "backend/lower.hpp"
#include "backend/program.hpp"
#include "rewrite/expand.hpp"
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

}  // namespace spiral::search
