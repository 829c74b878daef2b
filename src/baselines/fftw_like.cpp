#include "baselines/fftw_like.hpp"

#include "backend/lower.hpp"
#include "rewrite/breakdown.hpp"
#include "rewrite/expand.hpp"

namespace spiral::baselines {

backend::StageList fftw_like_plan(idx_t n, const FftwLikeOptions& opts) {
  util::require(util::is_pow2(n) && n >= 2, "fftw_like: 2-power n required");
  // Recursive planner: balanced CT ruletree over the shared codelets,
  // fully fused readdressing — the same sequential engine quality as the
  // generated code.
  auto tree = n <= opts.leaf ? rewrite::RuleTree::leaf(n)
                             : rewrite::balanced_ruletree(n, opts.leaf);
  auto f = rewrite::formula_from_ruletree(tree);
  backend::StageList list = backend::lower_fused(f);

  if (opts.threads > 1 && n >= opts.min_parallel_n) {
    // Loop parallelization: every loop the planner finds is annotated for
    // block-cyclic execution over the thread team. No mu-awareness: the
    // block size is an iteration count, not a cache-line multiple.
    for (auto& s : list.stages) {
      if (s.iters >= static_cast<idx_t>(opts.threads)) {
        s.parallel_p = opts.threads;
        s.sched_block = opts.sched_block;
      }
    }
  }
  return list;
}

FftwLikeExecutor::FftwLikeExecutor(backend::StageList plan)
    : plan_(std::move(plan)) {
  plan_n_ = plan_.n;
  for (const auto& s : plan_.stages) {
    max_p_ = std::max<idx_t>(max_p_, s.parallel_p);
  }
  parallel_ = max_p_ > 1;
  program_ = std::make_unique<backend::Program>(
      plan_, parallel_ ? backend::ExecPolicy::kThreadPool
                       : backend::ExecPolicy::kSequential);
}

void FftwLikeExecutor::execute(const cplx* x, cplx* y) {
  if (!parallel_) {
    program_->execute(ctx_, x, y);
    return;
  }
  // Per-call thread management: start the team, run, tear it down — the
  // cost FFTW 3.1 pays without (working) thread pooling.
  threading::ThreadPool pool(static_cast<int>(max_p_));
  ctx_.set_pool(&pool);
  program_->execute(ctx_, x, y);
  ctx_.set_pool(nullptr);
}

}  // namespace spiral::baselines
