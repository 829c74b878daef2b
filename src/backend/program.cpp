#include "backend/program.hpp"

#include <algorithm>
#include <stdexcept>

#include "backend/schedule.hpp"

namespace spiral::backend {

const char* to_string(ExecPolicy p) {
  switch (p) {
    case ExecPolicy::kSequential: return "sequential";
    case ExecPolicy::kThreadPool: return "pthreads";
  }
  return "?";
}

namespace {
// spiral-lint --mutate-pingpong: reverse the stage application order.
bool g_pingpong_mutation = false;
}  // namespace

void set_pingpong_mutation(bool enabled) noexcept {
  g_pingpong_mutation = enabled;
}
bool pingpong_mutation() noexcept { return g_pingpong_mutation; }

Program::Program(StageList stages, ExecPolicy policy)
    : list_(std::move(stages)), policy_(policy) {
  const std::size_t count = list_.stages.size();
  for (const auto& s : list_.stages) {
    if (!s.in_map.empty() || !s.out_map.empty()) {
      throw std::invalid_argument("Program: stage '" + s.label +
                                  "' is addressed through an index table");
    }
    max_p_ = std::max(max_p_, static_cast<int>(stage_tasks(s)));
  }
  // The walk in execution order: every group is one step, every other
  // stage its own. A group's first read and last write keep the stage's
  // maps; everything in between lives in one block.
  for (const StageGroup& g : find_stage_groups(list_)) {
    GroupExec ge;
    ge.group = g;
    for (std::size_t m = 0; m < g.count; ++m) {
      const Stage& s = list_.stages[g.stage(m, count)];
      ge.in.push_back(m == 0 ? s.in_bits : rebase_to_block(s.in_bits));
      ge.out.push_back(m + 1 == g.count ? s.out_bits
                                        : rebase_to_block(s.out_bits));
    }
    groups_.push_back(std::move(ge));
  }
  enable_simd(1);
  std::size_t next_group = 0;
  for (std::size_t e = 0; e < count;) {
    Step step;
    step.stage = count - 1 - e;
    if (next_group < groups_.size() &&
        groups_[next_group].group.first == e) {
      step.group = static_cast<int>(next_group);
      e += groups_[next_group++].group.count;
    } else {
      ++e;
    }
    steps_.push_back(step);
  }
}

namespace {

/// Calls run(task, tasks) for each task of a step split into `tasks`
/// that pool participant `tid` (of `workers`) owns: tasks tid,
/// tid + workers, ... A team smaller than `tasks` folds them; a larger
/// one leaves its extra participants idle for the step. A lone
/// participant runs the whole step as task 0 of 1.
template <class Run>
void for_my_tasks(idx_t tasks, int tid, int workers, Run&& run) {
  if (workers == 1) {
    run(idx_t{0}, idx_t{1});
    return;
  }
  for (idx_t t = tid; t < tasks; t += workers) run(t, tasks);
}

}  // namespace

void Program::run_group(const GroupExec& g, const cplx* src, cplx* dst,
                        cplx* scratch, int tid, int workers) const {
  const std::size_t count = list_.stages.size();
  const std::size_t members = g.group.count;
  const idx_t block = kGroupBlock;
  const idx_t blocks = list_.n / block;
  const idx_t tasks = stage_tasks(list_.stages[g.group.stage(0, count)]);
  // Blocks are closed under the group's stages, so any assignment of
  // blocks to tasks is race-free: each task takes a contiguous share,
  // and each block runs through every member before the next starts.
  for_my_tasks(tasks, tid, workers, [&](idx_t t, idx_t team_tasks) {
    for_each_run(blocks, 0, t, team_tasks, [&](idx_t lo, idx_t hi) {
      for (idx_t j = lo; j < hi; ++j) {
        for (std::size_t m = 0; m < members; ++m) {
          const Stage& s = list_.stages[g.group.stage(m, count)];
          const cplx* in = m == 0 ? src : scratch + ((m - 1) % 2) * block;
          cplx* out = m + 1 == members ? dst : scratch + (m % 2) * block;
          simd::run_stage(s, g.in[m], g.out[m], g.plans[m], in, out,
                          j * block / s.cn, (j + 1) * block / s.cn);
        }
      }
    });
  });
}

void Program::execute(ExecContext& ctx, const cplx* x, cplx* y) const {
  util::require(!list_.stages.empty(), "empty program");
  const auto& st = list_.stages;
  // Under the ping-pong mutation the walk visits lone stages in the
  // reversed order.
  std::vector<Step> reversed;
  const std::vector<Step>* steps = &steps_;
  if (g_pingpong_mutation) {
    for (std::size_t k = 0; k < st.size(); ++k) reversed.push_back({k, -1});
    steps = &reversed;
  }
  const std::size_t nsteps = steps->size();
  ctx.ensure_buffers(list_.n, nsteps > 2);
  // The worker team: the context's (borrowed or leased) pool for parallel
  // programs, none for sequential ones.
  threading::ThreadPool* pool = nullptr;
  if (policy_ != ExecPolicy::kSequential && max_p_ > 1) {
    pool = ctx.pool_for(max_p_);
  }
  const int workers = pool != nullptr ? pool->size() : 1;
  threading::SpinBarrier* barrier = workers > 1 ? &pool->barrier() : nullptr;
  cplx* scratch = nullptr;
  if (!groups_.empty() && !g_pingpong_mutation) {
    ctx.ensure_group_scratch(2 * kGroupBlock * workers);
    scratch = ctx.group_scratch_.data();
  }
  const cplx* first_src = x;
  if (x == y && nsteps == 1) {
    // Single-step in-place: its maps may collide; stage through a copy.
    std::copy(x, x + list_.n, ctx.buf_[0].begin());
    first_src = ctx.buf_[0].data();
  }
  cplx* const buf0 = ctx.buf_[0].data();
  cplx* const buf1 = ctx.buf_[1].data();
  // Stages apply right-to-left: st.back() first. Intermediates ping-pong
  // between the two scratch buffers; the last step writes into y. (With
  // x == y and more than one step, the first step already moves the
  // data out of the caller's buffer, so the final write is safe.) A stage
  // group is one step: its own intermediates stay in per-worker block
  // buffers.
  //
  // One fork for the whole program: every participant walks the steps
  // with thread-local src/dst ping-pong pointers (the walk is
  // deterministic, so all workers agree without sharing state), runs its
  // tasks of each step's schedule (backend/schedule: stage_tasks(s)
  // tasks, the partition the verifier proves) and crosses the team's
  // spin barrier once per step transition. Every participant makes the
  // same crossings, so the pool's completion, one more crossing of the
  // same barrier, ends the walk: the caller observes full fork/join
  // semantics for the program while each interior step boundary costs a
  // single barrier crossing instead of a fork/join pair. Without a team
  // the caller is participant 0 of 1.
  auto walk = [&](int tid) {
    const cplx* src = first_src;
    int flip = 0;
    for (std::size_t i = 0; i < nsteps; ++i) {
      const Step& step = (*steps)[i];
      cplx* dst;
      if (i + 1 == nsteps) {
        dst = y;
      } else {
        dst = flip ? buf1 : buf0;
        flip ^= 1;
      }
      if (step.group >= 0) {
        run_group(groups_[static_cast<std::size_t>(step.group)], src, dst,
                  scratch + 2 * kGroupBlock * tid, tid, workers);
      } else {
        const Stage& s = st[step.stage];
        const simd::StagePlan& sp = plans_[step.stage];
        for_my_tasks(stage_tasks(s), tid, workers, [&](idx_t t, idx_t tasks) {
          for_each_run(s, t, tasks, [&](idx_t lo, idx_t hi) {
            simd::run_stage(s, s.in_bits, s.out_bits, sp, src, dst, lo, hi);
          });
        });
      }
      // A step transition needs a barrier only when a worker could read
      // data another worker wrote: two adjacent participant-0-only steps
      // hand data to themselves, so the crossing is elided. (Under the
      // ping-pong mutation the walk order is scrambled, so always cross.)
      if (barrier != nullptr && i + 1 != nsteps &&
          (g_pingpong_mutation || stage_tasks(st[step.stage]) > 1 ||
           stage_tasks(st[(*steps)[i + 1].stage]) > 1)) {
        barrier->wait();
      }
      src = dst;
    }
  };
  if (workers > 1) {
    pool->run(walk);
  } else {
    walk(0);
  }
}

void Program::enable_simd(idx_t nu) {
  const simd::Isa isa = simd::detect_isa();
  plans_.clear();
  for (const auto& s : list_.stages) {
    plans_.push_back(simd::plan_stage(s, nu, isa));
    if (plans_.back().fn == nullptr) {
      throw std::invalid_argument("Program: no codelet driver serves stage '" +
                                  s.label + "'");
    }
  }
  const std::size_t count = list_.stages.size();
  for (auto& g : groups_) {
    g.plans.clear();
    for (std::size_t m = 0; m < g.group.count; ++m) {
      const std::size_t si = g.group.stage(m, count);
      g.plans.push_back(simd::plan_sides(plans_[si], list_.stages[si],
                                         g.in[m], g.out[m]));
    }
    // The last member's write to the full-size buffer streams past the
    // cache when the buffer exceeds the team's combined L2: the next step
    // would find little of it there, and the stores skip the line reads.
    const Stage& last = list_.stages[g.group.stage(g.group.count - 1, count)];
    const auto team = static_cast<std::size_t>(stage_tasks(last));
    const bool beyond_l2 =
        static_cast<std::size_t>(list_.n) * sizeof(cplx) > team * kL2Bytes;
    simd::StagePlan& sp = g.plans.back();
    sp.stream_out =
        beyond_l2 && simd::can_stream_out(sp, last.cn, g.out.back());
  }
}

bool Program::simd_active() const noexcept {
  return std::any_of(plans_.begin(), plans_.end(),
                     [](const simd::StagePlan& p) { return p.width > 1; });
}

bool Program::group_streams(std::size_t g) const {
  return groups_[g].plans.back().stream_out;
}

}  // namespace spiral::backend
