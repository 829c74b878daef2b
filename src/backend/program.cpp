#include "backend/program.hpp"

#include <algorithm>
#include <stdexcept>

#include "backend/codelets.hpp"

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
  for (const auto& s : list_.stages) {
    if (!s.in_map.empty() || !s.out_map.empty()) {
      throw std::invalid_argument("Program: stage '" + s.label +
                                  "' is addressed through an index table");
    }
    max_p_ = std::max(max_p_, static_cast<int>(s.parallel_p));
  }
}

namespace {

/// Executes iterations [lo, hi) of a stage. `sp` is the stage's active
/// SIMD plan or null; an active plan routes through the lane-batched
/// vector drivers (scalar head/tail for unaligned chunk bounds).
void run_chunk(const Stage& s, const simd::StagePlan* sp, const cplx* src,
               cplx* dst, idx_t lo, idx_t hi) {
  if (sp != nullptr) {
    simd::run_stage_simd(s, *sp, src, dst, lo, hi);
  } else {
    run_stage_scalar(s, src, dst, lo, hi);
  }
}

/// Runs the iterations stage `s` assigns to `task` (of `tasks` threads):
/// contiguous chunks by default, block-cyclic when sched_block > 0.
void run_task(const Stage& s, const simd::StagePlan* sp, const cplx* src,
              cplx* dst, idx_t task, idx_t tasks) {
  if (s.sched_block == 0) {
    run_chunk(s, sp, src, dst, task * s.iters / tasks,
              (task + 1) * s.iters / tasks);
    return;
  }
  const idx_t b = s.sched_block;
  for (idx_t base = task * b; base < s.iters; base += tasks * b) {
    run_chunk(s, sp, src, dst, base, std::min(base + b, s.iters));
  }
}

/// Runs the stage slice of pool participant `tid` (of `workers`): the
/// stage's logical tasks are folded onto the available threads when the
/// pool is smaller than parallel_p.
void run_participant(const Stage& s, const simd::StagePlan* sp,
                     const cplx* src, cplx* dst, int tid, int workers) {
  const idx_t tasks = std::max<idx_t>(s.parallel_p, workers);
  for (idx_t t = tid; t < tasks; t += workers) {
    run_task(s, sp, src, dst, t, tasks);
  }
}

}  // namespace

void Program::execute(ExecContext& ctx, const cplx* x, cplx* y) const {
  util::require(!list_.stages.empty(), "empty program");
  const auto& st = list_.stages;
  ctx.ensure_buffers(list_.n, st.size() > 1);
  // The worker team: the context's (borrowed or leased) pool for parallel
  // programs, none for sequential ones.
  threading::ThreadPool* pool = nullptr;
  if (policy_ != ExecPolicy::kSequential && max_p_ > 1) {
    pool = ctx.pool_for(max_p_);
  }
  const int workers = pool != nullptr ? pool->size() : 1;
  threading::SpinBarrier* barrier =
      workers > 1 ? &ctx.stage_barrier_for(workers) : nullptr;
  const cplx* first_src = x;
  if (x == y && st.size() == 1) {
    // Single-stage in-place: stage maps may collide; stage through a copy.
    std::copy(x, x + list_.n, ctx.buf_[0].begin());
    first_src = ctx.buf_[0].data();
  }
  cplx* const buf0 = ctx.buf_[0].data();
  cplx* const buf1 = ctx.buf_[1].data();
  // Stages apply right-to-left: st.back() first. Intermediates ping-pong
  // between the two scratch buffers; the last stage writes into y. (With
  // x == y and more than one stage, the first stage already moves the
  // data out of the caller's buffer, so the final write is safe.)
  //
  // One fork for the whole program: every participant walks the stage
  // list with thread-local src/dst ping-pong pointers (the walk is
  // deterministic, so all workers agree without sharing state) and
  // crosses the context's spin barrier once per stage transition. The
  // pool's own dispatch/completion barriers bracket the walk, so the
  // caller observes full fork/join semantics for the program while each
  // interior stage boundary costs a single barrier crossing instead of a
  // fork/join pair. Without a team the caller is participant 0 of 1.
  auto walk = [&](int tid) {
    const cplx* src = first_src;
    int flip = 0;
    for (std::size_t k = st.size(); k-- > 0;) {
      const std::size_t si = g_pingpong_mutation ? st.size() - 1 - k : k;
      const Stage& s = st[si];
      const simd::StagePlan* sp = simd_plan_for(si);
      cplx* dst;
      if (k == 0) {
        dst = y;
      } else {
        dst = flip ? buf1 : buf0;
        flip ^= 1;
      }
      if (s.parallel_p <= 1 || workers == 1) {
        // Sequential stage (or no team): participant 0 runs it alone; the
        // others go straight to the barrier.
        if (tid == 0) run_chunk(s, sp, src, dst, 0, s.iters);
      } else {
        run_participant(s, sp, src, dst, tid, workers);
      }
      // A stage transition needs a barrier only when a worker could read
      // data another worker wrote: two adjacent participant-0-only stages
      // hand data to themselves, so the crossing is elided. (Under the
      // ping-pong mutation the walk order is scrambled, so always cross.)
      if (barrier != nullptr && k != 0 &&
          (g_pingpong_mutation || s.parallel_p > 1 ||
           st[k - 1].parallel_p > 1)) {
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
  simd_plans_.clear();
  simd_on_ = false;
  const simd::Isa isa = simd::detect_isa();
  if (nu < 2 || isa == simd::Isa::kScalar) return;
  simd_plans_.reserve(list_.stages.size());
  for (const auto& s : list_.stages) {
    simd_plans_.push_back(simd::plan_stage(s, nu, isa));
    simd_on_ = simd_on_ || simd_plans_.back().active;
  }
  if (!simd_on_) simd_plans_.clear();
}

}  // namespace spiral::backend
