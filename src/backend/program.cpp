#include "backend/program.hpp"

#include <algorithm>

#include "backend/codelets.hpp"

namespace spiral::backend {

const char* to_string(ExecPolicy p) {
  switch (p) {
    case ExecPolicy::kSequential: return "sequential";
    case ExecPolicy::kThreadPool: return "pthreads";
    case ExecPolicy::kJit: return "jit";
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
    return;
  }
  if (s.is_compute) {
    const idx_t cn = s.cn;
    for (idx_t it = lo; it < hi; ++it) {
      CodeletIo io;
      // Affine-compacted sides address through base pointer + stride (the
      // codelets' strided fast path); materialized sides stream the int32
      // gather/scatter tables.
      if (s.in_affine) {
        io.x = src + s.in_aff.base + it * s.in_aff.iter_stride;
        io.in_stride = s.in_aff.elem_stride;
      } else {
        io.x = src;
        io.in_map = s.in_map.data() + it * cn;
      }
      if (s.out_affine) {
        io.y = dst + s.out_aff.base + it * s.out_aff.iter_stride;
        io.out_stride = s.out_aff.elem_stride;
      } else {
        io.y = dst;
        io.out_map = s.out_map.data() + it * cn;
      }
      io.in_scale =
          s.in_scale.empty() ? nullptr : s.in_scale.data() + it * cn;
      io.out_scale =
          s.out_scale.empty() ? nullptr : s.out_scale.data() + it * cn;
      if (s.wht) {
        wht_codelet(cn, io);
      } else {
        dft_codelet(cn, s.sign, io);
      }
    }
    return;
  }
  // Pure data stage (cn == 1).
  if (s.in_affine && s.out_affine) {
    const cplx* in = src + s.in_aff.base;
    cplx* out = dst + s.out_aff.base;
    const idx_t is = s.in_aff.iter_stride;
    const idx_t os = s.out_aff.iter_stride;
    if (s.in_scale.empty()) {
      if (is == 1 && os == 1) {
        std::copy(in + lo, in + hi, out + lo);
      } else {
        for (idx_t j = lo; j < hi; ++j) out[j * os] = in[j * is];
      }
    } else {
      for (idx_t j = lo; j < hi; ++j) {
        out[j * os] = s.in_scale[std::size_t(j)] * in[j * is];
      }
    }
    return;
  }
  if (s.in_scale.empty()) {
    for (idx_t j = lo; j < hi; ++j) {
      dst[s.out_index(j, 0)] = src[s.in_index(j, 0)];
    }
  } else {
    for (idx_t j = lo; j < hi; ++j) {
      dst[s.out_index(j, 0)] =
          s.in_scale[std::size_t(j)] * src[s.in_index(j, 0)];
    }
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
  if (policy_ == ExecPolicy::kJit && jit_fn_ &&
      jit_state_.load(std::memory_order_acquire) != kJitDemoted) {
    execute_jit(ctx, x, y);
    return;
  }
  execute_interp(ctx, x, y);
}

void Program::execute_interp(ExecContext& ctx, const cplx* x, cplx* y) const {
  const auto& st = list_.stages;
  ctx.ensure_buffers(list_.n, st.size() > 1);
  // The worker team: the context's (borrowed or leased) pool for parallel
  // programs, none for sequential ones. kJit programs fall back to the
  // pooled walk (before a native executor is installed, or after a parity
  // demotion).
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

void Program::install_jit(JitFn fn, bool verify_first) {
  jit_fn_ = std::move(fn);
  jit_verify_first_ = verify_first;
  jit_state_.store(verify_first ? kJitUnchecked : kJitVerified,
                   std::memory_order_release);
  policy_ = ExecPolicy::kJit;
}

std::string Program::jit_runtime_diag() const {
  std::lock_guard<std::mutex> lock(jit_gate_);
  return jit_diag_;
}

void Program::jit_call(const cplx* x, cplx* y, ExecContext& ctx) const {
  jit_fn_(reinterpret_cast<const double*>(x), reinterpret_cast<double*>(y),
          reinterpret_cast<double*>(ctx.buf_[0].data()),
          reinterpret_cast<double*>(ctx.buf_[1].data()));
}

void Program::execute_jit(ExecContext& ctx, const cplx* x, cplx* y) const {
  // The native entry ping-pongs through caller-provided scratch; both
  // buffers must exist even when the program would not otherwise need
  // them (single-stage programs simply ignore the pointers).
  ctx.ensure_buffers(list_.n, true);
  util::cvec inplace_copy;
  if (x == y) {
    // The native program streams from x while writing y; with aliased
    // buffers stage the input through a private copy first.
    inplace_copy.assign(x, x + list_.n);
    x = inplace_copy.data();
  }
  if (jit_verify_first_ &&
      jit_state_.load(std::memory_order_acquire) == kJitUnchecked) {
    std::lock_guard<std::mutex> lock(jit_gate_);
    if (jit_state_.load(std::memory_order_relaxed) == kJitUnchecked) {
      // First execution: compute the interpreter reference, then the
      // native result, and only trust the module if they agree. The
      // caller gets a correct answer either way.
      util::cvec ref(static_cast<std::size_t>(list_.n));
      execute_interp(ctx, x, ref.data());
      ctx.ensure_buffers(list_.n, true);
      jit_call(x, y, ctx);
      double err = 0.0;
      double mag = 0.0;
      for (idx_t i = 0; i < list_.n; ++i) {
        err = std::max(err, std::abs(y[i] - ref[std::size_t(i)]));
        mag = std::max(mag, std::abs(ref[std::size_t(i)]));
      }
      if (err <= 1e-9 * std::max(1.0, mag)) {
        jit_state_.store(kJitVerified, std::memory_order_release);
      } else {
        jit_diag_ =
            "first-execution parity gate: native result deviates from the "
            "interpreter by " +
            std::to_string(err) + " (reference magnitude " +
            std::to_string(mag) + "); demoted to interpreter";
        std::copy(ref.begin(), ref.end(), y);
        jit_state_.store(kJitDemoted, std::memory_order_release);
      }
      return;
    }
    if (jit_state_.load(std::memory_order_relaxed) == kJitDemoted) {
      // Another caller demoted the program while we waited for the gate.
      execute_interp(ctx, x, y);
      return;
    }
  }
  jit_call(x, y, ctx);
}

}  // namespace spiral::backend
