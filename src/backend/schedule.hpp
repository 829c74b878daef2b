// The iteration schedule of a stage: which iterations task t of T runs.
// It is defined here once, and every reader of a parallel stage calls
// it: the interpreter executes it (Program), the verifier proves
// Definition 1 over it (analysis::verify), and the C emitter dispatches
// its chunks. The interpreter folds exactly stage_tasks(s) tasks onto its
// team, so the partition the verifier proves is the one that runs.
#pragma once

#include <algorithm>
#include <utility>

#include "backend/stage.hpp"

namespace spiral::backend {

/// The tasks a stage splits into: parallel_p, or 1 for a sequential stage.
[[nodiscard]] inline idx_t stage_tasks(const Stage& s) noexcept {
  return std::max<idx_t>(s.parallel_p, 1);
}

/// Calls run(lo, hi) for each run [lo, hi) of the iterations of
/// [0, iters) that task t of T executes, in order, skipping empty ones.
/// block == 0 (or T == 1) gives one contiguous chunk
/// [t*iters/T, (t+1)*iters/T): rule (7)'s µ-aware schedule. block > 0
/// gives the blocks [j*block, (j+1)*block) with j % T == t: the
/// block-cyclic schedule of FFTW 3.1's loop parallelizer.
template <class Run>
void for_each_run(idx_t iters, idx_t block, idx_t t, idx_t T, Run&& run) {
  if (block == 0 || T == 1) {
    const idx_t lo = t * iters / T;
    const idx_t hi = (t + 1) * iters / T;
    if (lo < hi) run(lo, hi);
    return;
  }
  for (idx_t lo = t * block; lo < iters; lo += T * block) {
    run(lo, std::min(lo + block, iters));
  }
}

/// The runs of stage s's task t of T (its sched_block schedule).
template <class Run>
void for_each_run(const Stage& s, idx_t t, idx_t T, Run&& run) {
  for_each_run(s.iters, s.sched_block, t, T, std::forward<Run>(run));
}

/// The task of T whose runs hold iteration `it` of stage s.
[[nodiscard]] inline idx_t task_of(const Stage& s, idx_t T, idx_t it) {
  if (T <= 1) return 0;
  if (s.sched_block > 0) return (it / s.sched_block) % T;
  idx_t t = it * T / s.iters;
  while ((t + 1) * s.iters / T <= it) ++t;
  while (t * s.iters / T > it) --t;
  return t;
}

}  // namespace spiral::backend
