// FFTW-3.1-like adaptive FFT library (the paper's main comparison point).
//
// This baseline is deliberately honest (DESIGN.md, "FFTW-like baseline"):
//
//  * SEQUENTIAL QUALITY: it plans with the same codelets and recursive
//    Cooley-Tukey decompositions as the generated Spiral code and fuses
//    its permutations, so sequential performance is within a few percent
//    of Spiral-generated sequential code — matching the paper ("Spiral-
//    generated sequential code is within 10% of FFTW's performance").
//
//  * PARALLELIZATION MODEL (where it differs, per the paper's analysis of
//    the FFTW 3.1 source, Section 3.2):
//      - it parallelizes the loops it finds in the plan, scheduling them
//        BLOCK-CYCLICALLY, without using the cache line length mu or the
//        interplay of p and mu -> strided loops false-share;
//      - thread pooling is unavailable (experimental/broken in FFTW 3.1
//        per Section 4): every parallel transform pays thread start-up;
//      - consequently its planner only selects threads when the problem
//        is large enough to amortize those costs.
#pragma once

#include <memory>

#include "backend/program.hpp"
#include "backend/stage.hpp"
#include "rewrite/breakdown.hpp"

namespace spiral::baselines {

struct FftwLikeOptions {
  int threads = 1;  ///< max threads the planner may use
  idx_t leaf = rewrite::kMaxCodeletSize;  ///< codelet leaf size
  /// Block size of the block-cyclic loop schedule (iterations per block).
  /// FFTW 3.1 picks this without regard to the cache line length mu (the
  /// paper: "mu and the interplay of p and mu is not explicitly used") —
  /// there is no *guarantee* against false sharing. The default of 4
  /// happens to align with a 64-byte line of complex doubles (the common
  /// benign case, which is why FFTW's large-size numbers are good);
  /// setting 1 or 2 exposes the unsuited schedules its search may also
  /// pick (the verifier's kFalseSharing flags them statically).
  idx_t sched_block = 4;
  /// Smallest size at which the planner considers threads at all (FFTW's
  /// documentation: multithreading pays off only "beyond several thousand
  /// data points"). The measured crossover emerges from the overheads;
  /// this is just the planner's search cutoff.
  idx_t min_parallel_n = 256;
};

/// Plans DFT_n the way FFTW 3.1 would: recursive CT with fused
/// readdressing; if opts.threads > 1 and n >= min_parallel_n, the plan's
/// loops are annotated for block-cyclic parallel execution.
[[nodiscard]] backend::StageList fftw_like_plan(idx_t n,
                                                const FftwLikeOptions& opts);

/// Executes an FFTW-like plan with per-call thread management: a fresh
/// thread team is started for every execute() call (no persistent pool),
/// reproducing the overhead the paper identifies.
class FftwLikeExecutor {
 public:
  explicit FftwLikeExecutor(backend::StageList plan);

  void execute(const cplx* x, cplx* y);

  [[nodiscard]] idx_t size() const noexcept { return plan_n_; }
  [[nodiscard]] bool parallel() const noexcept { return parallel_; }
  [[nodiscard]] const backend::StageList& stages() const {
    return program_ ? program_->stages() : plan_;
  }

 private:
  backend::StageList plan_;
  std::unique_ptr<backend::Program> program_;
  backend::ExecContext ctx_;  // scratch buffers reused across calls
  idx_t plan_n_ = 0;
  bool parallel_ = false;
  idx_t max_p_ = 1;
};

}  // namespace spiral::baselines
