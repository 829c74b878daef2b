// Public API of the library: plan and execute DFTs generated by the
// Spiral shared-memory framework.
//
// Quick start:
//
//   #include "core/spiral_fft.hpp"
//   using namespace spiral;
//
//   core::PlannerOptions opt;
//   opt.threads = 4;                       // p
//   opt.cache_line_complex = 4;            // mu (complex doubles per line)
//   auto plan = core::plan_dft(1 << 16, opt);
//   util::cvec x = ..., y(x.size());
//   plan->execute(x.data(), y.data());     // y = DFT(x)
//
// Concurrent execution: a plan is immutable after planning; all mutable
// per-execution state lives in a backend::ExecContext, so one shared plan
// can serve many client threads at once:
//
//   backend::ExecContext ctx;              // one per client thread
//   plan->execute(ctx, x.data(), y.data());
//
// The planner derives the multicore Cooley-Tukey FFT (paper formula (14))
// through the rewriting system whenever the size admits it, expands the
// per-processor blocks sequentially (optionally autotuned by dynamic
// programming), and lowers everything to fused loop stages. Planning can
// emit a wisdom::PlanDescriptor — a serializable record that rebuilds the
// identical plan later without re-running the search (see src/wisdom/).
#pragma once

#include <memory>
#include <string>

#include "backend/exec_context.hpp"
#include "backend/program.hpp"
#include "jit/jit.hpp"
#include "rewrite/breakdown.hpp"
#include "spl/formula.hpp"
#include "wisdom/descriptor.hpp"

namespace spiral::core {

/// Planning-time knobs.
struct PlannerOptions {
  /// Threads p to generate for. 1 = sequential code.
  int threads = 1;
  /// Cache line length mu, in complex<double> elements (64-byte line = 4).
  idx_t cache_line_complex = 4;
  /// Codelet leaf size for the sequential expansions.
  idx_t leaf = rewrite::kMaxCodeletSize;
  /// -1: forward DFT; +1: inverse (unscaled).
  int direction = -1;
  /// Autotune the sequential ruletrees with DP over measured wall-clock
  /// time (slower planning, faster plans) instead of the balanced
  /// default.
  bool autotune = false;
  /// Model-pruned autotuning (requires autotune): rank every DP
  /// candidate list with the static cache-locality model
  /// (analysis::locality predicted cycles, search::locality_model_cost)
  /// and measure only the top k candidates per size. 0 = measure all
  /// (classic DP). Cuts planning time for large N; the chosen plan is
  /// within tolerance of the full search's (asserted in test_search).
  int model_prune_k = 0;
  /// SIMD vector width in complex elements (0/1 = scalar). When set, the
  /// planner applies the short-vector rewriting rules so every lowered
  /// stage moves aligned nu-blocks (paper Section 3.2: "in tandem with
  /// the efficient short vector Cooley-Tukey FFT"). Requires
  /// vector_nu <= cache_line_complex for parallel plans. Falls back to
  /// scalar generation where preconditions fail.
  idx_t vector_nu = 0;
  /// Statically verify every lowered program at plan time
  /// (analysis::verify): races, false sharing, load balance and
  /// well-formedness of the stage IR. A finding makes planning throw
  /// std::logic_error — a plan that violates Definition 1 is a generator
  /// bug, never a valid product. On by default in debug builds; release
  /// planning skips the O(n) pass unless explicitly requested. Every plan
  /// the wisdom/plan-cache service hands out honours this flag too.
#ifdef NDEBUG
  bool verify_lowering = false;
#else
  bool verify_lowering = true;
#endif
  /// Compile the winning program to native code at plan time (src/jit/):
  /// the planner emits the program as C, invokes the system compiler,
  /// dlopens the shared object and installs its entry point as the plan's
  /// executor (ExecPolicy::kJit). Compiled objects are reused through a
  /// hash-keyed on-disk cache, so only the first plan of a given program
  /// ever pays for the compiler. Any failure along the way — no compiler,
  /// compile error, corrupt cache entry, dlopen failure — silently keeps
  /// the fused interpreter; FftPlan::jit_report() says what happened.
  bool jit = false;
  /// Parity-check the first execution of a JIT'd plan against the
  /// interpreter and permanently demote the plan to the interpreter on
  /// mismatch (the last rung of the JIT fallback ladder).
  bool jit_verify_first = true;
  /// Knobs forwarded to the JIT driver (compiler override, extra cflags,
  /// cache directory and budget). Defaults resolve from the environment.
  jit::Options jit_options;
};

/// An executable transform plan (analogous to an FFTW plan / a
/// Spiral-generated routine specialised for fixed N, p and mu).
///
/// Threading contract: the plan itself is immutable. execute(ctx, x, y)
/// is safe from any number of threads concurrently as long as every
/// caller brings its own ExecContext. The context-free execute(x, y)
/// wrapper routes through a thread-local context, so it too is safe to
/// call from multiple threads (each thread transparently gets its own
/// scratch buffers and worker team).
class FftPlan {
 public:
  FftPlan(spl::FormulaPtr formula, backend::StageList stages,
          const PlannerOptions& opt, std::string transform_name = "DFT");

  /// y = DFT(x) (or inverse) using the caller's context. x == y allowed.
  void execute(backend::ExecContext& ctx, const cplx* x, cplx* y) const;

  /// Convenience overload over a thread-local context.
  void execute(const cplx* x, cplx* y) const;

  [[nodiscard]] idx_t size() const noexcept { return n_; }
  [[nodiscard]] bool parallel() const noexcept { return threads_ > 1; }
  [[nodiscard]] int threads() const noexcept { return threads_; }

  /// The SPL formula this plan implements (for inspection).
  [[nodiscard]] const spl::FormulaPtr& formula() const noexcept {
    return formula_;
  }
  /// The lowered stage program (for inspection / simulation).
  [[nodiscard]] const backend::StageList& stages() const {
    return program_->stages();
  }
  /// Human-readable plan description.
  [[nodiscard]] std::string describe() const;

  /// Outcome of the plan-time JIT attempt (status kDisabled when the plan
  /// was not asked to JIT). The report's cache_key is what wisdom records.
  [[nodiscard]] const jit::Report& jit_report() const noexcept {
    return jit_report_;
  }
  /// True while the natively compiled executor serves execute() calls
  /// (installed and not demoted by the first-execution parity gate).
  [[nodiscard]] bool jit_active() const noexcept {
    return program_->jit_active();
  }
  /// Diagnostic of a runtime parity demotion ("" while healthy).
  [[nodiscard]] std::string jit_runtime_diag() const {
    return program_->jit_runtime_diag();
  }

 private:
  idx_t n_;
  int threads_;
  std::string name_;
  spl::FormulaPtr formula_;
  std::unique_ptr<backend::Program> program_;
  jit::Report jit_report_;
};

/// Plans DFT_n. n must be a power of two (>= 2). Parallel generation
/// requires (threads * mu)^2 | n; otherwise the planner transparently
/// falls back to sequential code (matching the paper: formula (14)
/// "exists for all DFT_N with (p mu)^2 | N").
///
/// When `out_descriptor` is non-null it is filled with a wisdom
/// descriptor that rebuilds this exact plan via plan_from_descriptor —
/// including the ruletrees the autotuner selected, so the rebuild skips
/// the search. The same applies to the other plan_* entry points.
[[nodiscard]] std::unique_ptr<FftPlan> plan_dft(
    idx_t n, const PlannerOptions& opt = {},
    wisdom::PlanDescriptor* out_descriptor = nullptr);

/// True iff the multicore Cooley-Tukey FFT exists for this (n, p, mu).
[[nodiscard]] bool parallel_plan_available(idx_t n, int threads, idx_t mu);

/// The formula the planner would use for (n, opt) — exposed for tests,
/// benches and the documentation examples.
[[nodiscard]] spl::FormulaPtr planner_formula(idx_t n,
                                              const PlannerOptions& opt);

/// Plans a Walsh-Hadamard transform WHT_n (2-power n). The same Table 1
/// rules parallelize the WHT's tensor breakdown; Definition 1 holds for
/// the result. `direction` is ignored (the WHT is self-inverse up to
/// scaling by n).
[[nodiscard]] std::unique_ptr<FftPlan> plan_wht(
    idx_t n, const PlannerOptions& opt = {},
    wisdom::PlanDescriptor* out_descriptor = nullptr);

/// Plans a 2D DFT of a rows x cols row-major array via the row-column
/// formula DFT_{rows x cols} = (DFT_rows (x) I_cols)(I_rows (x) DFT_cols),
/// parallelized by the same rewriting rules. Falls back to sequential
/// generation when the divisibility preconditions fail.
[[nodiscard]] std::unique_ptr<FftPlan> plan_dft_2d(
    idx_t rows, idx_t cols, const PlannerOptions& opt = {},
    wisdom::PlanDescriptor* out_descriptor = nullptr);

/// Plans `batch` independent DFT_n's over contiguous buffers (the
/// batched interface of production FFT libraries): the formula
/// I_batch (x) DFT_n, which rule (9) turns into the embarrassingly
/// parallel I_p (x)|| (I_{batch/p} (x) DFT_n). The plan's size() is
/// batch * n; inputs/outputs are concatenated signals.
[[nodiscard]] std::unique_ptr<FftPlan> plan_batch_dft(
    idx_t n, idx_t batch, const PlannerOptions& opt = {},
    wisdom::PlanDescriptor* out_descriptor = nullptr);

/// Rebuilds a plan from a wisdom descriptor, replaying its recorded
/// ruletrees instead of searching. Structural parameters (n, p, mu, nu,
/// leaf, direction) come from the descriptor; execution-level knobs
/// (jit, verify_lowering) come from `base`. Throws std::invalid_argument on invalid
/// descriptors.
[[nodiscard]] std::unique_ptr<FftPlan> plan_from_descriptor(
    const wisdom::PlanDescriptor& d, const PlannerOptions& base = {});

/// The wisdom-store key a (kind, extents, options) request resolves to —
/// the bridge the plan cache uses to consult imported wisdom before
/// planning.
[[nodiscard]] wisdom::PlanDescriptor::Key descriptor_key(
    wisdom::TransformKind kind, idx_t n, idx_t n2, const PlannerOptions& opt);

}  // namespace spiral::core
