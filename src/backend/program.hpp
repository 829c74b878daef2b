// Executable FFT program: a fused stage list plus an execution policy.
// This is the runtime equivalent of the C code Spiral emits — stage
// boundaries correspond to the barriers between parallel loops in the
// generated program.
//
// Threading contract: a Program is immutable after construction (apart
// from the one-time enable_simd set-up call). All
// per-execution state — scratch buffers and the worker team — lives in an
// ExecContext, so `execute(ctx, x, y)` may be called from many client
// threads concurrently as long as each brings its own context. The
// context-free `execute(x, y)` overload keeps the old single-caller
// convenience API: it routes through one internal context and is
// therefore NOT safe for concurrent calls on the same Program.
#pragma once

#include <vector>

#include "backend/exec_context.hpp"
#include "backend/simd.hpp"
#include "backend/stage.hpp"
#include "backend/stage_group.hpp"

namespace spiral::backend {

/// How parallel stages are dispatched. Every interpreter execution is the
/// same fused walk; the policy only decides whether it gets a worker team.
enum class ExecPolicy {
  kSequential,  ///< ignore parallel annotations, run on the caller
  /// Fused single-fork dispatch on the context's persistent pool: the
  /// whole stage list runs inside one ThreadPool::run. Each step splits
  /// into stage_tasks(s) tasks (backend/schedule), participant tid runs
  /// tasks tid, tid + team, ..., and the team crosses its pool's spin
  /// barrier once per step transition (the "low-latency minimal overhead
  /// synchronization" of §3.2). The default parallel policy.
  kThreadPool,
};

[[nodiscard]] const char* to_string(ExecPolicy p);

/// Mutation-testing hook (spiral-lint --mutate-pingpong): when enabled,
/// the interpreter walks the stage list in the wrong (left-to-right)
/// direction, applying the composition y = S_0 ... S_{k-1} x in reversed
/// stage order, one stage at a time (no stage groups). The static
/// verifier cannot see this defect — every stage is still individually
/// well-formed — so the lint execution-parity check must catch it. Never
/// enable outside mutation tests.
void set_pingpong_mutation(bool enabled) noexcept;
[[nodiscard]] bool pingpong_mutation() noexcept;

class Program {
 public:
  /// Takes ownership of the (fused) stage list and plans every stage at
  /// width 1. The program owns no worker threads: parallel execution runs
  /// on the pool of the caller's ExecContext (ExecContext::set_pool
  /// overrides the registry lease). Throws std::invalid_argument on a
  /// stage addressed through an int32 table (execution reads the
  /// bit-stride maps only) and on one no codelet driver serves.
  Program(StageList stages, ExecPolicy policy);

  /// y = program(x) using the caller-supplied context. Out-of-place;
  /// x == y is supported via an extra copy. Buffers must hold size()
  /// elements. Safe to call concurrently with distinct contexts; a single
  /// context must not be shared by concurrent callers.
  void execute(ExecContext& ctx, const cplx* x, cplx* y) const;

  /// Convenience overload over an internal context (single-caller only).
  void execute(const cplx* x, cplx* y) { execute(self_ctx_, x, y); }

  /// Re-plans every stage at widths up to `nu` (backend/simd): stages
  /// whose fused index maps prove a short-vector shape run the
  /// lane-batched driver at that width, the rest stay at width 1. Plans
  /// stay at width 1 when the host ISA is unavailable or forced off
  /// (SPIRAL_SIMD=OFF). Call once, before the program is shared across
  /// threads — it mutates the (otherwise immutable) plan state.
  void enable_simd(idx_t nu);

  /// True when at least one stage runs vectorized (width > 1).
  [[nodiscard]] bool simd_active() const noexcept;
  /// The execution plan of every stage, in StageList order.
  [[nodiscard]] const std::vector<simd::StagePlan>& stage_plans()
      const noexcept {
    return plans_;
  }

  /// The stage groups (backend/stage_group), in execution order.
  [[nodiscard]] std::size_t group_count() const noexcept {
    return groups_.size();
  }
  [[nodiscard]] const StageGroup& group(std::size_t g) const {
    return groups_[g].group;
  }
  /// True when group g's last member writes the full-size buffer with
  /// non-temporal stores (the buffer beyond the team's combined L2, and
  /// simd::can_stream_out proven on its output map at width 4 or more).
  [[nodiscard]] bool group_streams(std::size_t g) const;

  [[nodiscard]] idx_t size() const noexcept { return list_.n; }
  [[nodiscard]] const StageList& stages() const noexcept { return list_; }
  [[nodiscard]] ExecPolicy policy() const noexcept { return policy_; }
  [[nodiscard]] double flops() const { return list_.flops(); }
  /// Largest parallel_p over all stages (worker-team size a context
  /// needs); 1 for fully sequential programs.
  [[nodiscard]] int max_parallelism() const noexcept { return max_p_; }

 private:
  /// A stage group's execution state. Member m is execution index
  /// group.first + m. Its sides inside the group are addressed through
  /// in[m]/out[m]: the stage's own map for the group's first read and
  /// last write, the block-rebased map for the intermediates.
  struct GroupExec {
    StageGroup group;
    std::vector<BitStrideMap> in, out;
    /// Per member, the stage's plan re-proven on in[m]/out[m] (scales
    /// stay on the stage). Only the last member's plan may set
    /// stream_out.
    std::vector<simd::StagePlan> plans;
  };

  /// One step of the interpreter walk: a stage, or a whole group (whose
  /// stages share one parallel_p, and so one task count).
  struct Step {
    std::size_t stage = 0;  ///< StageList index of the step's first stage
    int group = -1;         ///< index into groups_, -1 for a lone stage
  };

  /// Participant `tid` (of `workers`) runs its tasks' shares of group
  /// g's blocks, each block through every member, using its two block
  /// buffers at scratch.
  void run_group(const GroupExec& g, const cplx* src, cplx* dst,
                 cplx* scratch, int tid, int workers) const;

  StageList list_;
  ExecPolicy policy_;
  int max_p_ = 1;
  std::vector<simd::StagePlan> plans_;  // one per stage
  std::vector<GroupExec> groups_;
  std::vector<Step> steps_;  // the walk, in execution order
  ExecContext self_ctx_;  // backs the context-free execute()
};

}  // namespace spiral::backend
