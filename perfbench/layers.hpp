// Per-layer probes shared by the workloads. Each one times a layer from
// outside, through that module's public functions only.
#pragma once

#include <functional>
#include <vector>

#include "backend/exec_context.hpp"
#include "backend/stage.hpp"
#include "common.hpp"
#include "core/plan_cache.hpp"
#include "core/spiral_fft.hpp"
#include "trace.hpp"

namespace perfbench {

/// Stage metrics are reported for list positions 0..kMaxStageMetrics-1.
inline constexpr int kMaxStageMetrics = 8;

/// Static facts of a lowered program.
struct PlanFacts {
  int stages = 0;
  int affine_sides = 0;       ///< index maps replaced by affine descriptors
  double table_mib = 0.0;     ///< int32 index maps + fused scale tables
  double bytes_per_exec = 0;  ///< arrays read/written + tables, per transform
};
PlanFacts plan_facts(const spiral::backend::StageList& list);

/// Each stage of `plan` run alone as a one-stage backend::Program on the
/// caller's context, interleaved with whole-plan executions so both see
/// the same machine state. p50s in microseconds.
struct StageBreakdown {
  std::vector<double> stage_us;
  double sum_us = 0.0;
  double whole_us = 0.0;
};
StageBreakdown stage_breakdown(const spiral::core::FftPlan& plan,
                               spiral::backend::ExecContext& ctx, const cplx* x,
                               cplx* y, idx_t nu, double budget_s, Tracer& tr);

/// p50 of one plan execution (us), at least `min_reps` repetitions and
/// about `budget_s` seconds.
double exec_p50_us(const spiral::core::FftPlan& plan,
                   spiral::backend::ExecContext& ctx, const cplx* x, cplx* y,
                   double budget_s, int min_reps);

/// p50 of an empty ThreadPool::run on a pool leased from the registry.
/// Call while the workload's own lease is returned, so the warm pool is
/// reused instead of a new team being spawned.
double dispatch_p50_us(int threads);

/// p50 latency of `op` right after an idle `gap` minus its p50 when run
/// back to back (us).
double wake_us(const std::function<void()>& op, int reps,
               std::chrono::microseconds gap);

/// Process CPU seconds per wall second over an idle window, with the
/// workload's pools and service threads left as they are.
double idle_cpu_cores(double window_s);

/// p50 ns per PlanCache lookup of an already-cached key, measured over
/// blocks of lookups cycling through `keys` ((n, batch), batch 1 = dft).
double plan_cache_hit_ns(spiral::core::PlanCache& cache,
                         const std::vector<std::pair<idx_t, idx_t>>& keys,
                         const spiral::core::PlannerOptions& opt);

}  // namespace perfbench
