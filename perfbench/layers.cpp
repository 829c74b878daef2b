#include "layers.hpp"

#include <thread>

#include "backend/program.hpp"
#include "threading/pool_registry.hpp"

namespace perfbench {

using spiral::backend::ExecContext;
using spiral::backend::Program;
using spiral::backend::StageList;

PlanFacts plan_facts(const StageList& list) {
  PlanFacts f;
  f.stages = static_cast<int>(list.stages.size());
  double table_bytes = 0.0;
  for (const auto& s : list.stages) {
    f.affine_sides += (s.in_affine ? 1 : 0) + (s.out_affine ? 1 : 0);
    table_bytes += 4.0 * static_cast<double>(s.in_map.size() + s.out_map.size());
    table_bytes += static_cast<double>(sizeof(cplx) * (s.in_scale.size() + s.out_scale.size()));
  }
  f.table_mib = table_bytes / (1024.0 * 1024.0);
  f.bytes_per_exec =
      table_bytes + 2.0 * sizeof(cplx) * static_cast<double>(list.n) * f.stages;
  return f;
}

StageBreakdown stage_breakdown(const spiral::core::FftPlan& plan, ExecContext& ctx,
                               const cplx* x, cplx* y, idx_t nu, double budget_s,
                               Tracer& tr) {
  static const char* const kSpan[kMaxStageMetrics] = {
      "backend.stage.0", "backend.stage.1", "backend.stage.2", "backend.stage.3",
      "backend.stage.4", "backend.stage.5", "backend.stage.6", "backend.stage.7"};
  const StageList& list = plan.stages();
  const std::size_t k = list.stages.size();
  if (k > static_cast<std::size_t>(kMaxStageMetrics)) {
    throw std::runtime_error("plan has more stages than the benchmark reports");
  }
  std::vector<std::unique_ptr<Program>> alone;
  for (const auto& s : list.stages) {
    auto p = std::make_unique<Program>(StageList{list.n, {s}},
                                       spiral::backend::ExecPolicy::kThreadPool);
    if (nu >= 2) p->enable_simd(nu);
    p->execute(ctx, x, y);  // warm
    alone.push_back(std::move(p));
  }
  plan.execute(ctx, x, y);
  const Tracer::Scope probe(tr, "bench.stage_probe", "bench");
  std::vector<std::vector<double>> stage_t(k);
  std::vector<double> whole_t;
  const auto start = Clock::now();
  while (whole_t.size() < 5 || seconds_between(start, Clock::now()) < budget_s) {
    {
      const auto id = tr.begin("backend.execute", "backend", probe.id());
      const auto t0 = Clock::now();
      plan.execute(ctx, x, y);
      whole_t.push_back(us_between(t0, Clock::now()));
      tr.end(id);
    }
    for (std::size_t i = 0; i < k; ++i) {
      const auto id = tr.begin(kSpan[i], "backend", probe.id());
      const auto t0 = Clock::now();
      alone[i]->execute(ctx, x, y);
      stage_t[i].push_back(us_between(t0, Clock::now()));
      tr.end(id);
    }
  }
  StageBreakdown b;
  for (auto& t : stage_t) {
    b.stage_us.push_back(median(t));
    b.sum_us += b.stage_us.back();
  }
  b.whole_us = median(whole_t);
  return b;
}

double exec_p50_us(const spiral::core::FftPlan& plan, ExecContext& ctx, const cplx* x,
                   cplx* y, double budget_s, int min_reps) {
  std::vector<double> t;
  const auto start = Clock::now();
  while (static_cast<int>(t.size()) < min_reps ||
         seconds_between(start, Clock::now()) < budget_s) {
    const auto t0 = Clock::now();
    plan.execute(ctx, x, y);
    t.push_back(us_between(t0, Clock::now()));
  }
  return median(t);
}

double dispatch_p50_us(int threads) {
  auto lease = spiral::threading::global_pool_registry().acquire(threads);
  const std::function<void(int)> empty = [](int) {};
  lease.pool()->run(empty);
  std::vector<double> t;
  t.reserve(20000);
  for (int i = 0; i < 20000; ++i) {
    const auto t0 = Clock::now();
    lease.pool()->run(empty);
    t.push_back(us_between(t0, Clock::now()));
  }
  return median(t);
}

double wake_us(const std::function<void()>& op, int reps, std::chrono::microseconds gap) {
  std::vector<double> after_gap;
  std::vector<double> b2b;
  for (int r = 0; r < reps; ++r) {
    std::this_thread::sleep_for(gap);
    auto t0 = Clock::now();
    op();
    after_gap.push_back(us_between(t0, Clock::now()));
    t0 = Clock::now();
    op();
    b2b.push_back(us_between(t0, Clock::now()));
  }
  return median(after_gap) - median(b2b);
}

double idle_cpu_cores(double window_s) {
  const double c0 = process_cpu_s();
  const auto t0 = Clock::now();
  std::this_thread::sleep_for(std::chrono::duration<double>(window_s));
  const double wall = seconds_between(t0, Clock::now());
  return (process_cpu_s() - c0) / wall;
}

double plan_cache_hit_ns(spiral::core::PlanCache& cache,
                         const std::vector<std::pair<idx_t, idx_t>>& keys,
                         const spiral::core::PlannerOptions& opt) {
  constexpr int kBlock = 64;
  std::vector<double> per_lookup;
  std::size_t k = 0;
  for (int b = 0; b < 2000; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < kBlock; ++i, ++k) {
      const auto [n, batch] = keys[k % keys.size()];
      auto p = batch == 1 ? cache.dft(n, opt) : cache.batch_dft(n, batch, opt);
      if (!p) throw std::runtime_error("plan cache returned no plan");
    }
    per_lookup.push_back(1e3 * us_between(t0, Clock::now()) / kBlock);
  }
  return median(per_lookup);
}

}  // namespace perfbench
