// burst-1k and large-4m: one caller in a closed loop over one p=4 plan.
//
//   burst-1k  n = 2^10, bursts of 32 back-to-back transforms with a fixed
//             200 us sleep between bursts (a periodic frame-based caller);
//             pool dispatch, stage barriers and idle/wake are about half
//             the time.
//   large-4m  n = 2^22, back to back; memory-bound, so kernels, tables and
//             locality dominate, and planning dominates set-up.
#include <memory>
#include <thread>

#include "backend/lower.hpp"
#include "layers.hpp"
#include "threading/pool_registry.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using spiral::backend::ExecContext;
using spiral::core::FftPlan;
using spiral::core::PlannerOptions;

struct PlanSpec {
  idx_t n;
  int threads;
  int burst;                      ///< transforms per burst
  std::chrono::microseconds gap;  ///< idle sleep between bursts
  int setups;                     ///< set-up repetitions, median reported
  int inputs;                     ///< distinct seeded input signals
  int check_every;                ///< check one output in this many
  double probe_s;                 ///< budget of each traced probe
  double window_s;                ///< sub-window of the median-of-windows figures
  bool service_probe;             ///< the traced run also probes the service layer
};

/// Latency samples and counters of one measured window.
struct Window {
  std::vector<double> first_us;  ///< first transform of each burst (traced)
  std::vector<double> rest_us;   ///< the others (traced)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double check_s = 0.0;  ///< time spent checking outputs (excluded)
  Windows::Stats stats;
};

Result run_plan_workload(const PlanSpec& w, const Args& a, Tracer& tr) {
  Result r;
  const idx_t n = w.n;
  std::vector<cvec> xs;
  std::vector<cvec> refs;
  std::vector<cvec> ys;
  for (int i = 0; i < w.inputs; ++i) {
    xs.push_back(make_input(a.seed, static_cast<std::uint64_t>(i), n));
    refs.push_back(reference_dft(xs.back()));
    ys.emplace_back(static_cast<std::size_t>(n));
  }
  const PlannerOptions opt = default_planner(w.threads);
  Checker checker;
  std::uint64_t attempted = 0;

  // Set-up: plan every plan the workload reaches and run it once. A
  // traced run follows each repetition with the same set-up through the
  // planner's public pieces, one span each: formula, lowering + fusion,
  // plan construction, first execution.
  std::unique_ptr<FftPlan> plan;
  std::unique_ptr<ExecContext> ctx;
  std::vector<double> setup_s, plan_s;
  std::vector<double> formula_s, lower_fused_s, rest_s, first_s;
  spiral::spl::FormulaPtr f;
  auto first_execution = [&](Tracer::Id parent) {
    ctx = std::make_unique<ExecContext>();
    {
      const Tracer::Scope s(tr, "backend.execute", "backend", parent);
      plan->execute(*ctx, xs[0].data(), ys[0].data());
    }
  };
  auto check_first = [&] {
    ++attempted;
    checker.check(ys[0].data(), refs[0]);
  };
  for (int rep = 0; rep < w.setups; ++rep) {
    plan.reset();
    ctx.reset();
    auto sid = tr.begin("bench.setup", "bench");
    auto t0 = Clock::now();
    {
      const Tracer::Scope s(tr, "core.plan_dft", "core", sid);
      plan = spiral::core::plan_dft(n, opt);
    }
    plan_s.push_back(seconds_between(t0, Clock::now()));
    first_execution(sid);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    tr.end(sid);
    check_first();
    if (!a.trace) continue;

    plan.reset();
    ctx.reset();
    sid = tr.begin("bench.setup_parts", "bench");
    t0 = Clock::now();
    {
      const Tracer::Scope s(tr, "rewrite.planner_formula", "rewrite", sid);
      f = spiral::core::planner_formula(n, opt);
    }
    formula_s.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    spiral::backend::StageList list;
    {
      const Tracer::Scope s(tr, "backend.lower_fused", "backend", sid);
      list = spiral::backend::lower_fused(f);
    }
    lower_fused_s.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    {
      const Tracer::Scope s(tr, "core.FftPlan", "core", sid);
      plan = std::make_unique<FftPlan>(f, std::move(list), opt);
    }
    rest_s.push_back(seconds_between(t0, Clock::now()));
    t0 = Clock::now();
    first_execution(sid);
    first_s.push_back(seconds_between(t0, Clock::now()));
    tr.end(sid);
    check_first();
  }
  r.set("setup_s", median(setup_s));

  if (a.trace) {
    const auto t0 = Clock::now();
    {
      const Tracer::Scope s(tr, "backend.lower", "backend");
      const auto unfused = spiral::backend::lower(f);
    }
    const double lower_s = seconds_between(t0, Clock::now());
    r.set("core.plan_s", median(plan_s));
    r.set("core.plan_rest_s", median(rest_s));
    r.set("rewrite.formula_s", median(formula_s));
    r.set("backend.lower_s", lower_s);
    r.set("backend.lower_fused_s", median(lower_fused_s));
    r.set("backend.fuse_s", median(lower_fused_s) - lower_s);
    r.set("backend.first_exec_s", median(first_s));
    const double parts =
        median(formula_s) + median(lower_fused_s) + median(rest_s) + median(first_s);
    r.set("recon.setup_pct_err", 100.0 * std::abs(parts - median(setup_s)) / median(setup_s));
  }

  // The closed loop.
  const std::uint64_t phase = a.seed % static_cast<std::uint64_t>(w.check_every);
  auto run_window = [&](double seconds, Tracer& t) {
    Window win;
    Windows subs(w.window_s);
    std::uint64_t k = 0;
    const auto start = Clock::now();
    subs.start(start);
    while (seconds_between(start, Clock::now()) < seconds) {
      const auto bid = t.begin("bench.burst", "bench");
      for (int b = 0; b < w.burst; ++b, ++k) {
        const std::size_t i = k % xs.size();
        ++win.attempted;
        const auto id = t.begin("backend.execute", "backend", bid);
        const auto t0 = Clock::now();
        try {
          plan->execute(*ctx, xs[i].data(), ys[i].data());
        } catch (const std::exception&) {
          t.end(id);
          ++win.failed;
          continue;
        }
        const double us = us_between(t0, Clock::now());
        t.end(id);
        subs.add(us);
        if (a.trace) (b == 0 ? win.first_us : win.rest_us).push_back(us);
        if ((k + phase) % static_cast<std::uint64_t>(w.check_every) == 0) {
          const auto c0 = Clock::now();
          checker.check(ys[i].data(), refs[i]);
          win.check_s += seconds_between(c0, Clock::now());
        }
      }
      t.end(bid);
      // The idle gap is timed on the clock: a sleep on a shared host
      // overshoots by 0.06-1 ms depending on other tenants' load, which
      // would make every per-second figure a measure of the host timer.
      // The caller's core stays busy; the pool's workers sit idle.
      if (w.gap.count() > 0) {
        const auto until = Clock::now() + w.gap;
        while (Clock::now() < until) {
        }
      }
      subs.tick(Clock::now(), win.check_s);
    }
    subs.finish(Clock::now(), win.check_s);
    win.stats = subs.stats();
    return win;
  };

  Tracer off(false);
  const Window win = run_window(a.trace ? traced_window_s(a) : a.seconds, off);
  attempted += win.attempted;
  r.failed += win.failed;
  const Windows::Stats& ws = win.stats;
  r.set("latency_us.p50", ws.p50);
  r.set("latency_us.p99", ws.p99);
  r.set("throughput_tps", ws.tps);
  r.set("gflops", pseudo_flops(n) / ws.p50 * 1e-3);
  r.set("cpu_us_per_transform", ws.cpu_us);
  r.set("rss_peak_mib", rss_peak_mib());
  r.set("latency.samples", static_cast<double>(ws.samples));
  r.set("latency.tail_pct", ws.tail_pct());
  r.note("latency", ws.describe(w.window_s));

  if (a.trace) {
    const Window traced = run_window(traced_window_s(a), tr);
    attempted += traced.attempted;
    r.failed += traced.failed;
    const double traced_p50 = traced.stats.p50;
    r.set("trace.overhead_pct", 100.0 * (traced_p50 / ws.p50 - 1.0));

    const PlanFacts facts = plan_facts(plan->stages());
    r.set("backend.stages", facts.stages);
    r.set("backend.affine_sides", facts.affine_sides);
    r.set("backend.table_mib", facts.table_mib);

    const StageBreakdown sb =
        stage_breakdown(*plan, *ctx, xs[0].data(), ys[0].data(), kNu, w.probe_s, tr);
    for (std::size_t i = 0; i < sb.stage_us.size(); ++i) {
      r.set("backend.stage_us." + std::to_string(i), sb.stage_us[i]);
    }
    r.set("backend.stage_sum_us", sb.sum_us);
    r.set("backend.sync_us", sb.whole_us - sb.sum_us);
    r.set("backend.whole_p50_us", sb.whole_us);
    r.set("recon.stage_sync_pct_err", 100.0 * std::abs(sb.whole_us - traced_p50) / traced_p50);
    const double gbps = facts.bytes_per_exec / sb.whole_us * 1e-3;
    r.set("backend.gbps_computed", gbps);
    r.set("backend.gbps_pct_stream", 100.0 * gbps / a.host.stream_gbps);
    r.set("host.gflops_pct_peak", 100.0 * pseudo_flops(n) / ws.p50 * 1e-3 / a.host.fma_gflops);

    {
      std::unique_ptr<FftPlan> seq;
      {
        const Tracer::Scope s(tr, "core.plan_dft", "core");
        seq = spiral::core::plan_dft(n, default_planner(1));
      }
      ExecContext ctx1;
      const double seq_us = exec_p50_us(*seq, ctx1, xs[0].data(), ys[0].data(), w.probe_s, 5);
      r.set("backend.seq_p50_us", seq_us);
      r.set("backend.speedup_vs_seq", seq_us / sb.whole_us);
    }

    if (w.gap.count() > 0) {
      r.set("threading.wake_us", median(win.first_us) - median(win.rest_us));
    } else {
      r.set("threading.wake_us",
            wake_us([&] { plan->execute(*ctx, xs[0].data(), ys[0].data()); }, 5,
                    std::chrono::microseconds(200)));
    }
    r.set("threading.idle_cpu_cores", idle_cpu_cores(0.5));
    ctx->reset();  // return the warm team so the dispatch probe reuses it
    r.set("threading.dispatch_us", dispatch_p50_us(w.threads));
  }

  // Final correctness pass and the oracle's self-check.
  plan->execute(*ctx, xs[0].data(), ys[0].data());
  ++attempted;
  checker.check(ys[0].data(), refs[0]);
  const bool self_check_ok = self_check_catches(ys[0].data(), refs[0]);
  r.set("threading.threads_spawned",
        static_cast<double>(spiral::threading::ThreadPool::threads_spawned()));
  r.set("threading.pools_created",
        static_cast<double>(spiral::threading::global_pool_registry().stats().created));

  if (a.trace && w.service_probe) {
    // Idle teams keep spinning in the registry; destroy this workload's so
    // the service's threads get the cores.
    ctx.reset();
    spiral::threading::global_pool_registry().trim();
    probe_service(a, tr, r, checker, attempted);
  }
  finish_checks(r, checker, attempted, self_check_ok);
  return r;
}

}  // namespace

Result run_burst_1k(const Args& a, Tracer& tr) {
  return run_plan_workload({.n = 1024,
                            .threads = 4,
                            .burst = 32,
                            .gap = std::chrono::microseconds(200),
                            .setups = 15,
                            .inputs = 8,
                            .check_every = 64,
                            .probe_s = 1.0,
                            .window_s = 0.1,
                            .service_probe = true},
                           a, tr);
}

Result run_large_4m(const Args& a, Tracer& tr) {
  return run_plan_workload({.n = idx_t{1} << 22,
                            .threads = 4,
                            .burst = 1,
                            .gap = std::chrono::microseconds(0),
                            .setups = 3,
                            .inputs = 2,
                            .check_every = 8,
                            .probe_s = 3.0,
                            .window_s = 1e9,  // one window: the whole run
                            .service_probe = false},
                           a, tr);
}

}  // namespace perfbench
