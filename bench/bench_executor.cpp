// Executor comparison: the fused scalar interpreter (one ThreadPool::run
// for the whole stage list, spin-barrier stage transitions) vs the SIMD
// drivers (vectorized derivation, lane-batched codelets) vs JIT-compiled
// native code. Real wall-clock on the host CPU.
//
// The fused walk crosses S+1 barriers per transform (pool dispatch, S-1
// interior stage transitions, pool completion). The committed
// BENCH_executor.json also holds per-stage and openmp rows from
// executors the library no longer has; this bench does not produce them.
//
// Usage:
//   bench_executor [--kmin=6] [--kmax=20] [--json=PATH]
//
// Prints one CSV block:
//   policy,p,log2n,n,seconds,pseudo_mflops
// followed by simd- and jit-over-fused speedup summaries per (p, n).
// --json additionally writes every row to PATH.
#include <cstdio>
#include <string>

#include "analysis/locality.hpp"
#include "backend/simd.hpp"
#include "bench_common.hpp"
#include "core/spiral_fft.hpp"
#include "jit/jit.hpp"
#include "machine/config.hpp"
#include "machine/simulator.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using namespace spiral;

struct Row {
  std::string policy;
  int p;
  int k;
  idx_t n;
  double seconds;
  // Static locality prediction vs simulator measurement (fused rows
  // only; -1 = not computed). Committed to BENCH_executor.json so the
  // model can be calibrated against these rows later.
  std::int64_t pred_transfers = -1;
  std::int64_t pred_mem_lines = -1;
  double pred_seconds = -1.0;
  std::int64_t sim_transfers = -1;
  std::int64_t sim_mem_lines = -1;
};

/// Fills the prediction fields of a fused row: the static analyzer on
/// the identical plan, plus the simulator's measured traffic as ground
/// truth. The simulator replays every access, so the cross-check is
/// capped at 2^14; the static prediction is cheap enough to run at
/// every size.
void predict_traffic(Row& r) {
  core::PlannerOptions popt;
  popt.threads = r.p;
  popt.verify_lowering = false;
  const auto plan = core::plan_dft(r.n, popt);
  const auto mc = machine::generic_config(r.p, popt.cache_line_complex);
  analysis::LocalityOptions lopt;
  lopt.threads = r.p;
  const auto rep = analysis::analyze_locality(plan->stages(), mc, lopt);
  r.pred_transfers = rep.coherence_transfers;
  r.pred_mem_lines = rep.pred_mem_lines;
  r.pred_seconds = rep.pred_seconds;
  if (r.k <= 14) {
    machine::SimOptions sopt;
    sopt.threads = r.p;
    machine::Simulator sim(mc, sopt);
    const auto sr = sim.run_steady(plan->stages());
    r.sim_transfers = sr.coherence_transfers;
    std::int64_t mem = 0;
    for (const auto& ss : sr.per_stage) mem += ss.mem_lines;
    r.sim_mem_lines = mem;
  }
}

/// Wall-clock seconds per transform for one (executor, p, n) point. With
/// `jit` the plan's executor is the natively compiled program (the
/// paper's deployment model); the row is skipped (returns < 0) when the
/// compile fails, so the bench degrades instead of lying.
double measure(int p, idx_t n, bool jit, idx_t simd_nu) {
  core::PlannerOptions opt;
  opt.threads = p;
  opt.verify_lowering = false;
  opt.jit = jit;
  opt.vector_nu = simd_nu;
  auto plan = core::plan_dft(n, opt);
  if (jit && !plan->jit_report().ok()) return -1.0;
  util::Rng rng(static_cast<std::uint64_t>(n));
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  backend::ExecContext ctx;
  if (jit) {
    // Cross the first-execution parity gate outside the timed region.
    plan->execute(ctx, x.data(), y.data());
    if (!plan->jit_active()) return -1.0;
  }
  // Min-of-5 with a 20 ms floor: on an oversubscribed host the scheduler
  // adds heavy-tailed noise, and the minimum is the defensible statistic.
  return util::time_min_seconds(
      [&] { plan->execute(ctx, x.data(), y.data()); }, 5, 2e-2);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const int kmin = static_cast<int>(args.get_int("kmin", 6));
  const int kmax = static_cast<int>(args.get_int("kmax", 20));

  struct Executor {
    const char* name;
    bool jit = false;
    idx_t simd_nu = 0;
  };
  std::vector<Executor> executors = {{"fused"}};
  // Scalar-vs-SIMD: the lane-batched vector drivers (vectorized
  // derivation + backend/simd) against the fused scalar interpreter.
  if (backend::simd::detect_isa() != backend::simd::Isa::kScalar) {
    executors.push_back({"simd", false, 4});
  } else {
    std::fprintf(stderr,
                 "bench_executor: no vector ISA; skipping simd rows\n");
  }
  // Interpreter-vs-JIT: the natively compiled executor against the fused
  // interpreter it replaces, on identical plans.
  if (!jit::resolve_compiler().empty()) {
    executors.push_back({"jit", true});
  } else {
    std::fprintf(stderr,
                 "bench_executor: no C compiler found; skipping jit rows\n");
  }

  std::printf("# Executor dispatch ablation: wall-clock on this host\n");
  std::printf("policy,p,log2n,n,seconds,pseudo_mflops\n");

  std::vector<Row> rows;
  // p=1 gives the clean single-core numbers (no barrier or
  // oversubscription noise) the scalar-vs-SIMD headline is read from.
  for (int p : {1, 2, 4, 8}) {
    for (int k = kmin; k <= kmax; ++k) {
      const idx_t n = idx_t{1} << k;
      for (const auto& ex : executors) {
        Row r;
        r.policy = ex.name;
        r.p = p;
        r.k = k;
        r.n = n;
        r.seconds = measure(p, n, ex.jit, ex.simd_nu);
        if (r.seconds < 0.0) {
          std::fprintf(stderr, "# %s p=%d n=%lld: jit unavailable, skipped\n",
                       r.policy.c_str(), p, static_cast<long long>(n));
          continue;
        }
        std::printf("%s,%d,%d,%lld,%.3e,%.1f\n", r.policy.c_str(), r.p, r.k,
                    static_cast<long long>(r.n), r.seconds,
                    util::pseudo_mflops(r.n, r.seconds));
        if (r.policy == "fused") predict_traffic(r);
        rows.push_back(std::move(r));
      }
    }
  }

  auto find = [&](const char* policy, int p, int k) -> const Row* {
    for (const auto& r : rows) {
      if (r.policy == policy && r.p == p && r.k == k) return &r;
    }
    return nullptr;
  };
  bench::JsonRows json;
  for (const auto& r : rows) {
    json.begin_row();
    json.field("policy", r.policy);
    json.field("p", r.p);
    json.field("log2n", r.k);
    json.field("n", static_cast<std::int64_t>(r.n));
    json.field("seconds", r.seconds);
    json.field("pseudo_mflops", util::pseudo_mflops(r.n, r.seconds));
    if (r.pred_transfers >= 0) {
      json.field("pred_coherence_transfers", r.pred_transfers);
      json.field("pred_mem_lines", r.pred_mem_lines);
      json.field("pred_seconds", r.pred_seconds);
    }
    if (r.sim_transfers >= 0) {
      json.field("sim_coherence_transfers", r.sim_transfers);
      json.field("sim_mem_lines", r.sim_mem_lines);
    }
    const Row* interp = find("fused", r.p, r.k);
    if ((r.policy == "jit" || r.policy == "simd") && interp != nullptr) {
      json.field("speedup_vs_interpreter", interp->seconds / r.seconds);
    }
    if (r.policy == "simd") {
      json.field("isa", backend::simd::to_string(backend::simd::detect_isa()));
    }
  }

  // Headlines: the SIMD drivers and the native code, each against the
  // fused scalar interpreter on identical plans (>1 = faster).
  for (const char* policy : {"simd", "jit"}) {
    bool header = false;
    for (const auto& r : rows) {
      if (r.policy != policy) continue;
      const Row* interp = find("fused", r.p, r.k);
      if (interp == nullptr) continue;
      if (!header) {
        std::printf("\n# %s speedup over fused interpreter\n", policy);
        std::printf("p,log2n,n,speedup\n");
        header = true;
      }
      std::printf("%d,%d,%lld,%.2f\n", r.p, r.k, static_cast<long long>(r.n),
                  interp->seconds / r.seconds);
    }
  }

  if (args.has("json")) {
    const std::string path = args.get("json", "BENCH_executor.json");
    if (!json.write(path)) {
      std::fprintf(stderr, "bench_executor: cannot write '%s'\n",
                   path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", path.c_str());
  }
  return 0;
}
