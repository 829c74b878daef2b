// Extension bench: SIMD composition (paper Section 3.2: formula (14) has
// "alignment guarantees ... to use (14) in tandem with the efficient
// short vector Cooley-Tukey FFT"). Reports, per machine and size, the
// simulated speedups of SIMD alone, threading alone, and both combined,
// plus the per-stage vectorization analysis of the generated program,
// plus real host wall-clock of the executable SIMD drivers
// (backend/simd) against the scalar interpreter on identical plans.
//
// Usage:
//   bench_vectorization [--kmin=8] [--kmax=16] [--nu=4] [--json=PATH]
//
// --json writes every row (kind "simulated" and "wallclock") to PATH
// (BENCH_vectorization.json).
#include <cstdio>

#include "backend/program.hpp"
#include "backend/simd.hpp"
#include "backend/vectorize.hpp"
#include "bench_common.hpp"
#include "core/spiral_fft.hpp"
#include "rewrite/vec_rules.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

using namespace spiral;
using namespace spiral::bench;

namespace {

/// Tandem plan: multicore CT (14) with vec-rewritten parallel blocks.
std::optional<backend::StageList> tandem_plan(idx_t n, idx_t p, idx_t mu,
                                              idx_t nu) {
  const idx_t m = admissible_split(n, p, mu);
  if (m == 0) return std::nullopt;
  auto f = rewrite::derive_multicore_ct(n, m, p, mu);
  f = rewrite::expand_dfts_balanced(f);
  f = rewrite::vectorize_parallel_blocks(f, nu);
  return backend::lower_fused(f);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const int kmin = static_cast<int>(args.get_int("kmin", 8));
  const int kmax = static_cast<int>(args.get_int("kmax", 16));
  const idx_t nu = args.get_int("nu", 4);
  bench::JsonRows json;

  std::printf("# SIMD x SMP composition (simulated, vector width nu=%lld "
              "complex)\n",
              static_cast<long long>(nu));
  std::printf(
      "machine,log2n,scalar_mflops,simd_mflops,smp_mflops,both_mflops,"
      "combined_speedup\n");
  for (const auto& cfg : machine::all_machines()) {
    for (int k = kmin; k <= kmax; k += 2) {
      const idx_t n = idx_t{1} << k;
      auto plan = tandem_plan(n, cfg.cores, cfg.mu(),
                              std::min<idx_t>(nu, cfg.mu()));
      if (!plan) continue;
      auto run = [&](int threads, idx_t simd) {
        SimOptions o;
        o.threads = threads;
        o.simd_complex = simd;
        return machine::simulate(*plan, cfg, o);
      };
      const auto base = run(1, 1);
      const auto simd = run(1, nu);
      const auto smp = run(cfg.cores, 1);
      const auto both = run(cfg.cores, nu);
      std::printf("%s,%d,%.1f,%.1f,%.1f,%.1f,%.2fx\n", cfg.name.c_str(), k,
                  base.pseudo_mflops, simd.pseudo_mflops, smp.pseudo_mflops,
                  both.pseudo_mflops, base.cycles / both.cycles);
      json.begin_row();
      json.field("kind", "simulated");
      json.field("machine", cfg.name);
      json.field("log2n", k);
      json.field("n", static_cast<std::int64_t>(n));
      json.field("nu", static_cast<std::int64_t>(nu));
      json.field("scalar_mflops", base.pseudo_mflops);
      json.field("simd_mflops", simd.pseudo_mflops);
      json.field("smp_mflops", smp.pseudo_mflops);
      json.field("both_mflops", both.pseudo_mflops);
      json.field("combined_speedup", base.cycles / both.cycles);
    }
  }

  // Real host wall-clock: the lane-batched vector drivers against the
  // one-lane driver on the *identical* stage list (the vectorized
  // derivation, once with enable_simd and once without), single thread
  // so the ratio is the codelet speedup, not a scheduling artifact.
  const auto isa = backend::simd::detect_isa();
  std::printf("\n# scalar vs SIMD drivers, host wall-clock (isa=%s)\n",
              backend::simd::to_string(isa));
  std::printf("log2n,nu,active_stages,scalar_seconds,simd_seconds,speedup\n");
  for (int k = kmin; k <= std::min(kmax, 14); k += 2) {
    const idx_t n = idx_t{1} << k;
    for (idx_t w : {idx_t{2}, idx_t{4}}) {
      if (w > nu) continue;
      core::PlannerOptions opt;
      opt.threads = 1;
      opt.vector_nu = w;
      opt.verify_lowering = false;
      const auto plan = core::plan_dft(n, opt);
      backend::Program scalar(plan->stages(),
                              backend::ExecPolicy::kSequential);
      backend::Program vec(plan->stages(), backend::ExecPolicy::kSequential);
      vec.enable_simd(w);
      int active = 0;
      for (const auto& sp : vec.stage_plans()) active += sp.width > 1;
      util::Rng rng(static_cast<std::uint64_t>(n) ^ 0x51);
      const auto x = rng.complex_signal(n);
      util::cvec y(x.size());
      const double ts = util::time_min_seconds(
          [&] { scalar.execute(x.data(), y.data()); }, 5, 2e-2);
      const double tv = util::time_min_seconds(
          [&] { vec.execute(x.data(), y.data()); }, 5, 2e-2);
      std::printf("%d,%lld,%d,%.3e,%.3e,%.2f\n", k,
                  static_cast<long long>(w), active, ts, tv, ts / tv);
      json.begin_row();
      json.field("kind", "wallclock");
      json.field("isa", backend::simd::to_string(isa));
      json.field("log2n", k);
      json.field("n", static_cast<std::int64_t>(n));
      json.field("nu", static_cast<std::int64_t>(w));
      json.field("active_stages", active);
      json.field("scalar_seconds", ts);
      json.field("simd_seconds", tv);
      json.field("scalar_mflops", util::pseudo_mflops(n, ts));
      json.field("simd_mflops", util::pseudo_mflops(n, tv));
      json.field("speedup", ts / tv);
    }
  }

  // Per-stage vectorization report for one representative tandem program.
  const idx_t n = idx_t{1} << 12;
  auto plan = tandem_plan(n, 2, nu, nu);
  if (plan) {
    std::printf("\n# per-stage analysis, DFT_%lld, p=2, mu=nu=%lld:\n",
                static_cast<long long>(n), static_cast<long long>(nu));
    const auto info = backend::program_vector_info(*plan, nu);
    for (std::size_t i = 0; i < info.size(); ++i) {
      std::printf("# stage %zu: width=%lld form=%s  (%s)\n", i,
                  static_cast<long long>(info[i].width),
                  backend::to_string(info[i].form),
                  plan->stages[i].label.c_str());
    }
    std::printf("# fully vectorizable at nu=%lld: %s\n",
                static_cast<long long>(nu),
                backend::fully_vectorizable(*plan, nu) ? "yes" : "NO");
  }

  if (args.has("json")) {
    const std::string path = args.get("json", "BENCH_vectorization.json");
    if (!json.write(path)) {
      std::fprintf(stderr, "bench_vectorization: cannot write '%s'\n",
                   path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", path.c_str());
  }
  return 0;
}
