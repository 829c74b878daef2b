// Extension bench: SIMD composition (paper Section 3.2: formula (14) has
// "alignment guarantees ... to use (14) in tandem with the efficient
// short vector Cooley-Tukey FFT"). Host wall clock of the executable SIMD
// drivers (backend/simd) against the one-lane driver on identical plans,
// plus the per-stage vectorization analysis of a tandem (p=2) program.
// SIMD and threads together are measured end to end by bench_fig3's
// p x nu grid.
//
// Usage:
//   bench_vectorization [--kmin=8] [--kmax=14] [--nu=4] [--repeats=31]
//                       [--json=PATH]
//
// --json writes every row, with the host, nproc and the repeat count, to
// PATH (BENCH_vectorization.json).
#include <cstdio>

#include "backend/program.hpp"
#include "backend/simd.hpp"
#include "backend/vectorize.hpp"
#include "bench_common.hpp"
#include "core/spiral_fft.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

using namespace spiral;
using namespace spiral::bench;

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const int kmin = static_cast<int>(args.get_int("kmin", 8));
  const int kmax = static_cast<int>(args.get_int("kmax", 14));
  const idx_t nu = args.get_int("nu", 4);
  const int repeats = static_cast<int>(args.get_int("repeats", 31));
  bench::JsonRows json;
  describe_host(json, repeats);

  // The lane-batched vector drivers against the one-lane driver on the
  // *identical* stage list (the vectorized derivation, once with
  // enable_simd and once without), single thread so the ratio is the
  // codelet speedup, not a scheduling artifact.
  const auto isa = backend::simd::detect_isa();
  std::printf("# scalar vs SIMD drivers, host wall-clock (isa=%s, median "
              "of %d)\n",
              backend::simd::to_string(isa), repeats);
  std::printf("log2n,nu,active_stages,scalar_us,simd_us,speedup\n");
  for (int k = kmin; k <= kmax; k += 2) {
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
      const Timing ts = time_repeats(
          [&] { scalar.execute(x.data(), y.data()); }, repeats);
      const Timing tv = time_repeats(
          [&] { vec.execute(x.data(), y.data()); }, repeats);
      const double speedup = ts.median_s / tv.median_s;
      std::printf("%d,%lld,%d,%.3f,%.3f,%.2f\n", k,
                  static_cast<long long>(w), active, ts.median_s * 1e6,
                  tv.median_s * 1e6, speedup);
      json.begin_row();
      json.field("isa", backend::simd::to_string(isa));
      json.field("log2n", k);
      json.field("n", static_cast<std::int64_t>(n));
      json.field("nu", static_cast<std::int64_t>(w));
      json.field("active_stages", active);
      json.field("scalar_min_us", ts.min_s * 1e6);
      json.field("scalar_median_us", ts.median_s * 1e6);
      json.field("simd_min_us", tv.min_s * 1e6);
      json.field("simd_median_us", tv.median_s * 1e6);
      json.field("speedup", speedup);
    }
  }

  // Per-stage vectorization report for one representative tandem program:
  // the planner's p=2 plan at nu, whose (14) blocks are vectorized.
  const idx_t n = idx_t{1} << 12;
  core::PlannerOptions topt;
  topt.threads = 2;
  topt.vector_nu = nu;
  const auto tandem = core::plan_dft(n, topt);
  const backend::StageList& list = tandem->stages();
  std::printf("\n# per-stage analysis, DFT_%lld, p=2, mu=nu=%lld:\n",
              static_cast<long long>(n), static_cast<long long>(nu));
  const auto info = backend::program_vector_info(list, nu);
  for (std::size_t i = 0; i < info.size(); ++i) {
    std::printf("# stage %zu: width=%lld form=%s  (%s)\n", i,
                static_cast<long long>(info[i].width),
                backend::to_string(info[i].form), list.stages[i].label.c_str());
  }
  std::printf("# fully vectorizable at nu=%lld: %s\n",
              static_cast<long long>(nu),
              backend::fully_vectorizable(list, nu) ? "yes" : "NO");

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
