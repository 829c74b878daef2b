// Executor comparison: the fused scalar interpreter (one ThreadPool::run
// for the whole stage list, spin-barrier stage transitions) vs the SIMD
// drivers (vectorized derivation, lane-batched codelets). Real wall-clock
// on the host CPU.
//
// The fused walk crosses S+1 barriers per transform (pool dispatch, S-1
// interior stage transitions, pool completion).
//
// Usage:
//   bench_executor [--kmin=6] [--kmax=20] [--repeats=31] [--json=PATH]
//
// Prints one CSV block:
//   policy,p,log2n,n,min_us,median_us,pseudo_mflops
// (pseudo Mflop/s from the median) followed by a simd-over-fused speedup
// summary per (p, n). --json additionally writes every row, with the
// host, nproc and the repeat count, to PATH.
#include <cstdio>
#include <string>

#include "backend/simd.hpp"
#include "bench_common.hpp"
#include "core/spiral_fft.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace spiral;

struct Row {
  std::string policy;
  int p;
  int k;
  idx_t n;
  bench::Timing t;
};

/// Wall-clock time per transform for one (executor, p, n) point.
bench::Timing measure(int p, idx_t n, idx_t simd_nu, int repeats) {
  core::PlannerOptions opt;
  opt.threads = p;
  opt.verify_lowering = false;
  opt.vector_nu = simd_nu;
  auto plan = core::plan_dft(n, opt);
  util::Rng rng(static_cast<std::uint64_t>(n));
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  backend::ExecContext ctx;
  return bench::time_repeats(
      [&] { plan->execute(ctx, x.data(), y.data()); }, repeats);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const int kmin = static_cast<int>(args.get_int("kmin", 6));
  const int kmax = static_cast<int>(args.get_int("kmax", 20));
  const int repeats = static_cast<int>(args.get_int("repeats", 31));

  struct Executor {
    const char* name;
    idx_t simd_nu = 0;
  };
  std::vector<Executor> executors = {{"fused"}};
  // Scalar-vs-SIMD: the lane-batched vector drivers (vectorized
  // derivation + backend/simd) against the fused scalar interpreter.
  if (backend::simd::detect_isa() != backend::simd::Isa::kScalar) {
    executors.push_back({"simd", 4});
  } else {
    std::fprintf(stderr,
                 "bench_executor: no vector ISA; skipping simd rows\n");
  }

  std::printf("# Executor dispatch ablation: wall-clock on this host\n");
  std::printf("policy,p,log2n,n,min_us,median_us,pseudo_mflops\n");

  std::vector<Row> rows;
  // p=1 gives the clean single-core numbers (no barrier noise) the
  // scalar-vs-SIMD headline is read from.
  for (int p : {1, 2, 4}) {
    for (int k = kmin; k <= kmax; ++k) {
      const idx_t n = idx_t{1} << k;
      for (const auto& ex : executors) {
        Row r;
        r.policy = ex.name;
        r.p = p;
        r.k = k;
        r.n = n;
        r.t = measure(p, n, ex.simd_nu, repeats);
        std::printf("%s,%d,%d,%lld,%.3f,%.3f,%.1f\n", r.policy.c_str(), r.p,
                    r.k, static_cast<long long>(r.n), r.t.min_s * 1e6,
                    r.t.median_s * 1e6,
                    util::pseudo_mflops(r.n, r.t.median_s));
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
  bench::describe_host(json, repeats);
  for (const auto& r : rows) {
    json.begin_row();
    json.field("policy", r.policy);
    json.field("p", r.p);
    json.field("log2n", r.k);
    json.field("n", static_cast<std::int64_t>(r.n));
    json.field("min_us", r.t.min_s * 1e6);
    json.field("median_us", r.t.median_s * 1e6);
    json.field("pseudo_mflops", util::pseudo_mflops(r.n, r.t.median_s));
    const Row* interp = find("fused", r.p, r.k);
    if (r.policy == "simd" && interp != nullptr) {
      json.field("speedup_vs_interpreter",
                 interp->t.median_s / r.t.median_s);
    }
    if (r.policy == "simd") {
      json.field("isa", backend::simd::to_string(backend::simd::detect_isa()));
    }
  }

  // Headline: the SIMD drivers against the fused scalar interpreter on
  // identical plans (>1 = faster).
  bool header = false;
  for (const auto& r : rows) {
    if (r.policy != "simd") continue;
    const Row* interp = find("fused", r.p, r.k);
    if (interp == nullptr) continue;
    if (!header) {
      std::printf("\n# simd speedup over fused interpreter\n");
      std::printf("p,log2n,n,speedup\n");
      header = true;
    }
    std::printf("%d,%d,%lld,%.2f\n", r.p, r.k, static_cast<long long>(r.n),
                interp->t.median_s / r.t.median_s);
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
