// Figure 3 and claims C1, C4 and A1 in wall clock: DFT_N, N = 2^kmin ..
// 2^kmax, on this host, for every series below. Each point runs in its
// own fresh process (this binary re-invoked with --point), so no point
// inherits another's worker team, caches or page state, and records the
// min and median time per transform over its repeats. The sweep runs
// --passes times, each point in a new process each time, and a row
// reports the min over all of them and the median of their medians: on
// a shared host one process can land on a core a neighbour slows ~2x.
//
// Series (p = threads, nu = SIMD width in complex elements):
//   spiral             plan_dft at p in {1,2,4} x nu in {0,4,8}
//   spiral-blockcyclic the p=4 nu=0 plan with every parallel stage
//                      scheduled block-cyclically with blocks of one
//                      iteration (FFTW 3.1's schedule; ablation A1)
//   fftw-seq           baselines::FftwLikeExecutor, sequential plan
//   fftw-threads       the same on 4 threads at every size; it starts its
//                      threads on every call, as FFTW 3.1 did without a
//                      working thread pool (claim C4)
//   six-step           baselines::six_step_program on 4 threads
//
// Usage:
//   bench_fig3 [--kmin=6] [--kmax=20] [--repeats=31] [--passes=5]
//              [--json=PATH]
//
// Prints one CSV row per point,
//   series,p,nu,log2n,n,parallel,min_us,median_us,pseudo_mflops
// (pseudo Mflop/s = 5 N log2 N / median time in us, the paper's metric),
// then the crossovers claims C1 and C4 are read from. --json writes the
// rows, with the host, nproc, the repeat and the pass count, to PATH
// (BENCH_fig3.json).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/fftw_like.hpp"
#include "baselines/sixstep.hpp"
#include "bench_common.hpp"
#include "core/spiral_fft.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace {

using namespace spiral;
using namespace spiral::bench;

struct Series {
  const char* name;
  int p;
  idx_t nu;
};

const std::vector<Series>& all_series() {
  static const std::vector<Series> series = [] {
    std::vector<Series> s;
    for (int p : {1, 2, 4}) {
      for (idx_t nu : {0, 4, 8}) s.push_back({"spiral", p, nu});
    }
    s.push_back({"spiral-blockcyclic", 4, 0});
    s.push_back({"fftw-seq", 1, 0});
    s.push_back({"fftw-threads", 4, 0});
    s.push_back({"six-step", 4, 0});
    return s;
  }();
  return series;
}

/// One measured point: the timing, and whether the program it ran has a
/// parallel stage (a (14) plan falls back to sequential below (p*mu)^2).
struct Point {
  Timing t;
  bool parallel = false;
};

bool has_parallel_stage(const backend::StageList& list) {
  for (const auto& s : list.stages) {
    if (s.parallel_p > 1) return true;
  }
  return false;
}

using Key = std::tuple<std::string, int, idx_t, int>;  // series, p, nu, k

Point measure(const Series& s, idx_t n, int repeats) {
  util::Rng rng(static_cast<std::uint64_t>(n));
  const auto x = rng.complex_signal(n);
  util::cvec y(x.size());
  const std::string name = s.name;
  Point pt;
  if (name == "fftw-seq" || name == "fftw-threads") {
    baselines::FftwLikeOptions fo;
    fo.threads = s.p;
    fo.min_parallel_n = 2;  // threads at every size: the measurement decides
    baselines::FftwLikeExecutor ex(baselines::fftw_like_plan(n, fo));
    pt.parallel = ex.parallel();
    pt.t = time_repeats([&] { ex.execute(x.data(), y.data()); }, repeats);
    return pt;
  }
  backend::StageList list;
  if (name == "six-step") {
    list = baselines::six_step_program(n, s.p);
  } else {
    core::PlannerOptions opt;
    opt.threads = s.p;
    opt.vector_nu = s.nu;
    const auto plan = core::plan_dft(n, opt);
    if (name == "spiral") {
      backend::ExecContext ctx;
      pt.parallel = has_parallel_stage(plan->stages());
      pt.t = time_repeats([&] { plan->execute(ctx, x.data(), y.data()); },
                          repeats);
      return pt;
    }
    list = plan->stages();  // spiral-blockcyclic
    for (auto& st : list.stages) {
      if (st.parallel_p > 1) st.sched_block = 1;
    }
  }
  pt.parallel = has_parallel_stage(list);
  backend::Program prog(std::move(list), backend::ExecPolicy::kThreadPool);
  backend::ExecContext ctx;
  pt.t = time_repeats([&] { prog.execute(ctx, x.data(), y.data()); },
                      repeats);
  return pt;
}

/// Runs one point in a fresh process: this binary with --point.
bool measure_in_child(const std::string& exe, std::size_t series, int k,
                      int repeats, Point* pt) {
  const std::string cmd = "'" + exe + "' --point=" + std::to_string(series) +
                          " --k=" + std::to_string(k) +
                          " --repeats=" + std::to_string(repeats);
  FILE* child = popen(cmd.c_str(), "r");
  if (child == nullptr) return false;
  int parallel = 0;
  const int got = std::fscanf(child, "%lf %lf %d", &pt->t.min_s,
                              &pt->t.median_s, &parallel);
  const int status = pclose(child);
  pt->parallel = parallel != 0;
  return got == 3 && status == 0;
}

std::string self_path() {
  char buf[4096];
  const ssize_t len = readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (len <= 0) return {};
  return std::string(buf, static_cast<std::size_t>(len));
}

/// One point over all passes: the min of the mins, the median of the
/// medians.
Point combine(std::vector<Point> runs) {
  Point out = runs.front();
  for (const Point& r : runs) out.t.min_s = std::min(out.t.min_s, r.t.min_s);
  std::sort(runs.begin(), runs.end(), [](const Point& a, const Point& b) {
    return a.t.median_s < b.t.median_s;
  });
  out.t.median_s = runs[runs.size() / 2].t.median_s;
  return out;
}

/// Smallest measured n at which `faster`, running a parallel program,
/// beats `slower` on the median, or 0 if it never does.
idx_t crossover(const std::map<Key, Point>& pts, const Series& faster,
                const Series& slower, int kmin, int kmax) {
  for (int k = kmin; k <= kmax; ++k) {
    const auto f = pts.find({faster.name, faster.p, faster.nu, k});
    const auto s = pts.find({slower.name, slower.p, slower.nu, k});
    if (f == pts.end() || s == pts.end() || !f->second.parallel) continue;
    if (f->second.t.median_s < s->second.t.median_s) return idx_t{1} << k;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliArgs args(argc, argv);
  const int repeats = static_cast<int>(args.get_int("repeats", 31));
  const auto& series = all_series();

  if (args.has("point")) {
    const auto i = static_cast<std::size_t>(args.get_int("point", 0));
    const int k = static_cast<int>(args.get_int("k", 6));
    if (i >= series.size() || repeats < 1) return 2;
    const Point pt = measure(series[i], idx_t{1} << k, repeats);
    std::printf("%.6e %.6e %d\n", pt.t.min_s, pt.t.median_s,
                pt.parallel ? 1 : 0);
    return 0;
  }

  const int kmin = static_cast<int>(args.get_int("kmin", 6));
  const int kmax = static_cast<int>(args.get_int("kmax", 20));
  const std::string exe = self_path();
  if (exe.empty()) {
    std::fprintf(stderr, "bench_fig3: cannot locate its own binary\n");
    return 1;
  }

  const int passes = static_cast<int>(args.get_int("passes", 5));
  if (passes < 1 || repeats < 1) {
    std::fprintf(stderr, "bench_fig3: --passes and --repeats must be >= 1\n");
    return 2;
  }
  std::map<Key, std::vector<Point>> runs;
  for (int pass = 0; pass < passes; ++pass) {
    for (int k = kmin; k <= kmax; ++k) {
      for (std::size_t i = 0; i < series.size(); ++i) {
        const Series& s = series[i];
        Point pt;
        if (!measure_in_child(exe, i, k, repeats, &pt)) {
          std::fprintf(stderr, "bench_fig3: point %s p=%d nu=%lld n=2^%d "
                       "failed\n", s.name, s.p, static_cast<long long>(s.nu),
                       k);
          return 1;
        }
        runs[{s.name, s.p, s.nu, k}].push_back(pt);
      }
    }
  }

  JsonRows json;
  describe_host(json, repeats);
  json.meta("passes", passes);
  std::printf("# DFT_N wall clock, one fresh process per point and pass, "
              "%d repeats, %d passes\n", repeats, passes);
  std::printf("series,p,nu,log2n,n,parallel,min_us,median_us,pseudo_mflops\n");
  std::map<Key, Point> pts;
  for (int k = kmin; k <= kmax; ++k) {
    const idx_t n = idx_t{1} << k;
    for (const Series& s : series) {
      const Point pt = combine(runs[{s.name, s.p, s.nu, k}]);
      pts[{s.name, s.p, s.nu, k}] = pt;
      const double mflops = util::pseudo_mflops(n, pt.t.median_s);
      std::printf("%s,%d,%lld,%d,%lld,%d,%.3f,%.3f,%.1f\n", s.name, s.p,
                  static_cast<long long>(s.nu), k, static_cast<long long>(n),
                  pt.parallel ? 1 : 0, pt.t.min_s * 1e6, pt.t.median_s * 1e6,
                  mflops);
      json.begin_row();
      json.field("series", s.name);
      json.field("p", s.p);
      json.field("nu", static_cast<std::int64_t>(s.nu));
      json.field("log2n", k);
      json.field("n", static_cast<std::int64_t>(n));
      json.field("parallel", pt.parallel ? 1 : 0);
      json.field("min_us", pt.t.min_s * 1e6);
      json.field("median_us", pt.t.median_s * 1e6);
      json.field("pseudo_mflops", mflops);
    }
  }

  // C1: the smallest size at which a parallel spiral plan beats the
  // sequential one at the same nu; C4: the same for the FFTW-like
  // threads against its sequential plan. Both on medians, counting only
  // points whose program has a parallel stage.
  std::printf("\n# crossovers (smallest n where the first beats the second; "
              "0 = never)\n");
  for (idx_t nu : {0, 4, 8}) {
    for (int p : {2, 4}) {
      std::printf("C1 spiral p=%d vs p=1, nu=%lld: %lld\n", p,
                  static_cast<long long>(nu),
                  static_cast<long long>(crossover(
                      pts, {"spiral", p, nu}, {"spiral", 1, nu}, kmin, kmax)));
    }
  }
  std::printf("C4 fftw-threads vs fftw-seq: %lld\n",
              static_cast<long long>(crossover(pts, {"fftw-threads", 4, 0},
                                               {"fftw-seq", 1, 0}, kmin,
                                               kmax)));

  if (args.has("json")) {
    const std::string path = args.get("json", "BENCH_fig3.json");
    if (!json.write(path)) {
      std::fprintf(stderr, "bench_fig3: cannot write '%s'\n", path.c_str());
      return 1;
    }
    std::printf("# wrote %s\n", path.c_str());
  }
  return 0;
}
