// The benchmark's workloads and the probes they share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/spiral_fft.hpp"
#include "host_probe.hpp"
#include "trace.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;  ///< where the Chrome trace and result record go
  HostBounds host;      ///< measured bounds (traced runs only)
};

/// Planner defaults shared by every workload: nu = 4, mu = 4, no JIT, no
/// autotuning.
constexpr idx_t kNu = 4;
constexpr idx_t kMu = 4;

/// A traced run measures its loop twice, untraced then traced, each for
/// this long; the difference is the tracing overhead.
inline double traced_window_s(const Args& a) { return std::min(a.seconds / 2, 3.0); }

inline spiral::core::PlannerOptions default_planner(int threads) {
  spiral::core::PlannerOptions opt;
  opt.threads = threads;
  opt.cache_line_complex = kMu;
  opt.vector_nu = kNu;
  return opt;
}

Result run_burst_1k(const Args& a, Tracer& tr);
Result run_large_4m(const Args& a, Tracer& tr);

/// The service layer (service_probe.cpp), run inside the traced burst-1k
/// run: records service.* and core.plan_cache.* into `r`, adding its
/// output checks to `checker` and `attempted` and its failures to
/// r.failed.
void probe_service(const Args& a, Tracer& tr, Result& r, Checker& checker,
                   std::uint64_t& attempted);

}  // namespace perfbench
