// Shared plumbing for the benchmark harness: the library/baseline
// configurations measured in the paper's evaluation (Section 4), as
// functions from (size, machine) to simulated performance.
//
// Series names follow Figure 3's legend:
//   spiral-pthreads   multicore CT FFT (14), persistent pool, spin barriers
//   spiral-openmp     same program, simulated with an OpenMP-style
//                     barrier-cost multiplier (a simulated series, not an
//                     executor: the library has no OpenMP runtime path)
//   spiral-seq        generated sequential code (fused balanced ruletree)
//   fftw-pthreads     FFTW3.1-like: block-cyclic loop parallelization, no
//                     working thread pool; planner picks the best thread
//                     count per size (like FFTW's bench with -onthreads)
//   fftw-seq          FFTW3.1-like sequential plan
#pragma once

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "backend/lower.hpp"
#include "baselines/fftw_like.hpp"
#include "machine/simulator.hpp"
#include "rewrite/expand.hpp"
#include "rewrite/multicore_fft.hpp"

namespace spiral::bench {

using backend::StageList;
using machine::MachineConfig;
using machine::SimOptions;
using machine::SimResult;

/// Most balanced admissible multicore split, 0 if none.
inline idx_t admissible_split(idx_t n, idx_t p, idx_t mu) {
  idx_t best = 0;
  int best_gap = 1 << 30;
  for (idx_t m : rewrite::possible_splits(n)) {
    if (m % (p * mu) != 0 || (n / m) % (p * mu) != 0) continue;
    const int gap = std::abs(util::log2_floor(m) - util::log2_floor(n / m));
    if (best == 0 || gap < best_gap) {
      best = m;
      best_gap = gap;
    }
  }
  return best;
}

/// Spiral-generated sequential program (fused balanced ruletree).
inline StageList spiral_seq_plan(idx_t n) {
  return backend::lower_fused(
      rewrite::formula_from_ruletree(rewrite::balanced_ruletree(n)));
}

/// Spiral multicore program for (p, mu); nullopt when (14) inadmissible.
inline std::optional<StageList> spiral_par_plan(idx_t n, idx_t p, idx_t mu) {
  const idx_t m = admissible_split(n, p, mu);
  if (m == 0) return std::nullopt;
  auto f = rewrite::derive_multicore_ct(n, m, p, mu);
  return backend::lower_fused(rewrite::expand_dfts_balanced(f));
}

inline SimResult sim_spiral_seq(idx_t n, const MachineConfig& cfg) {
  SimOptions opt;
  opt.threads = 1;
  return machine::simulate(spiral_seq_plan(n), cfg, opt);
}

/// Best Spiral parallel result over thread counts {2, 4, ...} <= cores
/// (the paper always reports the best-performing configuration).
/// Falls back to the sequential result when no parallel plan exists or
/// none is faster — matching how the paper's parallel curves branch off
/// the sequential line.
inline SimResult sim_spiral_parallel(idx_t n, const MachineConfig& cfg,
                                     double sync_scale = 1.0) {
  SimResult best = sim_spiral_seq(n, cfg);
  for (int p = 2; p <= cfg.cores; p *= 2) {
    auto plan = spiral_par_plan(n, p, cfg.mu());
    if (!plan) continue;
    SimOptions opt;
    opt.threads = p;
    opt.thread_pool = true;
    opt.sync_scale = sync_scale;
    const SimResult r = machine::simulate(*plan, cfg, opt);
    if (r.cycles < best.cycles) best = r;
  }
  return best;
}

inline SimResult sim_fftw_seq(idx_t n, const MachineConfig& cfg) {
  baselines::FftwLikeOptions fo;
  fo.threads = 1;
  SimOptions opt;
  opt.threads = 1;
  return machine::simulate(baselines::fftw_like_plan(n, fo), cfg, opt);
}

/// FFTW-like with its planner picking the best thread count (1, 2, 4).
inline SimResult sim_fftw_parallel(idx_t n, const MachineConfig& cfg) {
  SimResult best = sim_fftw_seq(n, cfg);
  for (int p = 2; p <= cfg.cores; p *= 2) {
    baselines::FftwLikeOptions fo;
    fo.threads = p;
    fo.min_parallel_n = 2;  // let the measurement decide, not the cutoff
    SimOptions opt;
    opt.threads = p;
    opt.thread_pool = false;  // no (working) thread pooling in FFTW 3.1
    const SimResult r =
        machine::simulate(baselines::fftw_like_plan(n, fo), cfg, opt);
    if (r.cycles < best.cycles) best = r;
  }
  return best;
}

/// Row-oriented JSON emitter for benchmark results committed to the repo
/// (BENCH_*.json): an array of flat objects, one per measurement row.
/// Strings are quoted and escaped, numbers printed raw — just enough JSON
/// for `python -m json.tool` and plotting scripts, with no dependency.
class JsonRows {
 public:
  void begin_row() { rows_.emplace_back(); }

  void field(const std::string& key, const std::string& value) {
    std::string quoted;
    quoted.reserve(value.size() + 2);
    quoted.append("\"");
    quoted.append(escaped(value));
    quoted.append("\"");
    rows_.back().emplace_back(key, std::move(quoted));
  }
  void field(const std::string& key, const char* value) {
    field(key, std::string(value));
  }
  void field(const std::string& key, std::int64_t value) {
    rows_.back().emplace_back(key, std::to_string(value));
  }
  void field(const std::string& key, int value) {
    field(key, static_cast<std::int64_t>(value));
  }
  void field(const std::string& key, double value) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.8g", value);
    rows_.back().emplace_back(key, buf);
  }

  [[nodiscard]] std::string to_string() const {
    std::string out = "[\n";
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      out.append("  {");
      for (std::size_t f = 0; f < rows_[r].size(); ++f) {
        out.append("\"");
        out.append(rows_[r][f].first);
        out.append("\": ");
        out.append(rows_[r][f].second);
        if (f + 1 < rows_[r].size()) out.append(", ");
      }
      out.append(r + 1 < rows_.size() ? "},\n" : "}\n");
    }
    out.append("]\n");
    return out;
  }

  /// Writes the rows to `path`; returns false on I/O failure.
  bool write(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << to_string();
    return static_cast<bool>(os);
  }

 private:
  static std::string escaped(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out;
  }

  std::vector<std::vector<std::pair<std::string, std::string>>> rows_;
};

/// Smallest 2-power size at which `parallel` beats `sequential`, scanning
/// k in [k_lo, k_hi]. Returns 0 when no crossover found.
template <class ParFn, class SeqFn>
idx_t crossover_size(ParFn&& parallel, SeqFn&& sequential, int k_lo,
                     int k_hi) {
  for (int k = k_lo; k <= k_hi; ++k) {
    const idx_t n = idx_t{1} << k;
    if (parallel(n) < sequential(n)) return n;
  }
  return 0;
}

}  // namespace spiral::bench
