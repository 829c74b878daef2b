// Static cache-locality and memory-traffic analyzer for lowered programs.
//
// analysis/verify.hpp proves a program *correct* (races, coverage, load
// balance); this pass predicts what the program will *cost* on a shared
// memory machine — without executing or simulating it access by access
// through cache models. From each stage's index maps and its
// iteration-to-thread schedule it computes:
//
//   * per-thread per-stage cache-line working sets (in / out / twiddle
//     footprints, balance across threads);
//   * stack-distance reuse within a stage, classified against the L1/L2
//     capacities of a machine::MachineConfig into predicted per-level
//     misses and memory lines;
//   * cross-stage producer->consumer line traffic across barriers: lines
//     written by thread i in stage s and read by thread j != i in stage
//     s+1 — exactly the coherence traffic the paper's mu/nu-aware
//     blocking (Section 3) exists to minimize;
//   * false-sharing severity: lines written by more than one thread
//     inside one stage, weighted by how often ownership crosses.
//
// The coherence side is *exact*, not estimated: machine::Simulator's
// cache-to-cache transfer and false-sharing counts depend only on the
// access order and the line-ownership directory (Simulator::touch
// consults the directory before any cache probe), so this pass replays
// the directory's state evolution in the simulator's deterministic
// round-robin interleave and reproduces coherence_transfers /
// false_sharing_events line for line (cross-validated exactly in
// tests/test_locality.cpp). The per-level miss side is an analytic
// model — working sets and stack distances against cache capacities —
// and is validated against the simulator within tolerance only.
//
// The predicted cycle count makes the pass usable as a *plan-time cost
// model*: search::DpSearch(cost, leaf, model, k) can rank split
// candidates with it and simulator-time only the top-k, cutting
// planning cost for large N (search::locality_model_parallel_cost).
#pragma once

#include <string>
#include <vector>

#include "backend/stage.hpp"
#include "backend/stage_group.hpp"
#include "machine/config.hpp"

namespace spiral::analysis {

/// Knobs for the locality analysis.
struct LocalityOptions {
  /// Threads the library would run with (the simulator's SimOptions
  /// equivalent); per-stage parallelism is backend::model_tasks,
  /// min(parallel_p, cores, threads).
  int threads = 1;
  /// Directory passes over the program. 2 models steady-state (repeated)
  /// execution — the state the paper measures and Simulator::run_steady
  /// reproduces; the report reflects the final pass. 1 = cold start.
  int passes = 2;
  /// Compute the analytic per-level miss / predicted-cycles model (the
  /// exact coherence counts are always computed).
  bool predict = true;
};

/// Per-stage analysis record (stages in execution order: index 0 is the
/// first stage executed, i.e. stages.back() of the StageList).
struct StageLocality {
  int stage = 0;             ///< execution-order index
  std::string label;         ///< Stage::label
  int parallel_used = 1;     ///< effective thread count (p_eff)
  std::int64_t iters = 0;
  std::int64_t accesses = 0;

  // Working sets, in cache lines.
  std::int64_t in_lines = 0;        ///< distinct source lines read
  std::int64_t out_lines = 0;       ///< distinct destination lines written
  std::int64_t tw_lines = 0;        ///< distinct twiddle-value lines read
  /// Stored values of the side scales (StageScale::size; 0: no scale).
  std::int64_t in_scale_values = 0;
  std::int64_t out_scale_values = 0;
  std::int64_t max_thread_lines = 0;  ///< largest per-thread footprint
  std::int64_t min_thread_lines = 0;  ///< smallest per-thread footprint

  // Cross-barrier traffic (exact, from the directory replay).
  std::int64_t cross_read_lines = 0;   ///< read transfers: consumer != producer
  std::int64_t producer_consumer_lines = 0;  ///< subset produced in stage s-1
  std::int64_t cross_write_lines = 0;  ///< write transfers (ownership moves)
  std::int64_t coherence_transfers = 0;   ///< == Simulator per-stage count
  std::int64_t false_sharing_events = 0;  ///< == Simulator per-stage count
  std::int64_t multi_writer_lines = 0;  ///< lines written by >= 2 threads
  /// Lines that had to move at least once (owner at first transfer was
  /// established in an earlier stage). transfers / ideal == 1 for
  /// Definition-1-conforming schedules; false sharing drives it above 1.
  std::int64_t ideal_transfer_lines = 0;
  /// cores x cores matrix: [i * cores + j] = lines produced by thread i
  /// and first read by thread j != i this stage.
  std::vector<std::int64_t> exchange;

  // Analytic model (LocalityOptions::predict).
  std::int64_t pred_l1_misses = 0;  ///< accesses missing L1 (fill from L2+)
  /// Lines predicted to come from memory. A side inside a stage group
  /// (a member's read of its predecessor's block, or its write for its
  /// successor) stays in the worker's block scratch and never counts.
  std::int64_t pred_mem_lines = 0;
  double pred_cycles = 0.0;
  bool bandwidth_bound = false;  ///< predicted bus occupancy > compute
};

/// Whole-program report.
struct LocalityReport {
  idx_t n = 0;
  int threads = 1;
  std::string machine;
  idx_t mu = 0;  ///< cache line length in complex elements
  std::vector<StageLocality> stages;
  /// The stage groups the executor runs block by block (execution order).
  std::vector<backend::StageGroup> groups;

  // Exact totals (final pass).
  std::int64_t accesses = 0;
  std::int64_t coherence_transfers = 0;
  std::int64_t false_sharing_events = 0;
  std::int64_t cross_read_lines = 0;
  std::int64_t cross_write_lines = 0;
  std::int64_t multi_writer_lines = 0;
  std::int64_t ideal_transfer_lines = 0;

  // Model totals.
  std::int64_t pred_l1_misses = 0;
  std::int64_t pred_mem_lines = 0;
  double pred_cycles = 0.0;
  double pred_seconds = 0.0;

  /// Line-transfer efficiency: actual coherence transfers over the lines
  /// that had to move at least once. 1.0 for a mu-aware schedule (every
  /// exchanged line crosses exactly once per stage); a mu-ignorant
  /// block-cyclic schedule ping-pongs lines and drives this above 1.
  [[nodiscard]] double traffic_ratio() const {
    return static_cast<double>(coherence_transfers) /
           static_cast<double>(ideal_transfer_lines > 0 ? ideal_transfer_lines
                                                        : 1);
  }
  /// The lint gate: no false sharing and no traffic regression.
  [[nodiscard]] bool clean(double max_traffic_ratio = 1.05) const {
    return false_sharing_events == 0 && traffic_ratio() <= max_traffic_ratio;
  }

  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] std::string to_json() const;
};

/// Analyzes `program` as it would execute on `cfg` with `opt.threads`
/// threads. Deterministic; never executes or lowers anything.
[[nodiscard]] LocalityReport analyze_locality(
    const backend::StageList& program, const machine::MachineConfig& cfg,
    const LocalityOptions& opt = {});

}  // namespace spiral::analysis
