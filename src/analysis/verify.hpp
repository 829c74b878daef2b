// Static verifier for lowered programs (the Stage IR).
//
// The paper's central correctness claim (Section 3.1, Definition 1) is
// that rewriting yields programs that are provably load-balanced and free
// of false sharing. The formula level checks this structurally
// (spl::check_fully_optimized); this pass carries the proof down to the
// *lowered* StageList the interpreter and the C emitter actually execute,
// so a bug in lower/fuse/vectorize or a bad sched_block schedule cannot
// silently reintroduce races or cache-line ping-pong.
//
// For each stage the verifier computes the exact per-task read/write
// footprints from its index maps plus the stage's schedule (parallel_p,
// sched_block, read through backend/schedule — the one iteration-to-task
// mapping the interpreter executes on a team of any size) and reports
// typed diagnostics:
//
//   * data races       — write/write overlap between threads within one
//                        parallel stage; read/write overlap when the
//                        stage's source and destination buffers alias
//                        (the in-place ping-pong scenario, opt-in).
//   * false sharing    — two threads writing distinct elements of the
//                        same mu-element cache line: the static
//                        counterpart of Definition 1, and exactly what
//                        the FFTW-3.1-style block-cyclic schedule
//                        (sched_block = 1) does on strided stages.
//   * load imbalance   — max/min per-thread codelet-count ratio beyond a
//                        threshold.
//   * well-formedness  — out-of-bounds indices, non-bijective output
//                        maps (lost or doubly-written elements),
//                        scale-vector length mismatches, and transform
//                        sizes the int32 index maps cannot address.
//   * group leaks      — a stage group (backend/stage_group) whose
//                        blocks are not closed: recomputed entry by
//                        entry, each block's reads in one stage must be
//                        exactly its writes in the stage before, else
//                        the block-by-block schedule computes garbage.
//
// Everything is deterministic and purely static: no execution, no
// allocation proportional to anything but the transform size.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backend/stage.hpp"

namespace spiral::analysis {

/// Diagnostic kinds, each guarding one contract of the lowered IR.
enum class Diag {
  kMapSizeMismatch,    ///< in_map/out_map length != iters*cn
  kScaleSizeMismatch,  ///< in_scale/out_scale over != iters*cn positions
  kIndexOutOfBounds,   ///< a map entry outside [0, n)
  kIndexOverflow,      ///< n exceeds what the int32 maps can address
  kDuplicateWrite,     ///< one thread writes an element twice (non-injective)
  kLostElement,        ///< an element never written (non-surjective out_map)
  kRaceWriteWrite,     ///< two threads write the same element in one stage
  kRaceReadWrite,      ///< a thread reads what another writes (aliased bufs)
  kFalseSharing,       ///< two threads write disjoint parts of one mu-line
  kLoadImbalance,      ///< per-thread codelet counts beyond the threshold
  kGroupLeak,          ///< a group block reads what another block wrote
};

enum class Severity {
  kError,    ///< the program computes wrong results or crashes
  kWarning,  ///< correct but violates a Definition-1 performance guarantee
};

[[nodiscard]] const char* to_string(Diag d);
[[nodiscard]] const char* to_string(Severity s);
[[nodiscard]] Severity severity_of(Diag d);

/// One finding, anchored to a stage (stage == -1: program-level).
struct Finding {
  Diag kind = Diag::kMapSizeMismatch;
  Severity severity = Severity::kError;
  int stage = -1;           ///< index into StageList::stages
  std::string stage_label;  ///< the stage's diagnostic label
  std::string message;      ///< human-readable detail with an example site
  std::int64_t count = 0;   ///< offending elements / lines / iterations
};

/// What to check. The defaults are the full contract the planner's output
/// must satisfy; execution_safety() is the reduced set (races + bounds)
/// suitable for arbitrary hand-built stage lists (test fixtures,
/// baselines that false-share by design).
struct Options {
  /// Cache-line length in complex elements (the paper's mu) used for the
  /// false-sharing analysis.
  idx_t mu = 4;
  /// Flag kLoadImbalance when max/min per-thread codelet count exceeds
  /// this (and the absolute difference exceeds one iteration).
  double imbalance_threshold = 1.5;
  /// Check output-map bijectivity (lost / doubly-written elements) and
  /// full coverage of the destination buffer.
  bool check_coverage = true;
  /// Check cross-thread write/write (and, with inplace_aliasing,
  /// read/write) overlap in parallel stages.
  bool check_races = true;
  bool check_false_sharing = true;
  bool check_load_balance = true;
  /// Model the stage's source and destination buffers as aliased (the
  /// in-place ping-pong scenario: a single-stage program executed with
  /// x == y and no staging copy). The library's interpreter always
  /// stages through scratch buffers, so this is off by default; enable
  /// it to vet programs for embedders that execute stages in place.
  bool inplace_aliasing = false;

  /// Races + bounds only: the contract every executable stage list must
  /// meet regardless of schedule quality.
  [[nodiscard]] static Options execution_safety() {
    Options o;
    o.check_coverage = false;
    o.check_false_sharing = false;
    o.check_load_balance = false;
    return o;
  }
};

/// Structured result of a verification run.
struct Report {
  idx_t n = 0;      ///< transform size of the verified program
  int stages = 0;   ///< number of stages analyzed
  std::vector<Finding> findings;

  /// No findings at all (the planner-output guarantee).
  [[nodiscard]] bool clean() const { return findings.empty(); }
  /// No error-severity findings (warnings tolerated).
  [[nodiscard]] bool ok() const { return error_count() == 0; }
  [[nodiscard]] std::size_t error_count() const;
  [[nodiscard]] std::size_t warning_count() const;
  /// Sum of finding counts of one kind (e.g. predicted false-shared
  /// cache lines across all stages).
  [[nodiscard]] std::int64_t total(Diag kind) const;
  /// Human-readable multi-line report with stage labels.
  [[nodiscard]] std::string to_string() const;
};

/// Verifies a lowered program against the given options.
[[nodiscard]] Report verify(const backend::StageList& program,
                            const Options& opt = {});

}  // namespace spiral::analysis
