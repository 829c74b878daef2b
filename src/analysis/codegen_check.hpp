// Static translation validation of the generated C (backend/codegen_c).
//
// The paper's deployment model is *generated code*: the program that
// serves traffic is the C translation unit `emit_c` renders, not the
// Stage IR the rest of the analysis stack reasons about. A runtime
// parity check alone once let a real gcc IPA-modref hoist-above-barrier
// miscompile through to debugging. This pass closes the gap in the
// FFTW/SPIRAL translation-validation style: it reads the source back
// into the emitter's own model, backend::CProgram, through the one
// syntax that wrote it (backend::read_c). Any byte outside that syntax
// is a parse-error; the code around the values is trusted, pinned by the
// golden files and the compile-and-run tests. Every value a check
// judges — bases, strides and index declaration types, index and scale
// tables, shuffle lists, codelet ops and constants, chunk arms, POOL_P,
// the job pointers' _Atomic qualifiers, the walk's barriers and stage
// calls — is read as a value, and three things are proven *statically*,
// before the compiler ever runs:
//
//  (a) Footprints & synchronization. The per-(iteration, element)
//      read/write indices, scale tables, and per-thread chunk bounds of
//      the *emitted* code are recomputed and diffed against the source
//      StageList; the reconstructed program is then re-run through
//      analysis::verify, so races, bounds violations, lost/duplicate
//      elements introduced by the emitter become typed findings. Barrier
//      placement between dependent stage transitions and the _Atomic
//      qualification of the pool's job pointers (the miscompile class
//      above) are checked structurally.
//
//  (b) 64-bit index safety. Every closed-form index expression must be
//      computed in 64-bit (`long`) arithmetic; a narrowed declaration is
//      flagged, and materialized int32 table sides are checked against
//      the 2*idx interleaved-address overflow bound at the plan's actual
//      n/p/nu.
//
//  (c) Codelet semantics. Every emitted DFT and WHT codelet (scalar and
//      across-iterations SIMD variants) is a straight-line op list — the
//      interpreter's codelet template, recorded — and is read back op by
//      op. Applied to all 2n real unit vectors (re and im separately:
//      the list is only R-linear), it must reproduce the DFT_n or WHT_n
//      matrix; an operand read before its definition is a mismatch too.
//      The SIMD deinterleave/interleave shuffle index lists are verified
//      lane by lane.
//
// Wired as `spiral-lint --validate-codegen` with
// `--mutate-codegen=<kind>` seeded emitter bugs for mutation testing.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "backend/stage.hpp"

namespace spiral::analysis {

/// Typed defect classes of the emitted program.
enum class CodegenDiag {
  kParseError,        ///< source deviates from the emitted syntax
  kShapeMismatch,     ///< n / stage count / stage kind / walk order and chain
  kFootprintMismatch, ///< emitted (it,l) addressing differs from the IR
  kScaleMismatch,     ///< emitted scale tables differ from the IR
  kScheduleMismatch,  ///< per-thread chunk bounds differ from the schedule
  kEmittedUnsafe,     ///< verify() errors on the reconstructed program
  kMissingBarrier,    ///< dependent stage transition without pool_barrier
  kNonAtomicJobDispatch, ///< job pointers not _Atomic (hoist-above-barrier)
  kNarrowedIndex,     ///< index expression computed in 32-bit arithmetic
  kCodeletMismatch,   ///< codelet linear map != DFT/WHT stage semantics
  kLaneMismatch,      ///< SIMD shuffle/lane addressing wrong (re/im swap…)
};

[[nodiscard]] const char* to_string(CodegenDiag d);

/// One finding, anchored to a stage (stage == -1: program-level).
struct CodegenFinding {
  CodegenDiag kind = CodegenDiag::kParseError;
  int stage = -1;
  std::string message;
};

/// Structured result of one validation run.
struct CodegenReport {
  idx_t n = 0;     ///< transform size read from the emitted header
  int stages = 0;  ///< stages read from the source
  /// Stages emitted with an across-iterations vector body, and the lane
  /// width of each (parallel arrays).
  std::vector<int> vec_stage_ids;
  std::vector<idx_t> vec_stage_widths;
  std::vector<CodegenFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
  [[nodiscard]] std::int64_t count(CodegenDiag kind) const;
  /// Human-readable multi-line report.
  [[nodiscard]] std::string to_string() const;
  /// "1:4,3:4" — the vectorized-stage summary.
  [[nodiscard]] std::string vec_stages_string() const;
};

struct CodegenCheckOptions {
  /// Cache-line length (complex elements) for the verify() re-run on the
  /// reconstructed program.
  idx_t mu = 4;
};

/// Validates `source` (a TU produced by backend::emit_c) against the
/// StageList it was emitted from. Purely static — the source is never
/// compiled or run.
[[nodiscard]] CodegenReport check_codegen(
    const std::string& source, const backend::StageList& list,
    const CodegenCheckOptions& opt = {});

}  // namespace spiral::analysis
