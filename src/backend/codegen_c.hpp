// C code generator: turns a lowered+fused stage list into a standalone,
// compilable C99 translation unit — the analogue of Spiral's final output
// (Section 2.3 "Implementation level": SPL compiler emitting C with
// pthreads).
//
// The translation unit has one typed model, CProgram, and one syntax:
// every construct (header, tables, codelets, stage bodies, pool runtime,
// stage walk, entry, optional main) is a single function written against
// a codec that either appends the construct's text (write_c) or matches
// that text byte for byte and reads each value into its field (read_c).
// emit_c builds a CProgram from the StageList and writes it;
// analysis::codegen_check reads emitted text back through the same
// syntax and judges the values it read. The code around the values is
// written once here and pinned by the golden files and the
// compile-and-run tests (tests/test_codegen_*.cpp).
//
// The generated file contains:
//   * static const index-map / scale tables for every stage,
//   * one straight-line codelet per (size, sign, SIMD width) in use: the
//     interpreter's codelet template (codelet_template.hpp), recorded,
//   * one entry point
//       void <name>(const double* x, double* y, double* b0, double* b1)
//     operating on interleaved complex data, with caller-provided
//     ping-pong scratch b0/b1 (2n doubles each). A sequential program
//     calls its stages in turn and is reentrant. When some stage is
//     parallel, the entry dispatches the whole stage walk once to a
//     persistent pthreads team with sense-reversing spin barriers — the
//     "low-latency minimal overhead synchronization" of Section 3.2 —
//     created on the first call and shared process-wide,
//   * an optional self-testing main() comparing against a direct O(n^2)
//     DFT.
#pragma once

#include <string>
#include <vector>

#include "backend/stage.hpp"

namespace spiral::backend {

struct CodegenOptions {
  std::string function_name = "spiral_dft";
  bool emit_main = false;  ///< self-testing main() with exit code 0/1
  /// SIMD width in complex lanes (0 = scalar emission). Compute stages
  /// whose fused maps prove the contiguous-lane shape
  /// (kAcrossIterations on both sides) at this width are emitted as
  /// GNU-C vector-extension bodies: split-lane complex registers, the
  /// straight-line codelet over `vdW` values, one lane per iteration —
  /// the same shapes the interpreter's backend/simd drivers execute. Other
  /// stages keep the scalar emission. Requires a GNU-compatible C
  /// compiler (gcc/clang).
  idx_t simd_nu = 0;
};

/// One addressing side of an emitted stage: the inline closed form
/// base + it*iter_stride + l*elem_stride, or a `static const int` table
/// indexed by it*cn + l.
struct CSide {
  bool affine = false;
  idx_t base = 0;
  idx_t iter_stride = 0;
  idx_t elem_stride = 0;
  std::vector<idx_t> table;
};

/// One emitted stage: its tables, its stage function(s) and its pool
/// dispatch arm.
struct CStage {
  std::string label;
  CSide in, out;
  std::vector<double> iscl, oscl;  ///< interleaved re,im; empty: unscaled
  bool compute = false;            ///< codelet loop; else a copy loop
  idx_t cn = 1;
  bool wht = false;
  int sign = -1;
  bool narrow = false;  ///< index temporaries declared `int`, not `long`
  idx_t vec_w = 0;      ///< width of the vector body; 0: scalar only
  /// Shuffle lists of the vector body: ar, ai (deinterleave), o0, o1
  /// (interleave).
  std::vector<idx_t> shuffle[4];
  /// The dispatch: `iters` iterations split into `team` = stage_tasks
  /// tasks (backend/schedule). A pooled program writes it as the
  /// run_stage_chunk arm `if (t < team) stage(x, y, (long)t*iters/team,
  /// (long)(t+1)*iters/team)`, the schedule's contiguous chunk, or, when
  /// team == 1, `if (t == 0) stage(x, y, 0, iters)`; a sequential one in
  /// its walk.
  idx_t team = 1;
  idx_t iters = 0;
};

/// One three-address operation of a codelet body: t = a + b, a - b or
/// a * c. A value of a codelet over n points is re[j] (index j) or im[j]
/// (n + j) as loaded, or the result t_k of its op k (2n + k).
struct COp {
  enum Kind { kAdd, kSub, kMul };
  int kind = kAdd;
  idx_t a = 0, b = 0;  ///< b: kAdd and kSub only
  double c = 0.0;      ///< kMul: a root of codelet_roots, or -1 (negation)
};

/// One straight-line codelet function, DFT_n or WHT_n in place on re[],
/// im[]: Codelet<L, n, Kind> of backend/codelet_template.hpp as recorded
/// by emit_c; scalar when w == 0, else over `vdW` lanes.
struct CCodelet {
  bool wht = false;
  idx_t n = 0;
  int sign = -1;
  idx_t w = 0;
  std::vector<COp> ops;
  /// Stored after every op, in order: to re[k] (k < n), then im[k] (n + k).
  std::vector<idx_t> out;
};

/// Buffers a stage call reads or writes, and their names in the C.
enum CBuffer { kBufX, kBufY, kBufB0, kBufB1 };
inline constexpr const char* kBufNames[4] = {"x", "y", "b0", "b1"};

/// One step of the stage walk: a pool barrier or a stage call src -> dst.
/// `iters` is the iteration range of a sequential entry's call.
struct CStep {
  bool barrier = false;
  idx_t stage = 0;
  int src = kBufX;
  int dst = kBufY;
  idx_t iters = 0;
};

/// The emitted translation unit.
struct CProgram {
  idx_t n = 0;
  bool pooled = false;  ///< persistent-pool runtime and dispatch
  bool has_main = false;
  std::vector<idx_t> vec_types;  ///< widths W with a `vdW` typedef
  std::vector<CStage> stages;
  std::vector<CCodelet> codelets;
  idx_t pool_p = 1;
  /// `_Atomic` qualifier of job_x, job_y, job_b0, job_b1.
  bool atomic_jobs[4] = {true, true, true, true};
  /// run_program's walk when pooled, else the entry point's.
  std::vector<CStep> walk;
  std::string entry;
};

/// The C text of `p`.
[[nodiscard]] std::string write_c(CProgram p);

/// Reads `source` back into *p through the syntax write_c writes. On a
/// deviation returns false with *error naming its line and the text
/// expected there.
[[nodiscard]] bool read_c(const std::string& source, CProgram* p,
                          std::string* error);

/// Renders the stage list as a complete C source file: builds its
/// CProgram, then writes it.
[[nodiscard]] std::string emit_c(const StageList& list,
                                 const CodegenOptions& opts = {});

/// Seeded emitter defects for mutation-testing analysis::codegen_check
/// (`spiral-lint --mutate-codegen=<kind>`, WILL_FAIL ctest gates). Each
/// kind corrupts the CProgram emit_c builds — the StageList stays
/// truthful, so the static validator is the only line of defense the
/// mutation exercises.
enum class CodegenMutation {
  kNone,
  /// Input iteration stride off by one on affine sides, input table
  /// entries off by one (wrong-footprint class; caught as
  /// footprint-mismatch).
  kStrideSkew,
  /// Omit the pool_barrier() between dependent stage transitions in
  /// run_program (the race class; caught as missing-barrier).
  kDropBarrier,
  /// Swap the real/imag deinterleave shuffles of SIMD loads
  /// (re/im lane swap; caught as lane-mismatch).
  kSwapLanes,
  /// Declare index temporaries `int` instead of `long`
  /// (32-bit truncation class; caught as narrowed-index).
  kNarrowIndex,
};

void set_codegen_mutation(CodegenMutation m) noexcept;
[[nodiscard]] CodegenMutation codegen_mutation() noexcept;

}  // namespace spiral::backend
