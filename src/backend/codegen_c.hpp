// C code generator: turns a lowered+fused stage list into a standalone,
// compilable C99 translation unit — the analogue of Spiral's final output
// (Section 2.3 "Implementation level": SPL compiler emitting C with
// OpenMP parallel loops or pthreads).
//
// The generated file contains:
//   * static const index-map / twiddle tables for every stage,
//   * one function per distinct codelet size (iterative radix-2),
//   * one entry point for every threading mode,
//       void <name>(const double* x, double* y, double* b0, double* b1)
//     operating on interleaved complex data, with caller-provided
//     ping-pong scratch b0/b1 (2n doubles each): the function owns no
//     buffers, so sequential emissions are reentrant (the pthreads pool
//     emission dispatches through one process-wide team and is not),
//   * optional OpenMP pragmas or pthreads dispatch for parallel stages,
//   * an optional self-testing main() comparing against a direct O(n^2)
//     DFT.
//
// Integration tests compile the emitted source with the system compiler
// and run it (tests/test_codegen_c.cpp).
#pragma once

#include <string>

#include "backend/stage.hpp"

namespace spiral::backend {

enum class CodegenThreading {
  kNone,     ///< sequential C
  kOpenMP,   ///< #pragma omp parallel for on parallel stages
  kPthreads, ///< explicit pthread fork/join per parallel stage
  /// Persistent worker team with sense-reversing spin barriers — the
  /// "low-latency minimal overhead synchronization" the paper's generated
  /// code uses for fixed (N, p, mu) (Section 3.2). Threads are created on
  /// the first call and reused across transforms.
  kPthreadsPool,
};

struct CodegenOptions {
  std::string function_name = "spiral_dft";
  CodegenThreading threading = CodegenThreading::kNone;
  bool emit_main = false;  ///< self-testing main() with exit code 0/1
  /// SIMD width in complex lanes (0 = scalar emission). Compute stages
  /// whose fused maps prove the contiguous-lane shape
  /// (kAcrossIterations on both sides) at this width are emitted as
  /// GNU-C vector-extension bodies: split-lane complex registers,
  /// broadcast-twiddle radix-2 network, one lane per iteration — the
  /// same shapes the interpreter's backend/simd drivers execute. Other
  /// stages keep the scalar emission. Requires a GNU-compatible C
  /// compiler (gcc/clang).
  idx_t simd_nu = 0;
};

/// Renders the stage list as a complete C source file.
[[nodiscard]] std::string emit_c(const StageList& list,
                                 const CodegenOptions& opts = {});

/// Seeded emitter defects for mutation-testing analysis::codegen_check
/// (`spiral-lint --mutate-codegen=<kind>`, WILL_FAIL ctest gates). Each
/// kind corrupts only the rendered text — the StageList stays truthful,
/// so the static validator is the only line of defense the mutation
/// exercises.
enum class CodegenMutation {
  kNone,
  /// Input iteration stride off by one in emitted affine bodies
  /// (wrong-footprint class; caught as footprint-mismatch).
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
