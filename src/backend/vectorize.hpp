// Vectorizability analysis of lowered stages.
//
// The paper (Section 3.2) notes that formula (14) "breaks down to smaller
// DFTs with alignment guarantees for their input and output vectors",
// which "makes it possible to use (14) in tandem with the efficient short
// vector Cooley-Tukey FFT on machines with SIMD extensions". This module
// makes that guarantee checkable on the final kernel IR: a stage is
// nu-vectorizable when its (fused!) index maps move nu-aligned groups of
// nu contiguous complex elements, in one of the two canonical shapes of
// the short-vector framework [9, 10, 13]:
//
//   kAcrossIterations — the "A (x) I_nu" shape: nu consecutive loop
//     iterations read/write consecutive, aligned addresses (one SIMD
//     lane per iteration);
//   kWithinCodelet — the "I (x) A, unit stride" shape: each codelet's
//     gather/scatter consists of aligned nu-element runs.
//
// The multicore Cooley-Tukey FFT with mu = nu yields only these shapes
// (tested in test_vectorize.cpp); a naive radix-2 program does not.
#pragma once

#include "backend/stage.hpp"

namespace spiral::backend {

enum class VecForm {
  kNone,              ///< not vectorizable at the requested width
  kAcrossIterations,  ///< A (x) I_nu: lanes = consecutive iterations
  kWithinCodelet,     ///< aligned contiguous runs inside each codelet
  /// Lanes at stride nu with nu-aligned bases: the access pattern of a
  /// fused in-register transpose (VecShuffle). Executable with aligned
  /// vector loads plus nu x nu register shuffles — the L^{nu^2}_nu base
  /// case of the short-vector framework.
  kStridedLanes,
};

[[nodiscard]] const char* to_string(VecForm f);

struct VecInfo {
  VecForm form = VecForm::kNone;
  idx_t width = 1;  ///< largest working nu (power of two), 1 if none
};

/// Analyzes one stage for vector width up to max_nu (power of two).
/// Both input and output maps must satisfy the shape; fused scales do not
/// restrict vectorization (every lane reads its value through the scale
/// map; simd::ScaleForm picks the load).
[[nodiscard]] VecInfo stage_vector_info(const Stage& s, idx_t max_nu);

/// Per-side vectorization report. Execution needs the proven shape of
/// each side separately: a fused (I (x) A)L stage legitimately proves
/// kStridedLanes on its input map and kAcrossIterations on its output
/// map, and the SIMD drivers must address each side by its own form —
/// collapsing to the combined "weakest form" (stage_vector_info) would
/// mis-address one side.
struct SideVecInfo {
  VecForm in = VecForm::kNone;   ///< proven shape of the input map
  VecForm out = VecForm::kNone;  ///< proven shape of the output map
  idx_t width = 1;  ///< largest nu (2-power) at which BOTH sides prove
};

/// Per-side analysis of one stage for widths up to max_nu (power of two).
[[nodiscard]] SideVecInfo stage_vector_sides(const Stage& s, idx_t max_nu);

/// Per-stage analysis of the whole program.
[[nodiscard]] std::vector<VecInfo> program_vector_info(const StageList& list,
                                                       idx_t max_nu);

/// True iff EVERY stage of the program is vectorizable at width >= nu —
/// the executable statement of the paper's alignment-guarantee claim.
[[nodiscard]] bool fully_vectorizable(const StageList& list, idx_t nu);

}  // namespace spiral::backend
