// Unrolled DFT codelets — the base cases of the generated programs.
//
// A codelet computes one DFT_n (n small) with fully general addressing:
// input elements come either from a strided location (a stage side whose
// element bits keep one stride, e.g. an affine one) or through a row of
// absolute indices read off a bit-stride map (the result of fusing
// permutations into the loop, paper Section 3.1 / the loop-merging
// framework [11]), optionally multiplied by fused diagonal entries
// (twiddles) on load.
//
// Sizes 2 and 4 are hand-unrolled (radix-2 DIT); the other powers of two
// up to 64 use an in-register iterative radix-2. Lowering emits no other
// size.
#pragma once

#include "util/aligned_vector.hpp"
#include "util/common.hpp"

namespace spiral::backend {

/// Largest codelet size with a fast-path implementation.
inline constexpr idx_t kCodeletMax = 32;

/// Addressing descriptor for one codelet invocation.
///
/// Input element l (0 <= l < n) is read from
///   x[in_map ? in_map[l] : l * in_stride]
/// and multiplied by in_scale[l] when in_scale != nullptr.
/// Output element l is written to
///   y[out_map ? out_map[l] : l * out_stride]
/// after multiplication by out_scale[l] when out_scale != nullptr.
struct CodeletIo {
  const cplx* x = nullptr;
  cplx* y = nullptr;
  idx_t in_stride = 1;
  idx_t out_stride = 1;
  const std::int32_t* in_map = nullptr;
  const std::int32_t* out_map = nullptr;
  const cplx* in_scale = nullptr;
  const cplx* out_scale = nullptr;
};

/// Computes y = DFT_n(x) with the given addressing. n a power of 2.
/// sign = -1: forward transform (w = e^{-2 pi i / n}); +1: inverse
/// (unscaled).
void dft_codelet(idx_t n, int sign, const CodeletIo& io);

/// Computes y = WHT_n(x) (Walsh-Hadamard: butterflies only, no twiddles,
/// self-inverse up to scaling) with the given addressing. n a power of 2.
void wht_codelet(idx_t n, const CodeletIo& io);

/// Read-only view of the radix-2 tables behind the power-of-two codelet
/// network: the bit-reversal order and the per-stage butterfly twiddles.
/// The SIMD layer broadcasts these scalar tables across its lanes, so
/// scalar and vector codelets share one numeric source of truth.
struct CodeletTables {
  /// stage_tw[s] holds the 2^s twiddles of the size-2^(s+1) stage.
  const cplx* stage_tw[6] = {};
  const std::int32_t* bitrev = nullptr;
};

/// Tables for DFT_n (power-of-two n in [2, 64]). The returned pointers
/// reference immutable process-lifetime statics.
[[nodiscard]] CodeletTables codelet_tables(idx_t n, int sign);

struct Stage;
class BitStrideMap;

/// Runs iterations [lo, hi) of a stage through the scalar codelets (or
/// the copy/scale loop of a pure data stage): the interpreter's scalar
/// path and the head/tail around the SIMD drivers' packs. The sides are
/// addressed through `in` and `out` — the stage's own maps, or a stage
/// group's block-rebased ones (backend/stage_group) — while codelet,
/// sign and scales come from `s`, indexed by the global iteration. A side
/// whose element bits keep one stride (every affine side does) uses the
/// codelets' strided addressing; any other hands the codelet one row of
/// cn indices per iteration. The stage's int32 tables are never read.
void run_stage_scalar(const Stage& s, const BitStrideMap& in,
                      const BitStrideMap& out, const cplx* src, cplx* dst,
                      idx_t lo, idx_t hi);

/// Real flop count of the codelet implementation for 2-power size n
/// (used by the machine model; matches the actual arithmetic performed).
[[nodiscard]] double codelet_flops(idx_t n);

/// Flop count of the WHT codelet (2 real adds per complex add).
[[nodiscard]] double wht_codelet_flops(idx_t n);

}  // namespace spiral::backend
