// DFT and WHT codelets — the base cases of the generated programs.
//
// A codelet computes one DFT_n or WHT_n (n a 2-power up to 64) with fully
// general addressing: input elements come either from a strided location
// (a stage side whose element bits keep one stride, e.g. an affine one)
// or through a row of absolute indices read off a bit-stride map (the
// result of fusing permutations into the loop, paper Section 3.1 / the
// loop-merging framework [11]), optionally multiplied by fused diagonal
// entries (twiddles) on load.
//
// The arithmetic is the straight-line code of backend/codelet_template
// at one lane (plain double), the same template the SIMD drivers
// instantiate at W lanes.
#pragma once

#include "util/aligned_vector.hpp"
#include "util/common.hpp"

namespace spiral::backend {

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

struct Stage;
class BitStrideMap;

/// A stage's codelet kind, as backend/codelet_template counts it: the DFT
/// sign (-1/+1) of a DFT stage, 0 for a WHT stage or a data stage.
[[nodiscard]] int codelet_kind(const Stage& s);

/// Runs iterations [lo, hi) of a stage through the scalar codelets (a
/// data stage through the size-1 one, a copy): the interpreter's scalar
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

/// Real flop count of DFT_n (2-power n) in the radix-2 upper-bound
/// model: log2(n) stages of n/2 butterflies, each with one complex
/// multiply. The codelets do fewer (w^0 and w^{n/4} cost no multiply);
/// the machine model and the locality figures use this bound uniformly.
[[nodiscard]] double codelet_flops(idx_t n);

/// Flop count of the WHT codelet (2 real adds per complex add).
[[nodiscard]] double wht_codelet_flops(idx_t n);

}  // namespace spiral::backend
