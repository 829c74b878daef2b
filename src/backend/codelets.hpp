// Codelet facts shared by the interpreter and the emitter: a stage's
// codelet kind, the table of roots the straight-line codelets read, and
// their flop counts.
//
// The codelets themselves are the straight-line code of
// backend/codelet_template. The interpreter runs them only through the
// lane-batched stage driver of backend/simd: at W lanes for a stage
// whose maps prove a vector form, at one lane (plain double) for every
// other stage and for the head and tail of an unaligned chunk.
#pragma once

#include "util/common.hpp"

namespace spiral::backend {

struct Stage;

/// A stage's codelet kind, as backend/codelet_template counts it: the DFT
/// sign (-1/+1) of a DFT stage, 0 for a WHT stage or a data stage.
[[nodiscard]] int codelet_kind(const Stage& s);

/// Real flop count of DFT_n (2-power n) in the radix-2 upper-bound
/// model: log2(n) stages of n/2 butterflies, each with one complex
/// multiply. The codelets do fewer (w^0 and w^{n/4} cost no multiply);
/// StageList::flops uses this bound uniformly.
[[nodiscard]] double codelet_flops(idx_t n);

/// Flop count of the WHT codelet (2 real adds per complex add).
[[nodiscard]] double wht_codelet_flops(idx_t n);

}  // namespace spiral::backend
