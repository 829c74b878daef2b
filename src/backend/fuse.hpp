// Loop merging on the stage IR (the backend half of [11]'s formula-level
// loop merging): permutation and diagonal stages are folded into the
// neighbouring compute loops as index maps and scale factors, so that —
// as in Spiral-generated code — "permutations are usually not performed
// explicitly" (paper, Section 3.1).
//
// Every lowered map is a bit permutation (BitStrideMap, with the odd
// outer digit of a batch count kept as the identity), so a fold is a
// composition of log n strides and its twiddles travel as small
// diagonals plus bit projections (BitDiag factors), which become the
// stage's symbolic StageScale at the end.
#pragma once

#include "backend/simd.hpp"
#include "backend/stage.hpp"
#include "backend/stage_group.hpp"

namespace spiral::backend {

/// True iff m is a bit permutation of [0, q * 2^bits): base 0, strides a
/// permutation of 1, 2, 4, ..., 2^(bits-1), and the outer digit (if any)
/// the identity, stride 2^bits. Every side of a complete lowered program
/// has this form.
[[nodiscard]] bool is_bit_permutation(const BitStrideMap& m);

/// Inverse of a bit permutation: invert(m).at(m.at(k)) == k. O(log n).
[[nodiscard]] BitStrideMap invert(const BitStrideMap& m);

/// outer o inner: compose(outer, inner).at(k) == outer.at(inner.at(k)).
/// inner must be a bit permutation over outer's positions (same bits,
/// same outer count). O(log n).
[[nodiscard]] BitStrideMap compose(const BitStrideMap& outer,
                                   const BitStrideMap& inner);

/// One factor of a diagonal on a bit-encoded stage side, kept symbolic
/// through lowering and fusion:
///
///   value(k) = values[sum_i bit_{bits[i]}(k) << i]
///
/// A twiddle leaf D_{m,n} inside a loop nest is a |D|-entry diagonal
/// projected on the low bits of k; folding it through a permutation only
/// renames the bits. No diagonal depends on the outer digit.
struct BitDiag {
  util::cvec values;
  std::vector<int> bits;
};

/// A diagonal as the product of its factors, left to right by
/// scale_product (StageScale's value). Empty: no diagonal.
using DiagFactors = std::vector<BitDiag>;

/// The cap on the values one factor stores: a kL2Bytes table, 2^17
/// complex values. Lowering stores a larger twiddle diagonal as two
/// factors, which stay within it through n = 2^23 (twiddle_diag in
/// lower.cpp gives the bound above), and fusion multiplies two factors
/// into one table only while it stays within this size.
inline constexpr idx_t kMaxScaleValues =
    static_cast<idx_t>(kL2Bytes / sizeof(cplx));

/// log2 of the widest SIMD pack (simd::kMaxWidth lanes): the iteration
/// bits [log2 cn, log2 cn + kLaneBits) above a stage's codelet bits hold
/// the lanes of any pack. Scale factors keep them together.
inline constexpr int kLaneBits = util::log2_exact(simd::kMaxWidth);

/// A stage between lowering and the end of fusion: its diagonals live
/// here (stage.in_scale/out_scale stay empty).
struct LoweredStage {
  Stage stage;
  DiagFactors in_diag;
  DiagFactors out_diag;
};

/// Fuses lowered stages in place:
///   1. adjacent pure (non-compute) stages are composed into one;
///   2. a pure stage directly right of a compute stage (i.e. applied
///      before it) is folded into that stage's input maps/diagonals;
///   3. a pure stage directly left of a compute stage (applied after it)
///      is folded into its output maps/diagonals.
/// Pure stages with no compute neighbour (e.g. a program that is a single
/// permutation) survive. The sides are lower()'s bit permutations; their
/// affine flags are left as found, and the diagonals stay symbolic.
/// Returns the number of stages eliminated.
int fuse_lowered(std::vector<LoweredStage>& stages);

/// Makes a lowered stage's diagonals its symbolic in_scale/out_scale
/// (StageScale) in O(|values|) and returns the stage.
[[nodiscard]] Stage materialize_scales(LoweredStage&& ls);

}  // namespace spiral::backend
