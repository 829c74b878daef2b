// Lowering: SPL formula -> StageList (the backend's kernel IR).
//
// Pipeline (mirrors Spiral's implementation level, Section 2.3):
//   1. normalize(): pull compositions out of tensor products so the whole
//      formula becomes one top-level product of "loopable" factors,
//          (A.B) (x) I  ->  (A (x) I).(B (x) I)
//          I (x) (A.B)  ->  (I (x) A).(I (x) B)
//          I_p (x)|| (A.B) -> (I_p (x)|| A).(I_p (x)|| B)
//   2. lower(): walk each factor, accumulating the loop nest context
//      (iteration counts and strides from enclosing tensor constructs),
//      and emit one Stage per compute/permutation/diagonal leaf whose
//      absolute index maps are bit-stride functions (BitStrideMap); an
//      odd batch count is the maps' outer digit.
//   3. fuse_lowered() (see fuse.hpp): merge permutation and diagonal
//      stages into the neighbouring compute loops — the loop merging of
//      [11] that makes Spiral's permutations free.
#pragma once

#include "backend/stage.hpp"
#include "spl/formula.hpp"

namespace spiral::backend {

/// Step 1: composition-extraction normal form.
[[nodiscard]] spl::FormulaPtr normalize(const spl::FormulaPtr& f);

/// Steps 1+2: produces the unfused stage list. Throws std::invalid_argument
/// on constructs the backend cannot execute (e.g. a DFT nonterminal larger
/// than 64, which should have been expanded by the rewriting level) and
/// on leaves without a bit-stride form (a non-2-power codelet, diagonal or
/// stride permutation, or an odd loop that is not outermost).
[[nodiscard]] StageList lower(const spl::FormulaPtr& f);

/// Full pipeline: normalize, lower and fuse, then record which sides
/// are plain stride patterns (Stage::in_affine/out_affine, read off
/// BitStrideMap::affine).
[[nodiscard]] StageList lower_fused(const spl::FormulaPtr& f);

/// Test hook for mutation-testing the lowering verifier: when delta != 0,
/// lower_fused() rebuilds every affine out-side map with delta added to
/// the stride (elem_stride for compute stages, iter_stride for cn == 1
/// data stages). The resulting program writes the wrong elements, which
/// analysis::verify must flag (bounds / coverage / races) — proving the
/// verifier actually guards the affine sides. Never set outside tests
/// and spiral-lint's --mutate-affine gate.
void set_affine_stride_mutation(std::int32_t delta) noexcept;
[[nodiscard]] std::int32_t affine_stride_mutation() noexcept;

/// Mutation-testing hook for coalesced batch programs (spiral-lint
/// --mutate-batch-stride): when delta != 0, lower_fused() skews the
/// out-side ITERATION stride of every compute stage whose out-side is
/// affine — modelling a batch executor that packed k transforms with the
/// wrong per-transform stride, so consecutive transforms' outputs
/// overlap (or leave gaps). Unlike --mutate-affine this leaves the
/// within-codelet element stride intact; the defect is between loop
/// iterations, which for an I_k (x) DFT_n stage is between the k
/// coalesced transforms. analysis::verify must flag it (duplicate
/// writes / lost elements / bounds) and --check-exec must fail parity.
/// Never set outside tests and spiral-lint's WILL_FAIL gate.
void set_batch_stride_mutation(idx_t delta) noexcept;
[[nodiscard]] idx_t batch_stride_mutation() noexcept;

/// Mutation-testing hook (spiral-lint --mutate-twiddle): when enabled,
/// lower_fused() conjugates every stored fused scale value (the twiddle
/// diagonals of rule (3)/(6)), producing a program that is structurally
/// flawless — same footprints, same schedules — but numerically wrong on
/// any size with twiddle factors. The static verifier cannot see values,
/// so the lint execution-parity check must be what catches it. Never
/// enable outside mutation tests.
void set_twiddle_mutation(bool enabled) noexcept;
[[nodiscard]] bool twiddle_mutation() noexcept;

/// Diagnostic hook: when set, invoked with every StageList produced by
/// lower() and lower_fused() (the fused list is observed as well). The
/// test suite registers the static verifier here (tests/test_helpers.hpp)
/// so every program lowered anywhere is race/bounds-checked as a side
/// effect. Install once at startup; the observer may be called from
/// multiple planning threads concurrently and must be re-entrant.
using LoweringObserver = void (*)(const StageList&);
void set_lowering_observer(LoweringObserver obs) noexcept;
[[nodiscard]] LoweringObserver lowering_observer() noexcept;

}  // namespace spiral::backend
