// SIMD execution layer over the fused kernel IR: the one stage driver.
//
// The vectorizability analysis (backend/vectorize) proves per-side lane
// shapes on a stage's fused index maps; this module makes those proofs
// executable. Every stage runs through the lane-batched driver at some
// width W: W consecutive iterations become the W lanes of a vector
// register pair (split-lane complex: separate re/im vectors), the
// straight-line codelet of backend/codelet_template runs once on the
// pack with vector adds/muls and broadcast twiddle constants, and the
// proven form selects the load/store addressing. A stage whose maps
// prove no form, every stage of a program planned without vectors, and
// the head and tail of an unaligned chunk run at W = 1, where the lane
// type is plain double and every form reads lane 0 through the exact
// map. The forms at W >= 2:
//
//   kAcrossIterations — lanes are contiguous in memory: one wide load
//     plus a re/im deinterleave shuffle (the "A (x) I_nu" shape);
//   kStridedLanes     — lanes sit W complex elements apart (the
//     L^{nu^2}_nu register-transpose shape): per-lane strided moves
//     whose addressing is derived FROM the proven stride;
//   kWithinCodelet    — general per-lane addressing through the exact
//     stage maps (arithmetic still vectorized across the lanes).
//
// The drivers trust only the recorded form — addressing is computed from
// the form, not re-derived from the maps — so a wrong classification
// produces wrong results and is caught by the execution-parity gates
// (see set_vecform_mutation and the spiral-lint WILL_FAIL mutant).
//
// ISA dispatch is at runtime: kernels are instantiated from one shared
// header (simd_kernels.hpp) into per-ISA translation units compiled with
// the matching target flags (GCC/Clang vector extensions, so the same
// source serves SSE2, AVX2, AVX-512 and NEON). All loads/stores go
// through memcpy (unaligned-safe encodings, same speed on the 64 B
// aligned buffers util::AlignedAllocator guarantees), so a vector driver
// can never fault on alignment. The one exception is a stage group's
// streamed final write (StagePlan::stream_out): its non-temporal stores
// need aligned addresses, which the plan proves for the map and the
// driver checks for the buffer before it streams.
#pragma once

#include <array>
#include <vector>

#include "backend/stage.hpp"
#include "backend/vectorize.hpp"
#include "util/aligned_vector.hpp"

namespace spiral::backend::simd {

/// Instruction-set tiers the dispatcher distinguishes, in strength order.
enum class Isa {
  kScalar = 0,  ///< one-lane drivers only (fallback / forced off)
  kVec128 = 1,  ///< 128-bit: SSE2 / NEON, 2 complex lanes
  kAvx2 = 2,    ///< 256-bit AVX2+FMA, 4 complex lanes
  kAvx512 = 3,  ///< 512-bit AVX-512F, 8 complex lanes
};

[[nodiscard]] const char* to_string(Isa isa);

/// The widest pack, in complex<double> lanes (Isa::kAvx512).
inline constexpr idx_t kMaxWidth = 8;

/// Vector width in complex<double> lanes (1, 2, 4, kMaxWidth).
[[nodiscard]] idx_t isa_width(Isa isa);

/// The best ISA the host supports, honouring the SPIRAL_SIMD environment
/// override: "OFF"/"0"/"scalar" force kScalar, "128" caps at kVec128,
/// "avx2" caps at kAvx2, "avx512" caps at kAvx512 (all clamped to what
/// the CPU actually supports). The environment is read once per process.
[[nodiscard]] Isa detect_isa();

/// Test hook: force detect_isa() to report `isa` (clamped to host
/// support) until clear_isa_override(). Not thread-safe against
/// concurrent planning; tests only.
void set_isa_override(Isa isa) noexcept;
void clear_isa_override() noexcept;

struct StagePlan;

/// Variant kernel entry: runs iterations [it0, it1) of a stage (both
/// multiples of the driver's width) through the lane-batched driver, its
/// sides addressed through the given input and output maps. Each entry
/// serves one (width, codelet size, codelet kind).
using PackFn = void (*)(const Stage&, const BitStrideMap&,
                        const BitStrideMap&, const StagePlan&, const cplx*,
                        cplx*, idx_t, idx_t);

/// How the W lanes of a pack read one factor of a side's scale, read once
/// per plan off the factor map's strides on the lane bits [log2 cn,
/// log2 cn + log2 W): kBroadcast when none is projected (one value for
/// every lane), kContiguous when lane bit v has value stride 2^v (one
/// W-wide load), else kGather (a per-lane lookup through the map).
enum class ScaleForm { kNone, kBroadcast, kContiguous, kGather };

/// The lane forms of a side scale's factors, in factor order, kNone past
/// the last one (all kNone: the side has no scale).
using ScaleForms = std::array<ScaleForm, kMaxScaleFactors>;

/// Per-stage execution plan: the proven per-side forms at the chosen
/// width, the side scales' lane forms (values stay on the stage), the
/// drivers. Vectorized means width > 1.
struct StagePlan {
  idx_t width = 1;  ///< lanes W (a 2-power; 1 is the scalar program)
  VecForm in_form = VecForm::kAcrossIterations;
  VecForm out_form = VecForm::kAcrossIterations;
  ScaleForms in_scale{};
  ScaleForms out_scale{};
  /// The driver writes the output side with non-temporal stores when the
  /// destination is 64 B aligned (checked once per call), then fences.
  /// Set only where can_stream_out proves every store whole lines.
  bool stream_out = false;
  PackFn fn = nullptr;       ///< the driver at `width`
  PackFn edge_fn = nullptr;  ///< the one-lane driver: head and tail
};

/// Builds the execution plan for one stage at widths up to max_nu on the
/// given ISA, with the drivers for the stage's codelet size and kind. The
/// plan is at width 1 when no form proves at width 2 or more; its
/// drivers are null when none serves the stage (a non-2-power codelet,
/// cn > 64, or a data stage with cn != 1).
[[nodiscard]] StagePlan plan_stage(const Stage& s, idx_t max_nu, Isa isa);

/// Plan `p` of stage `s` with its sides addressed through `in` and `out`
/// instead of the stage's maps — a stage group's block-rebased sides.
/// The forms are proven again on those maps at p's width; drivers and
/// scale forms carry over, since scales are read by global position.
/// The stage's one-lane plan when a side does not prove at that width.
[[nodiscard]] StagePlan plan_sides(const StagePlan& p, const Stage& s,
                                   const BitStrideMap& in,
                                   const BitStrideMap& out);

/// True when plan `p` (for codelets of cn) can write through the
/// output map `out` with full-line non-temporal stores: the output form
/// is kAcrossIterations, one pack element covers whole 64 B lines
/// (W * 16 B >= 64 B), and `out` puts every pack's lane 0 at a multiple
/// of W — proven from its base and strides, as the forms are.
[[nodiscard]] bool can_stream_out(const StagePlan& p, idx_t cn,
                                  const BitStrideMap& out);

/// Runs iterations [lo, hi) of a stage under its plan for the sides
/// `in`/`out`: one-lane head/tail around the packs of the plan's width
/// (packs stay anchored at absolute multiples of the width, as the form
/// proofs require).
void run_stage(const Stage& s, const BitStrideMap& in,
               const BitStrideMap& out, const StagePlan& plan,
               const cplx* src, cplx* dst, idx_t lo, idx_t hi);

/// Mutation-testing hook (spiral-lint --mutate-vecform): plan_stage
/// records any proven kStridedLanes side as kAcrossIterations, making
/// the driver read/write contiguous lanes where the map strides them.
/// The static analyses cannot see this defect — the program itself is
/// untouched — so only the execution-parity check can catch it, proving
/// the dispatcher addresses lanes by the proven shape alone. Never
/// enable outside mutation tests.
void set_vecform_mutation(bool enabled) noexcept;
[[nodiscard]] bool vecform_mutation() noexcept;

/// Per-ISA-variant kernel resolvers, defined one per translation unit
/// (simd.cpp / simd_avx2.cpp / simd_avx512.cpp): the driver for a width
/// (up to the ISA's: 2, 4 and 8 respectively; the generic TU alone holds
/// width 1), a codelet size cn and a codelet kind
/// (backend::codelet_kind). A resolver returns nullptr for a shape it has
/// no driver for, and the AVX ones for every shape when their TU was
/// built without the ISA (compiler too old, wrong architecture, or
/// SPIRAL_SIMD=OFF at configure time).
[[nodiscard]] PackFn pack_fn_generic(idx_t width, idx_t cn, int kind);
[[nodiscard]] PackFn pack_fn_avx2(idx_t width, idx_t cn, int kind);
[[nodiscard]] PackFn pack_fn_avx512(idx_t width, idx_t cn, int kind);

}  // namespace spiral::backend::simd
