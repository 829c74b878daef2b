// Portable half of the SIMD layer: ISA detection (environment override +
// CPU probe), per-stage planning, the stage runner, and the generic
// kernel variant. This TU is compiled WITHOUT target-specific -m flags,
// so everything here — the one-lane drivers and the generic W=2 kernels,
// which GCC lowers to baseline 128-bit (SSE2/NEON) instructions — is safe
// to execute on any supported CPU, and no product is contracted into an
// FMA.
#define SPIRAL_SIMD_VARIANT generic
#include "backend/simd_kernels.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <string>

#include "backend/codelets.hpp"

namespace spiral::backend::simd {

const char* to_string(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return "scalar";
    case Isa::kVec128: return "vec128";
    case Isa::kAvx2: return "avx2";
    case Isa::kAvx512: return "avx512";
  }
  return "?";
}

idx_t isa_width(Isa isa) {
  switch (isa) {
    case Isa::kScalar: return 1;
    case Isa::kVec128: return 2;
    case Isa::kAvx2: return 4;
    case Isa::kAvx512: return kMaxWidth;
  }
  return 1;
}

namespace {

bool g_vecform_mutation = false;

// -1 = no override; otherwise the forced Isa value (tests only).
std::atomic<int> g_isa_override{-1};

/// What the hardware can actually run and the build has drivers for
/// (ignoring overrides): a variant TU compiled without its ISA flags has
/// none, and its tier is then out of reach.
Isa host_isa() {
#if defined(SPIRAL_SIMD_DISABLED)
  return Isa::kScalar;
#elif defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx512f") && pack_fn_avx512(8, 2, -1)) {
    return Isa::kAvx512;
  }
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
      pack_fn_avx2(4, 2, -1)) {
    return Isa::kAvx2;
  }
  return Isa::kVec128;  // SSE2 is the x86-64 baseline
#elif defined(__aarch64__)
  return Isa::kVec128;  // NEON is architectural on AArch64
#else
  return Isa::kScalar;
#endif
}

/// SPIRAL_SIMD environment cap, parsed once per process.
Isa env_cap() {
  const char* e = std::getenv("SPIRAL_SIMD");
  if (e == nullptr || *e == '\0') return Isa::kAvx512;  // no cap
  std::string v(e);
  for (auto& c : v) c = static_cast<char>(std::tolower(c));
  if (v == "off" || v == "0" || v == "scalar" || v == "none") {
    return Isa::kScalar;
  }
  if (v == "128" || v == "sse2" || v == "neon") return Isa::kVec128;
  if (v == "avx2" || v == "256") return Isa::kAvx2;
  if (v == "avx512" || v == "512") return Isa::kAvx512;
  return Isa::kAvx512;  // unrecognized: no cap
}

Isa clamp(Isa a, Isa cap) {
  return static_cast<int>(a) <= static_cast<int>(cap) ? a : cap;
}

/// The driver of `isa`'s variant TU. Each TU holds every width up to its
/// ISA's, so narrow stages on a wide host also run VEX/EVEX encodings
/// (no SSE/AVX transition stalls next to the wider stages).
PackFn resolve_pack_fn(idx_t width, idx_t cn, int kind, Isa isa) {
  switch (isa) {
    case Isa::kAvx512: return pack_fn_avx512(width, cn, kind);
    case Isa::kAvx2: return pack_fn_avx2(width, cn, kind);
    case Isa::kVec128: return pack_fn_generic(width, cn, kind);
    case Isa::kScalar: return nullptr;
  }
  return nullptr;
}

/// Records the proven side forms on a plan. Under the vecform mutation
/// the register-transpose shape is reported as the plain contiguous-lane
/// shape: the driver then loads lanes at stride 1 where the map puts
/// them at stride W — wrong results by design.
void set_forms(StagePlan& p, const SideVecInfo& sv) {
  p.width = sv.width;
  p.in_form = sv.in;
  p.out_form = sv.out;
  if (g_vecform_mutation) {
    if (p.in_form == VecForm::kStridedLanes) {
      p.in_form = VecForm::kAcrossIterations;
    }
    if (p.out_form == VecForm::kStridedLanes) {
      p.out_form = VecForm::kAcrossIterations;
    }
  }
}

/// The lane form of a scale factor at width w over codelets of cn: lane
/// bit v is position bit log2(cn) + v.
ScaleForm scale_form(const StageScale::Factor& f, idx_t cn, idx_t w) {
  const auto& st = f.map().strides();
  const auto c = static_cast<std::size_t>(util::log2_exact(cn));
  const auto lw = static_cast<std::size_t>(util::log2_exact(w));
  if (c + lw > st.size()) return ScaleForm::kGather;
  bool none = true;
  bool contiguous = true;
  for (std::size_t v = 0; v < lw; ++v) {
    none = none && st[c + v] == 0;
    contiguous = contiguous && st[c + v] == idx_t{1} << v;
  }
  if (none) return ScaleForm::kBroadcast;
  return contiguous ? ScaleForm::kContiguous : ScaleForm::kGather;
}

ScaleForms scale_forms(const StageScale& sc, idx_t cn, idx_t w) {
  ScaleForms forms{};
  for (std::size_t f = 0; f < sc.factors().size(); ++f) {
    forms[f] = scale_form(sc.factors()[f], cn, w);
  }
  return forms;
}

}  // namespace

void set_vecform_mutation(bool enabled) noexcept {
  g_vecform_mutation = enabled;
}
bool vecform_mutation() noexcept { return g_vecform_mutation; }

void set_isa_override(Isa isa) noexcept {
  // Clamped to what the process may actually dispatch: the hardware AND
  // the SPIRAL_SIMD environment cap. The hook selects among permitted
  // ISAs; it cannot re-enable a kill-switched build or host.
  g_isa_override.store(
      static_cast<int>(clamp(isa, clamp(host_isa(), env_cap()))),
      std::memory_order_relaxed);
}
void clear_isa_override() noexcept {
  g_isa_override.store(-1, std::memory_order_relaxed);
}

Isa detect_isa() {
  const int forced = g_isa_override.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Isa>(forced);
  static const Isa resolved = clamp(host_isa(), env_cap());
  return resolved;
}

StagePlan plan_stage(const Stage& s, idx_t max_nu, Isa isa) {
  StagePlan p;
  // Drivers exist for 2-power codelets up to 64 and for data stages.
  if (s.is_compute ? !util::is_pow2(s.cn) || s.cn > kMaxCodelet
                   : s.cn != 1) {
    return p;
  }
  // One lane reads every side in the contiguous form and every scale
  // factor as a broadcast.
  const int kind = codelet_kind(s);
  p.fn = p.edge_fn = pack_fn_generic(1, s.cn, kind);
  p.in_scale = scale_forms(s.in_scale, s.cn, 1);
  p.out_scale = scale_forms(s.out_scale, s.cn, 1);
  if (max_nu < 2 || isa == Isa::kScalar || s.iters < 2) return p;
  idx_t cap = std::min(isa_width(isa), max_nu);
  while (cap > s.iters) cap /= 2;
  if (cap < 2) return p;
  const SideVecInfo sv = stage_vector_sides(s, cap);
  if (sv.width < 2) return p;
  const PackFn fn = resolve_pack_fn(sv.width, s.cn, kind, isa);
  if (fn == nullptr) return p;
  set_forms(p, sv);
  p.fn = fn;
  p.in_scale = scale_forms(s.in_scale, s.cn, p.width);
  p.out_scale = scale_forms(s.out_scale, s.cn, p.width);
  return p;
}

StagePlan plan_sides(const StagePlan& p, const Stage& s,
                     const BitStrideMap& in, const BitStrideMap& out) {
  if (p.width == 1) return p;
  // The forms depend on the iteration shape and the maps only, so the
  // proof runs on a scale-free copy of them.
  Stage shape;
  shape.iters = s.iters;
  shape.cn = s.cn;
  shape.in_bits = in;
  shape.out_bits = out;
  const SideVecInfo sv = stage_vector_sides(shape, p.width);
  if (sv.width != p.width) return plan_stage(s, 1, Isa::kScalar);
  StagePlan q = p;
  set_forms(q, sv);
  return q;
}

bool can_stream_out(const StagePlan& p, idx_t cn, const BitStrideMap& out) {
  const idx_t w = p.width;
  if (p.out_form != VecForm::kAcrossIterations ||
      w * static_cast<idx_t>(sizeof(cplx)) < 64) {
    return false;
  }
  // Lane 0 of a pack is a position whose lane bits [log2 cn,
  // log2 cn + log2 W) are clear; every other bit, the base and the outer
  // digit must move the address by multiples of W.
  const int c = util::log2_exact(cn);
  const int lw = util::log2_exact(w);
  if (out.base() % w != 0 || out.outer_stride() % w != 0) return false;
  for (int b = 0; b < out.bits(); ++b) {
    if ((b < c || b >= c + lw) &&
        out.strides()[static_cast<std::size_t>(b)] % w != 0) {
      return false;
    }
  }
  return true;
}

void run_stage(const Stage& s, const BitStrideMap& in,
               const BitStrideMap& out, const StagePlan& plan,
               const cplx* src, cplx* dst, idx_t lo, idx_t hi) {
  const idx_t w = plan.width;
  // Packs are anchored at absolute multiples of w (the shape proofs and
  // the scale forms both assume it), so a chunk with unaligned bounds
  // runs a one-lane head/tail, which addresses lane 0 exactly under
  // every form.
  const idx_t a = std::min(((lo + w - 1) / w) * w, hi);
  const idx_t b = std::max((hi / w) * w, a);
  if (lo < a) plan.edge_fn(s, in, out, plan, src, dst, lo, a);
  if (a < b) plan.fn(s, in, out, plan, src, dst, a, b);
  if (b < hi) plan.edge_fn(s, in, out, plan, src, dst, b, hi);
}

PackFn pack_fn_generic(idx_t width, idx_t cn, int kind) {
  if (width == 1) {
    return select_codelet<generic::PackPick<1>::At>(cn, kind);
  }
  return generic::pack_fn<2>(width, cn, kind);
}

}  // namespace spiral::backend::simd
