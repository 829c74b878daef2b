// Lane-batched SIMD kernels, shared source for every ISA variant.
//
// Each variant translation unit defines SPIRAL_SIMD_VARIANT (a bare
// namespace name: generic / avx2 / avx512) and includes this header
// while being compiled with the matching -m flags. The kernels are
// written against the GCC/Clang vector extensions, so the SAME code
// lowers to SSE2 pairs, ymm or zmm instructions depending only on the
// TU's target flags — and the variant namespace keeps the mangled
// symbols distinct, so the linker can never fold an AVX2 instantiation
// into the generic fallback (an ODR trap with identical template
// instantiations across differently-flagged TUs).
//
// Number model: split-lane complex. A pack of W consecutive iterations
// occupies vector re[l]/im[l] registers per codelet element l, and the
// codelet is the straight-line code of backend/codelet_template at lane
// type Ops<W>: every twiddle is a broadcast constant shared by all lanes,
// so the arithmetic is pure vector mul/add/fma with no shuffles. One
// driver is instantiated per (W, cn, kind); the plan picks it
// (pack_fn), so cn is a compile-time constant inside. At W = 1 the lane
// type is plain double: that driver runs every stage that proves no
// vector form and the head and tail around the packs. Only the generic
// TU instantiates it (pack_fn_generic), so its products are never
// contracted into the FMAs the AVX TUs' flags allow.
#pragma once

#ifndef SPIRAL_SIMD_VARIANT
#error "define SPIRAL_SIMD_VARIANT before including simd_kernels.hpp"
#endif

#include <cstdint>
#include <cstring>

#if defined(__AVX__)
#include <immintrin.h>
#endif

#include "backend/codelet_template.hpp"
#include "backend/simd.hpp"

namespace spiral::backend::simd {
namespace SPIRAL_SIMD_VARIANT {

template <int W>
struct VecT;
template <>
struct VecT<1> {
  using type = double;
};
template <>
struct VecT<2> {
  typedef double type __attribute__((vector_size(16)));
};
template <>
struct VecT<4> {
  typedef double type __attribute__((vector_size(32)));
};
template <>
struct VecT<8> {
  typedef double type __attribute__((vector_size(64)));
};

/// Per-width shuffle/load helpers. Loads and stores use memcpy: the
/// compilers emit the unaligned-encoding moves, which run at full speed
/// on the 64 B-aligned buffers the library allocates and cannot fault on
/// the caller-provided ones. kStream marks the widths whose interleaved
/// pair is whole 64 B lines and whose TU has the ISA's non-temporal
/// store: stream() (aligned addresses only) and fence() then exist.
template <int W>
struct Ops;

template <>
struct Ops<1> {
  using V = double;
  static constexpr bool kStream = false;
  static inline V loadu(const double* p) { return *p; }
  static inline void storeu(double* p, V v) { *p = v; }
  static inline void deinterleave(V a, V b, V& re, V& im) {
    re = a;
    im = b;
  }
  static inline void interleave(V re, V im, V& a, V& b) {
    a = re;
    b = im;
  }
};

template <>
struct Ops<2> {
  using V = VecT<2>::type;
  static constexpr bool kStream = false;  // half a line
  static inline V loadu(const double* p) {
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
  }
  static inline void storeu(double* p, V v) { std::memcpy(p, &v, sizeof(V)); }
  // a/b = W interleaved complex values; re/im = split lanes.
  static inline void deinterleave(V a, V b, V& re, V& im) {
    re = __builtin_shufflevector(a, b, 0, 2);
    im = __builtin_shufflevector(a, b, 1, 3);
  }
  static inline void interleave(V re, V im, V& a, V& b) {
    a = __builtin_shufflevector(re, im, 0, 2);
    b = __builtin_shufflevector(re, im, 1, 3);
  }
};

template <>
struct Ops<4> {
  using V = VecT<4>::type;
  static inline V loadu(const double* p) {
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
  }
  static inline void storeu(double* p, V v) { std::memcpy(p, &v, sizeof(V)); }
#if defined(__AVX__)
  static constexpr bool kStream = true;
  static inline void stream(double* p, V v) { _mm256_stream_pd(p, v); }
  static inline void fence() { _mm_sfence(); }
#else
  static constexpr bool kStream = false;
#endif
  static inline void deinterleave(V a, V b, V& re, V& im) {
    re = __builtin_shufflevector(a, b, 0, 2, 4, 6);
    im = __builtin_shufflevector(a, b, 1, 3, 5, 7);
  }
  static inline void interleave(V re, V im, V& a, V& b) {
    a = __builtin_shufflevector(re, im, 0, 4, 1, 5);
    b = __builtin_shufflevector(re, im, 2, 6, 3, 7);
  }
};

template <>
struct Ops<8> {
  using V = VecT<8>::type;
  static inline V loadu(const double* p) {
    V v;
    std::memcpy(&v, p, sizeof(V));
    return v;
  }
  static inline void storeu(double* p, V v) { std::memcpy(p, &v, sizeof(V)); }
#if defined(__AVX512F__)
  static constexpr bool kStream = true;
  static inline void stream(double* p, V v) { _mm512_stream_pd(p, v); }
  static inline void fence() { _mm_sfence(); }
#else
  static constexpr bool kStream = false;
#endif
  static inline void deinterleave(V a, V b, V& re, V& im) {
    re = __builtin_shufflevector(a, b, 0, 2, 4, 6, 8, 10, 12, 14);
    im = __builtin_shufflevector(a, b, 1, 3, 5, 7, 9, 11, 13, 15);
  }
  static inline void interleave(V re, V im, V& a, V& b) {
    a = __builtin_shufflevector(re, im, 0, 8, 1, 9, 2, 10, 3, 11);
    b = __builtin_shufflevector(re, im, 4, 12, 5, 13, 6, 14, 7, 15);
  }
};

template <int W>
inline typename VecT<W>::type bcast(double x) {
  if constexpr (W == 1) {
    return x;
  } else {
    typename VecT<W>::type v;
    for (int i = 0; i < W; ++i) v[i] = x;
    return v;
  }
}

/// Lane v of a pack register, read and written (the register itself at
/// one lane), so the lane loops below compile at every width.
template <int W>
inline double get_lane(typename VecT<W>::type x, int v) {
  if constexpr (W == 1) {
    return x;
  } else {
    return x[v];
  }
}
template <int W>
inline void set_lane(typename VecT<W>::type& x, int v, double a) {
  if constexpr (W == 1) {
    x = a;
  } else {
    x[v] = a;
  }
}

/// Loads one side of a pack (iterations [it, it+W), element l) into
/// split-lane registers, addressed BY THE RECORDED FORM: the base lane a0
/// comes from the side's exact map `m`, the remaining lanes from the
/// form's lane stride. (kWithinCodelet has no lane stride — every lane
/// goes through the exact map, which is always correct.) At one lane
/// every form reads lane 0 at a0, so the contiguous path serves them all.
template <int W>
inline void load_lanes(const BitStrideMap& m, idx_t cn, VecForm form,
                       const cplx* src, idx_t it, idx_t l, idx_t a0,
                       typename VecT<W>::type& re,
                       typename VecT<W>::type& im) {
  if (W == 1 || form == VecForm::kAcrossIterations) {
    const double* p = reinterpret_cast<const double*>(src + a0);
    const auto x0 = Ops<W>::loadu(p);
    const auto x1 = Ops<W>::loadu(p + W);
    Ops<W>::deinterleave(x0, x1, re, im);
    return;
  }
  // Lane by lane: the registers start from zero, so no lane is read
  // before it is written.
  re = typename VecT<W>::type{};
  im = re;
  if (form == VecForm::kStridedLanes) {
    for (int v = 0; v < W; ++v) {
      const cplx z = src[a0 + static_cast<idx_t>(v) * W];
      set_lane<W>(re, v, z.real());
      set_lane<W>(im, v, z.imag());
    }
    return;
  }
  for (int v = 0; v < W; ++v) {
    const idx_t a = m.at((it + v) * cn + l);
    set_lane<W>(re, v, src[a].real());
    set_lane<W>(im, v, src[a].imag());
  }
}

/// Stores one pack element back through the output map (mirror of
/// load_lanes). `stream`: contiguous lanes go out through non-temporal
/// stores (the caller proved them whole, aligned lines).
template <int W>
inline void store_lanes(const BitStrideMap& m, idx_t cn, VecForm form,
                        bool stream, cplx* dst, idx_t it, idx_t l, idx_t a0,
                        typename VecT<W>::type re,
                        typename VecT<W>::type im) {
  if (W == 1 || form == VecForm::kAcrossIterations) {
    typename VecT<W>::type y0, y1;
    Ops<W>::interleave(re, im, y0, y1);
    double* p = reinterpret_cast<double*>(dst + a0);
    if constexpr (Ops<W>::kStream) {
      if (stream) {
        Ops<W>::stream(p, y0);
        Ops<W>::stream(p + W, y1);
        return;
      }
    }
    Ops<W>::storeu(p, y0);
    Ops<W>::storeu(p + W, y1);
    return;
  }
  if (form == VecForm::kStridedLanes) {
    for (int v = 0; v < W; ++v) {
      dst[a0 + static_cast<idx_t>(v) * W] =
          cplx(get_lane<W>(re, v), get_lane<W>(im, v));
    }
    return;
  }
  for (int v = 0; v < W; ++v) {
    dst[m.at((it + v) * cn + l)] =
        cplx(get_lane<W>(re, v), get_lane<W>(im, v));
  }
}

/// The W lanes of one scale factor at pack element l of a pack of cn:
/// lane 0's value index a0 comes from the factor's map row, the other
/// lanes BY THE RECORDED FORM (gather: exact). One lane reads a0 alone
/// under every form.
template <int W>
inline void factor_lanes(const StageScale::Factor& f, ScaleForm form,
                         idx_t cn, idx_t it, idx_t l, std::int32_t a0,
                         typename VecT<W>::type& sr,
                         typename VecT<W>::type& si) {
  if (W == 1 || form == ScaleForm::kBroadcast) {
    sr = bcast<W>(f.re()[a0]);
    si = bcast<W>(f.im()[a0]);
  } else if (form == ScaleForm::kContiguous) {
    sr = Ops<W>::loadu(f.re() + a0);
    si = Ops<W>::loadu(f.im() + a0);
  } else {
    sr = typename VecT<W>::type{};
    si = sr;
    for (int v = 0; v < W; ++v) {
      const idx_t i = f.map().at((it + v) * cn + l);
      set_lane<W>(sr, v, f.re()[i]);
      set_lane<W>(si, v, f.im()[i]);
    }
  }
}

/// scale_pack for a two-factor scale: each lane's two factor values are
/// multiplied first, every partial product rounded as scale_product
/// rounds it, so the pack sees the value StageScale::at gives. One
/// out-of-line copy per width: only the one large stage of an n >= 2^18
/// plan (and its head and tail) runs it, and the driver of every
/// (W, CN, kind) carries a call instead of a second scale loop.
template <int W>
__attribute__((noinline)) void scale_pack_factored(
    const StageScale& sc, const ScaleForms& forms, idx_t cn, idx_t it,
    typename VecT<W>::type* re, typename VecT<W>::type* im) {
  static_assert(kMaxScaleFactors == 2);
  using V = typename VecT<W>::type;
  const auto& fs = sc.factors();
  std::int32_t row0[kMaxCodelet], row1[kMaxCodelet];
  fs[0].map().row(it * cn, cn, row0);
  fs[1].map().row(it * cn, cn, row1);
  for (idx_t l = 0; l < cn; ++l) {
    V sr, si, fr, fi;
    factor_lanes<W>(fs[0], forms[0], cn, it, l, row0[l], sr, si);
    factor_lanes<W>(fs[1], forms[1], cn, it, l, row1[l], fr, fi);
    const V r = rounded(sr * fr) - rounded(si * fi);
    si = rounded(sr * fi) + rounded(si * fr);
    sr = r;
    const V nr = re[l] * sr - im[l] * si;
    im[l] = re[l] * si + im[l] * sr;
    re[l] = nr;
  }
}

/// Multiplies a pack by a side scale. A single factor's loop is inline
/// and reads no second factor; a factored scale runs out of line.
template <int W, int CN>
inline void scale_pack(const StageScale& sc, const ScaleForms& forms,
                       idx_t it, typename VecT<W>::type* re,
                       typename VecT<W>::type* im) {
  if (forms[1] != ScaleForm::kNone) {
    scale_pack_factored<W>(sc, forms, CN, it, re, im);
    return;
  }
  const StageScale::Factor& f = sc.factors()[0];
  std::int32_t row[static_cast<std::size_t>(CN)];
  f.map().row(it * CN, CN, row);
  for (idx_t l = 0; l < CN; ++l) {
    typename VecT<W>::type sr, si;
    factor_lanes<W>(f, forms[0], CN, it, l, row[l], sr, si);
    const auto nr = re[l] * sr - im[l] * si;
    im[l] = re[l] * si + im[l] * sr;
    re[l] = nr;
  }
}

/// One pack of the driver below: iterations [it, it + W) through the
/// codelet of CN elements and kind Kind.
template <int W, int CN, int Kind>
[[gnu::always_inline]] inline void run_pack(
    const Stage& s, const BitStrideMap& in_bits, const BitStrideMap& out_bits,
    const StagePlan& plan, const cplx* src, cplx* dst, idx_t it, bool stream,
    const CodeletRoots& roots) {
  using V = typename VecT<W>::type;
  constexpr auto n = static_cast<std::size_t>(CN);
  V xr[n], xi[n], yr[n], yi[n];
  // Lane 0's addresses, one map row per side.
  std::int32_t in_row[n], out_row[n];
  in_bits.row(it * CN, CN, in_row);
  for (idx_t l = 0; l < CN; ++l) {
    load_lanes<W>(in_bits, CN, plan.in_form, src, it, l, in_row[l], xr[l],
                  xi[l]);
  }
  if (plan.in_scale[0] != ScaleForm::kNone) {
    scale_pack<W, CN>(s.in_scale, plan.in_scale, it, xr, xi);
  }
  Codelet<Ops<W>, CN, Kind>::run(xr, xi, yr, yi, roots);
  if (plan.out_scale[0] != ScaleForm::kNone) {
    scale_pack<W, CN>(s.out_scale, plan.out_scale, it, yr, yi);
  }
  out_bits.row(it * CN, CN, out_row);
  for (idx_t l = 0; l < CN; ++l) {
    store_lanes<W>(out_bits, CN, plan.out_form, stream, dst, it, l,
                   out_row[l], yr[l], yi[l]);
  }
}

/// run_pack at one lane, out of line: one scalar codelet per call. GCC
/// at -O3 compiles the loop over inlined one-lane packs 1.1-1.2x slower
/// (DFT_16 stages of a 2^16 plan, measured against the call per pack).
template <int CN, int Kind>
__attribute__((noinline)) void run_one_lane(
    const Stage& s, const BitStrideMap& in_bits, const BitStrideMap& out_bits,
    const StagePlan& plan, const cplx* src, cplx* dst, idx_t it,
    const CodeletRoots& roots) {
  run_pack<1, CN, Kind>(s, in_bits, out_bits, plan, src, dst, it, false,
                        roots);
}

/// The lane-batched driver for codelets of CN elements and kind Kind (the
/// DFT sign, 0 for WHT_CN; CN = 1 is a data stage): iterations
/// [it0, it1), both multiples of W. Every interpreter stage runs here;
/// W = 1 is the scalar program.
template <int W, int CN, int Kind>
void run_packs(const Stage& s, const BitStrideMap& in_bits,
               const BitStrideMap& out_bits, const StagePlan& plan,
               const cplx* src, cplx* dst, idx_t it0, idx_t it1) {
  const CodeletRoots& roots = codelet_roots(Kind < 0 ? -1 : 1);
  // The plan proved lane 0 at multiples of W; a 64 B-aligned buffer then
  // makes every streamed store whole lines. Other buffers store plainly.
  bool stream = false;
  if constexpr (Ops<W>::kStream) {
    stream = plan.stream_out &&
             reinterpret_cast<std::uintptr_t>(dst) % 64 == 0;
  }
  for (idx_t it = it0; it < it1; it += W) {
    if constexpr (W == 1) {
      run_one_lane<CN, Kind>(s, in_bits, out_bits, plan, src, dst, it, roots);
    } else {
      run_pack<W, CN, Kind>(s, in_bits, out_bits, plan, src, dst, it, stream,
                            roots);
    }
  }
  // Non-temporal stores are weakly ordered: fence them before the stage
  // barrier's release publishes the data to the other workers.
  if constexpr (Ops<W>::kStream) {
    if (stream) Ops<W>::fence();
  }
}

template <int W>
struct PackPick {
  template <int N, int Kind>
  struct At {
    static constexpr PackFn fn = &run_packs<W, N, Kind>;
  };
};

/// This variant's driver for a width (2-power in [2, MaxW]: the widths
/// its ISA dispatches), codelet size (2-power <= 64) and kind
/// (backend::codelet_kind); nullptr outside. The one-lane drivers are
/// resolved by pack_fn_generic alone.
template <int MaxW>
PackFn pack_fn(idx_t width, idx_t cn, int kind) {
  if (width == 2) return select_codelet<PackPick<2>::At>(cn, kind);
  if constexpr (MaxW >= 4) {
    if (width == 4) return select_codelet<PackPick<4>::At>(cn, kind);
  }
  if constexpr (MaxW >= 8) {
    if (width == 8) return select_codelet<PackPick<8>::At>(cn, kind);
  }
  return nullptr;
}

}  // namespace SPIRAL_SIMD_VARIANT
}  // namespace spiral::backend::simd
