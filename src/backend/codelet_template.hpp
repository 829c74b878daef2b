// Straight-line DFT and WHT codelets, expanded by the C++ compiler.
//
// Codelet<L, N, Kind> computes DFT_N (Kind = -1 forward, +1 inverse,
// unscaled) or WHT_N (Kind = 0) for N a 2-power up to 64, on split re/im
// arrays of the lane type L::V: a GCC/Clang vector of W doubles (W
// codelet calls at once, one per lane) or plain double. The recursion is
// the radix-2 breakdown rule (paper Section 2.3)
//
//   DFT_2m = (DFT_2 (x) I_m) T^{2m}_m (I_2 (x) DFT_m) L^{2m}_2,
//   WHT_2m = (DFT_2 (x) I_m) (I_2 (x) WHT_m),
//
// unrolled at compile time into one basic block: L^{2m}_2 becomes a
// compile-time input stride, and each twiddle w_{2m}^j of T^{2m}_m has a
// compile-time index j. w^0 is a copy and w^{m/2} = -+i an exact swap of
// re and im with one sign change; every other twiddle is read at a fixed
// index of the table of 64th roots (codelet_roots), whose entries are
// spl::root_of_unity values and so bit-identical to root_of_unity(2m, j).
// DFT_64 alone takes the radix-8 step DFT_64 = (DFT_8 (x) I_8) T^64_8
// (I_8 (x) DFT_8) L^64_8 over radix-2 DFT_8s, for accuracy (radix8 below).
//
// The lane type L is a template parameter so that every instantiation is
// named after its caller's types: the SIMD variant TUs pass a type of
// their own namespace (simd_kernels.hpp, plain double at one lane), the
// C emitter's recorder one of its own, and no two ISA builds of one body
// can share a symbol.
#pragma once

#include <cstddef>
#include <utility>

#include "util/common.hpp"

namespace spiral::backend {

/// Largest codelet size: the table of roots below covers every twiddle of
/// DFT_N, N <= 64.
inline constexpr int kMaxCodelet = 64;

/// w_64^k = e^{sign 2 pi i k / 64}, k < 64, split re/im.
struct CodeletRoots {
  double re[kMaxCodelet];
  double im[kMaxCodelet];
};

/// The process-lifetime roots for sign -1 or +1 (backend/codelets.cpp).
[[nodiscard]] const CodeletRoots& codelet_roots(int sign);

/// y[k], k < N, of DFT_N / WHT_N applied to x[j * S], j < N.
template <class L, int N, int Kind, int S = 1>
struct Codelet {
  using V = typename L::V;

  [[gnu::always_inline]] static inline void run(const V* xr, const V* xi,
                                                V* yr, V* yi,
                                                const CodeletRoots& w) {
    if constexpr (N == 1) {
      yr[0] = xr[0];
      yi[0] = xi[0];
    } else if constexpr (Kind != 0 && N == 64) {
      radix8(xr, xi, yr, yi, w);
    } else {
      constexpr int M = N / 2;
      // The DFT splits its input even/odd (L^{2m}_2), the WHT in halves.
      using Half = Codelet<L, M, Kind, Kind == 0 ? S : 2 * S>;
      constexpr int second = Kind == 0 ? M * S : S;
      Half::run(xr, xi, yr, yi, w);
      Half::run(xr + second, xi + second, yr + M, yi + M, w);
      butterflies(yr, yi, w, std::make_integer_sequence<int, M>());
    }
  }

 private:
  /// DFT_64 = (DFT_8 (x) I_8) T^64_8 (I_8 (x) DFT_8) L^64_8: one twiddle
  /// stage between two radix-2 DFT_8 passes, where radix 2 throughout has
  /// five. The relative error at n = 64 measures 0.31 log2(n) u this way
  /// and 0.37 with radix 2 throughout.
  [[gnu::always_inline]] static inline void radix8(const V* xr,
                                                   const V* xi, V* yr,
                                                   V* yi,
                                                   const CodeletRoots& w) {
    V tr[static_cast<std::size_t>(N)], ti[static_cast<std::size_t>(N)];
    // Sub-DFT r reads x[(r + 8 j) S], j < 8, into t[8 r, 8 r + 8).
    rows(xr, xi, tr, ti, w, std::make_integer_sequence<int, 8>());
    twiddles(tr, ti, w, std::make_integer_sequence<int, N>());
    // Column j, t[j + 8 r] for r < 8, goes to y[j + 8 r].
    columns(tr, ti, yr, yi, w, std::make_integer_sequence<int, 8>());
  }

  template <int... R>
  [[gnu::always_inline]] static inline void rows(
      const V* xr, const V* xi, V* tr, V* ti, const CodeletRoots& w,
      std::integer_sequence<int, R...>) {
    (Codelet<L, 8, Kind, 8 * S>::run(xr + R * S, xi + R * S, tr + 8 * R,
                                      ti + 8 * R, w),
     ...);
  }

  /// t[8 r + j] *= w_64^{r j}: a copy at r j = 0, the exact -+i swap at
  /// r j = 16, a table root otherwise.
  template <int... I>
  [[gnu::always_inline]] static inline void twiddles(
      V* tr, V* ti, const CodeletRoots& w, std::integer_sequence<int, I...>) {
    (twiddle<(I / 8) * (I % 8)>(tr[I], ti[I], w), ...);
  }

  template <int K>
  [[gnu::always_inline]] static inline void twiddle(V& re, V& im,
                                                    const CodeletRoots& w) {
    if constexpr (K == 16) {
      const V r = re;
      re = Kind < 0 ? im : -im;
      im = Kind < 0 ? -r : r;
    } else if constexpr (K != 0) {
      const double c = w.re[K], s = w.im[K];
      const V r = re * c - im * s;
      im = re * s + im * c;
      re = r;
    }
  }

  template <int... J>
  [[gnu::always_inline]] static inline void columns(
      const V* tr, const V* ti, V* yr, V* yi, const CodeletRoots& w,
      std::integer_sequence<int, J...>) {
    (column<J>(tr, ti, yr, yi, w), ...);
  }

  template <int J>
  [[gnu::always_inline]] static inline void column(const V* tr,
                                                   const V* ti, V* yr, V* yi,
                                                   const CodeletRoots& w) {
    V cr[8], ci[8];
    Codelet<L, 8, Kind, 8>::run(tr + J, ti + J, cr, ci, w);
    for (int r = 0; r < 8; ++r) {
      yr[J + 8 * r] = cr[r];
      yi[J + 8 * r] = ci[r];
    }
  }

  template <int... J>
  [[gnu::always_inline]] static inline void butterflies(
      V* yr, V* yi, const CodeletRoots& w, std::integer_sequence<int, J...>) {
    (butterfly<J>(yr, yi, w), ...);
  }

  /// y[J], y[J + N/2] <- y[J] +- w_N^J y[J + N/2].
  template <int J>
  [[gnu::always_inline]] static inline void butterfly(V* yr, V* yi,
                                                      const CodeletRoots& w) {
    constexpr int M = N / 2;
    const V ur = yr[J], ui = yi[J];
    const V br = yr[J + M], bi = yi[J + M];
    if constexpr (Kind == 0 || J == 0) {
      yr[J] = ur + br;
      yi[J] = ui + bi;
      yr[J + M] = ur - br;
      yi[J + M] = ui - bi;
    } else if constexpr (2 * J == M) {
      // w_N^{N/4} = Kind * i: b * (-i) = (bi, -br), b * i = (-bi, br).
      if constexpr (Kind < 0) {
        yr[J] = ur + bi;
        yi[J] = ui - br;
        yr[J + M] = ur - bi;
        yi[J + M] = ui + br;
      } else {
        yr[J] = ur - bi;
        yi[J] = ui + br;
        yr[J + M] = ur + bi;
        yi[J + M] = ui - br;
      }
    } else {
      constexpr int k = J * (kMaxCodelet / N);
      const double c = w.re[k], s = w.im[k];
      const V tr = br * c - bi * s;
      const V ti = br * s + bi * c;
      yr[J] = ur + tr;
      yi[J] = ui + ti;
      yr[J + M] = ur - tr;
      yi[J + M] = ui - ti;
    }
  }
};

/// Pick<n, kind>::fn for a runtime codelet size n (a 2-power <= 64) and
/// kind (the DFT sign, or 0 for the WHT); nullptr for any other size.
/// Every kind shares the size-1 instantiation, the identity.
template <template <int, int> class Pick, int Kind>
auto select_codelet_size(idx_t n) -> decltype(Pick<1, 0>::fn) {
  switch (n) {
    case 1: return Pick<1, 0>::fn;
    case 2: return Pick<2, Kind>::fn;
    case 4: return Pick<4, Kind>::fn;
    case 8: return Pick<8, Kind>::fn;
    case 16: return Pick<16, Kind>::fn;
    case 32: return Pick<32, Kind>::fn;
    case 64: return Pick<64, Kind>::fn;
    default: return nullptr;
  }
}

template <template <int, int> class Pick>
auto select_codelet(idx_t n, int kind) -> decltype(Pick<1, 0>::fn) {
  if (kind < 0) return select_codelet_size<Pick, -1>(n);
  if (kind > 0) return select_codelet_size<Pick, 1>(n);
  return select_codelet_size<Pick, 0>(n);
}

}  // namespace spiral::backend
