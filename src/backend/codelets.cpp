#include "backend/codelets.hpp"

#include <array>

#include "backend/codelet_template.hpp"
#include "backend/stage.hpp"
#include "rewrite/breakdown.hpp"
#include "spl/twiddle.hpp"

namespace spiral::backend {

static_assert(rewrite::kMaxCodeletSize <= kMaxCodelet,
              "every leaf the planner may choose needs a codelet");

namespace {

CodeletRoots make_roots(int sign) {
  CodeletRoots r;
  for (int k = 0; k < kMaxCodelet; ++k) {
    const cplx v = spl::root_of_unity(kMaxCodelet, k, sign);
    r.re[k] = v.real();
    r.im[k] = v.imag();
  }
  return r;
}

/// The one-lane instantiation of the codelet template.
struct ScalarLane {
  using V = double;
};

/// re + i im <- (re + i im) * s, in the order of std::complex's product.
inline void mul(double& re, double& im, cplx s) {
  const double r = re * s.real() - im * s.imag();
  im = re * s.imag() + im * s.real();
  re = r;
}

/// y = T_N(x) with io's addressing: gather (map or stride, fused scale),
/// the straight-line codelet, scatter.
template <int N, int Kind>
void codelet(const CodeletIo& io) {
  constexpr auto n = static_cast<std::size_t>(N);
  double xr[n], xi[n], yr[n], yi[n];
  for (int l = 0; l < N; ++l) {
    const cplx v =
        io.x[io.in_map != nullptr ? io.in_map[l] : l * io.in_stride];
    xr[l] = v.real();
    xi[l] = v.imag();
  }
  if (io.in_scale != nullptr) {
    for (int l = 0; l < N; ++l) mul(xr[l], xi[l], io.in_scale[l]);
  }
  Codelet<ScalarLane, N, Kind>::run(xr, xi, yr, yi,
                                    codelet_roots(Kind < 0 ? -1 : 1));
  if (io.out_scale != nullptr) {
    for (int l = 0; l < N; ++l) mul(yr[l], yi[l], io.out_scale[l]);
  }
  for (int l = 0; l < N; ++l) {
    io.y[io.out_map != nullptr ? io.out_map[l] : l * io.out_stride] =
        cplx(yr[l], yi[l]);
  }
}

template <int N, int Kind>
struct ScalarPick {
  static constexpr void (*fn)(const CodeletIo&) = &codelet<N, Kind>;
};

}  // namespace

const CodeletRoots& codelet_roots(int sign) {
  static const CodeletRoots roots[2] = {make_roots(-1), make_roots(+1)};
  return roots[sign < 0 ? 0 : 1];
}

void dft_codelet(idx_t n, int sign, const CodeletIo& io) {
  const auto fn = select_codelet<ScalarPick>(n, sign);
  util::require(fn != nullptr, "DFT codelet needs a 2-power size <= 64");
  fn(io);
}

void wht_codelet(idx_t n, const CodeletIo& io) {
  const auto fn = select_codelet<ScalarPick>(n, 0);
  util::require(fn != nullptr, "WHT codelet needs a 2-power size <= 64");
  fn(io);
}

int codelet_kind(const Stage& s) {
  return s.is_compute && !s.wht ? s.sign : 0;
}

double codelet_flops(idx_t n) {
  if (n <= 1) return 0.0;
  // log2(n) stages of n/2 butterflies: one complex mul (6 flops) and two
  // complex adds (4 flops) each.
  const double k = static_cast<double>(util::log2_exact(n));
  return k * static_cast<double>(n) / 2.0 * 10.0;
}

double wht_codelet_flops(idx_t n) {
  if (n <= 1) return 0.0;
  // log2(n) stages of n/2 butterflies, 2 complex adds (4 real flops) each.
  return static_cast<double>(util::log2_exact(n)) *
         static_cast<double>(n) / 2.0 * 4.0;
}

namespace {

/// The stride between a codelet's elements on a side whose element bits
/// double one stride (0 when they do not). Such a side — every affine
/// one among them — is addressed from the row base at(it*cn), so the
/// codelet runs its strided path.
idx_t element_stride(const BitStrideMap& m, idx_t cn) {
  const int c = util::log2_exact(cn);
  const auto& st = m.strides();
  if (c == 0) return 1;
  for (int b = 1; b < c; ++b) {
    if (st[static_cast<std::size_t>(b)] != st[0] << b) return 0;
  }
  return st[0];
}

}  // namespace

void run_stage_scalar(const Stage& s, const BitStrideMap& in,
                      const BitStrideMap& out, const cplx* src, cplx* dst,
                      idx_t lo, idx_t hi) {
  const idx_t cn = s.cn;
  constexpr idx_t kRowMax = kMaxCodelet;
  // A data stage (cn == 1) runs the identity codelet.
  const auto codelet = select_codelet<ScalarPick>(cn, codelet_kind(s));
  util::require(codelet != nullptr,
                "run_stage_scalar: codelet size is not a 2-power <= 64");
  const idx_t in_es = element_stride(in, cn);
  const idx_t out_es = element_stride(out, cn);
  std::array<std::int32_t, kRowMax> in_idx{};
  std::array<std::int32_t, kRowMax> out_idx{};
  std::array<cplx, kRowMax> in_w{};
  std::array<cplx, kRowMax> out_w{};
  // One iteration's cn scale values, read through the scale's map.
  auto scale_row = [cn](const StageScale& sc, idx_t it,
                        cplx* w) -> const cplx* {
    if (sc.empty()) return nullptr;
    for (idx_t l = 0; l < cn; ++l) w[l] = sc.at(it * cn + l);
    return w;
  };
  for (idx_t it = lo; it < hi; ++it) {
    CodeletIo io;
    if (in_es != 0) {
      io.x = src + in.at(it * cn);
      io.in_stride = in_es;
    } else {
      // BitStrideMap's constructor range-checked every reachable index.
      in.row(it * cn, cn, in_idx.data());
      io.x = src;
      io.in_map = in_idx.data();
    }
    if (out_es != 0) {
      io.y = dst + out.at(it * cn);
      io.out_stride = out_es;
    } else {
      out.row(it * cn, cn, out_idx.data());
      io.y = dst;
      io.out_map = out_idx.data();
    }
    io.in_scale = scale_row(s.in_scale, it, in_w.data());
    io.out_scale = scale_row(s.out_scale, it, out_w.data());
    codelet(io);
  }
}

}  // namespace spiral::backend
