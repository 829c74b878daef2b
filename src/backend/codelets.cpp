#include "backend/codelets.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "backend/stage.hpp"
#include "spl/twiddle.hpp"

namespace spiral::backend {

namespace {

/// Gathers the n input values (applying map/stride and fused scale) into
/// the stack buffer. Uniform-stride sides take the strided branches;
/// the unit-stride case is a straight contiguous copy the compiler can
/// turn into wide loads.
inline void gather(idx_t n, const CodeletIo& io, cplx* buf) {
  if (io.in_map != nullptr) {
    for (idx_t l = 0; l < n; ++l) buf[l] = io.x[io.in_map[l]];
  } else if (io.in_stride == 1) {
    for (idx_t l = 0; l < n; ++l) buf[l] = io.x[l];
  } else {
    for (idx_t l = 0; l < n; ++l) buf[l] = io.x[l * io.in_stride];
  }
  if (io.in_scale != nullptr) {
    for (idx_t l = 0; l < n; ++l) buf[l] *= io.in_scale[l];
  }
}

/// Scatters the n output values (applying map/stride and fused scale).
inline void scatter(idx_t n, const CodeletIo& io, const cplx* buf) {
  if (io.out_scale != nullptr) {
    if (io.out_map != nullptr) {
      for (idx_t l = 0; l < n; ++l)
        io.y[io.out_map[l]] = buf[l] * io.out_scale[l];
    } else if (io.out_stride == 1) {
      for (idx_t l = 0; l < n; ++l) io.y[l] = buf[l] * io.out_scale[l];
    } else {
      for (idx_t l = 0; l < n; ++l)
        io.y[l * io.out_stride] = buf[l] * io.out_scale[l];
    }
    return;
  }
  if (io.out_map != nullptr) {
    for (idx_t l = 0; l < n; ++l) io.y[io.out_map[l]] = buf[l];
  } else if (io.out_stride == 1) {
    for (idx_t l = 0; l < n; ++l) io.y[l] = buf[l];
  } else {
    for (idx_t l = 0; l < n; ++l) io.y[l * io.out_stride] = buf[l];
  }
}

/// In-place iterative radix-2 DIT on a buffer of power-of-two length.
/// Twiddles for the butterflies are read from a per-(n,sign) static table.
struct Pow2Tables {
  // tw[s] holds the n/2 twiddles of the size-2^(s+1) butterfly stage.
  std::array<std::vector<cplx>, 6> stage_tw;  // up to n = 64
  std::array<std::int32_t, 64> bitrev{};
};

struct AllPow2Tables {
  Pow2Tables t[2][7];  // [sign<0 ? 0 : 1][log2 n]
  AllPow2Tables() {
    for (int s = 0; s < 2; ++s) {
      const int sign = (s == 0) ? -1 : +1;
      for (int k = 1; k <= 6; ++k) {
        const idx_t n = idx_t{1} << k;
        Pow2Tables& tab = t[s][k];
        for (idx_t i = 0; i < n; ++i) {
          idx_t r = 0;
          for (int b = 0; b < k; ++b) r |= ((i >> b) & 1) << (k - 1 - b);
          tab.bitrev[static_cast<std::size_t>(i)] =
              static_cast<std::int32_t>(r);
        }
        // Stage twiddles: the stage with half-size h uses w_{2h}^j, j < h.
        for (int st = 0; st < k; ++st) {
          const idx_t h = idx_t{1} << st;
          auto& tw = tab.stage_tw[static_cast<std::size_t>(st)];
          tw.resize(static_cast<std::size_t>(h));
          for (idx_t j = 0; j < h; ++j) {
            tw[static_cast<std::size_t>(j)] =
                spl::root_of_unity(2 * h, j, sign);
          }
        }
      }
    }
  }
};

const Pow2Tables& pow2_tables(idx_t n, int sign) {
  // Magic-static initialization is thread-safe; all tables are built
  // eagerly on first use so codelets never write shared state afterwards.
  static const AllPow2Tables all;
  return all.t[sign < 0 ? 0 : 1][util::log2_exact(n)];
}

void dft_pow2_inplace(idx_t n, int sign, cplx* a) {
  const Pow2Tables& t = pow2_tables(n, sign);
  // Bit-reversal reorder (out-of-place into a scratch then copy back is
  // avoided by the standard swap loop).
  for (idx_t i = 0; i < n; ++i) {
    const idx_t r = t.bitrev[static_cast<std::size_t>(i)];
    if (r > i) std::swap(a[i], a[r]);
  }
  const int k = util::log2_exact(n);
  for (int st = 0; st < k; ++st) {
    const idx_t h = idx_t{1} << st;
    const auto& tw = t.stage_tw[static_cast<std::size_t>(st)];
    for (idx_t base = 0; base < n; base += 2 * h) {
      for (idx_t j = 0; j < h; ++j) {
        const cplx u = a[base + j];
        const cplx v = a[base + j + h] * tw[static_cast<std::size_t>(j)];
        a[base + j] = u + v;
        a[base + j + h] = u - v;
      }
    }
  }
}

}  // namespace

CodeletTables codelet_tables(idx_t n, int sign) {
  util::require(n >= 2 && n <= 64 && util::is_pow2(n),
                "codelet tables need a 2-power size in [2, 64]");
  const Pow2Tables& t = pow2_tables(n, sign);
  CodeletTables out;
  const int k = util::log2_exact(n);
  for (int st = 0; st < k; ++st) {
    out.stage_tw[st] = t.stage_tw[static_cast<std::size_t>(st)].data();
  }
  out.bitrev = t.bitrev.data();
  return out;
}

void dft_codelet(idx_t n, int sign, const CodeletIo& io) {
  std::array<cplx, 64> buf;
  util::require(n >= 1 && n <= 64 && util::is_pow2(n),
                "DFT codelet needs a 2-power size <= 64");
  gather(n, io, buf.data());
  switch (n) {
    case 1:
      break;
    case 2: {
      const cplx u = buf[0], v = buf[1];
      buf[0] = u + v;
      buf[1] = u - v;
      break;
    }
    case 4: {
      // Radix-2 DIT, fully unrolled. w_4 = sign*i.
      const cplx t0 = buf[0] + buf[2];
      const cplx t1 = buf[0] - buf[2];
      const cplx t2 = buf[1] + buf[3];
      cplx t3 = buf[1] - buf[3];
      t3 = (sign < 0) ? cplx(t3.imag(), -t3.real())
                      : cplx(-t3.imag(), t3.real());  // * (+-i)
      buf[0] = t0 + t2;
      buf[2] = t0 - t2;
      buf[1] = t1 + t3;
      buf[3] = t1 - t3;
      break;
    }
    default:
      dft_pow2_inplace(n, sign, buf.data());
      break;
  }
  scatter(n, io, buf.data());
}

void wht_codelet(idx_t n, const CodeletIo& io) {
  std::array<cplx, 64> buf;
  util::require(n >= 1 && n <= 64 && util::is_pow2(n),
                "WHT codelet needs a 2-power size <= 64");
  gather(n, io, buf.data());
  // In-place butterflies, no reordering needed (WHT is its own
  // "bit-reversed" self: the tensor-power structure is order-free).
  for (idx_t h = 1; h < n; h *= 2) {
    for (idx_t base = 0; base < n; base += 2 * h) {
      for (idx_t j = 0; j < h; ++j) {
        const cplx u = buf[static_cast<std::size_t>(base + j)];
        const cplx v = buf[static_cast<std::size_t>(base + j + h)];
        buf[static_cast<std::size_t>(base + j)] = u + v;
        buf[static_cast<std::size_t>(base + j + h)] = u - v;
      }
    }
  }
  scatter(n, io, buf.data());
}

double codelet_flops(idx_t n) {
  if (n <= 1) return 0.0;
  // log2(n) stages of n/2 butterflies: one complex mul (6 flops) and two
  // complex adds (4 flops) each. (The unrolled 2/4 cases do strictly
  // fewer multiplications; this is the upper-bound model the machine
  // simulator uses uniformly.)
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
  if (s.is_compute) {
    const idx_t cn = s.cn;
    constexpr idx_t kRowMax = 64;  // largest codelet the lowering emits
    util::require(cn <= kRowMax, "run_stage_scalar: codelet wider than 64");
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
      if (s.wht) {
        wht_codelet(cn, io);
      } else {
        dft_codelet(cn, s.sign, io);
      }
    }
    return;
  }
  // Pure data stage (cn == 1).
  for (idx_t j = lo; j < hi; ++j) {
    const cplx v = src[in.at(j)];
    dst[out.at(j)] = s.in_scale.empty() ? v : s.in_scale.at(j) * v;
  }
}

}  // namespace spiral::backend
