// Shared helpers for the test suite: tolerant complex comparisons,
// reference DFT utilities, and the suite-wide lowering verifier.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <numbers>
#include <vector>

#include "analysis/verify.hpp"
#include "backend/lower.hpp"
#include "spl/dense.hpp"
#include "spl/formula.hpp"
#include "spl/twiddle.hpp"
#include "util/aligned_vector.hpp"
#include "util/rng.hpp"

namespace spiral::testing {

namespace detail {

/// Runs the static verifier (races + bounds: the execution-safety subset;
/// schedule-quality warnings like false sharing are *not* checked here
/// because baselines such as the FFTW-like block-cyclic plans violate
/// them by design) on every program produced by backend::lower() /
/// lower_fused() anywhere in a test binary.
inline void verify_lowered_program(const backend::StageList& list) {
  const auto report =
      analysis::verify(list, analysis::Options::execution_safety());
  if (!report.ok()) {
    ADD_FAILURE() << "lowered program failed static verification:\n"
                  << report.to_string();
  }
}

/// Registers the verifier as the lowering observer once per test binary,
/// so every suite gets race/bounds checking of every lowered program with
/// zero per-test boilerplate.
[[maybe_unused]] inline const bool lowering_verifier_installed = [] {
  backend::set_lowering_observer(&verify_lowered_program);
  return true;
}();

}  // namespace detail

/// Numerical tolerance for comparing FFT outputs. Scales mildly with the
/// transform size to absorb accumulated rounding.
inline double fft_tolerance(idx_t n) {
  return 1e-10 * std::max<double>(1.0, std::log2(static_cast<double>(n))) *
         std::sqrt(static_cast<double>(n));
}

/// Max |a[i] - b[i]|.
inline double max_diff(const util::cvec& a, const util::cvec& b) {
  EXPECT_EQ(a.size(), b.size());
  double d = 0.0;
  for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i) {
    d = std::max(d, std::abs(a[i] - b[i]));
  }
  return d;
}

/// Asserts that two formulas denote the same matrix (dense comparison).
inline void expect_same_matrix(const spl::FormulaPtr& a,
                               const spl::FormulaPtr& b, double tol = 1e-12) {
  ASSERT_EQ(a->size, b->size);
  const auto da = spl::to_dense(a);
  const auto db = spl::to_dense(b);
  EXPECT_LE(da.max_abs_diff(db), tol * std::sqrt(double(a->size)))
      << "formulas differ as matrices";
}

/// Reference DFT by direct summation, O(n^2): the semantic ground truth.
inline util::cvec reference_dft(const util::cvec& x, int sign = -1) {
  const idx_t n = static_cast<idx_t>(x.size());
  util::cvec y(x.size());
  for (idx_t k = 0; k < n; ++k) {
    cplx acc{0.0, 0.0};
    for (idx_t l = 0; l < n; ++l) {
      acc += spl::root_of_unity(n, k * l, sign) * x[size_t(l)];
    }
    y[size_t(k)] = acc;
  }
  return y;
}

using cplx_ld = std::complex<long double>;

/// DFT_n(x) (n a 2-power) by iterative radix-2 in long double, with
/// long-double twiddles: the reference double-precision error is
/// measured against (its own error is ~2^11 times smaller).
inline std::vector<cplx_ld> reference_fft_ld(const util::cvec& x,
                                             int sign = -1) {
  const std::size_t n = x.size();
  const int k = util::log2_exact(static_cast<idx_t>(n));
  std::vector<cplx_ld> a(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (int b = 0; b < k; ++b) r |= ((i >> b) & 1) << (k - 1 - b);
    a[r] = cplx_ld(x[i].real(), x[i].imag());
  }
  for (std::size_t h = 1; h < n; h *= 2) {
    for (std::size_t j = 0; j < h; ++j) {
      const long double t = static_cast<long double>(sign) *
                            std::numbers::pi_v<long double> *
                            static_cast<long double>(j) /
                            static_cast<long double>(h);
      const cplx_ld w(std::cos(t), std::sin(t));
      for (std::size_t b = j; b < n; b += 2 * h) {
        const cplx_ld u = a[b], v = a[b + h] * w;
        a[b] = u + v;
        a[b + h] = u - v;
      }
    }
  }
  return a;
}

/// WHT_n(x) by the Hadamard sum y[k] = sum_l (-1)^{popcount(k & l)} x[l],
/// in long double.
inline std::vector<cplx_ld> reference_wht_ld(const util::cvec& x) {
  const std::size_t n = x.size();
  std::vector<cplx_ld> y(n);
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t l = 0; l < n; ++l) {
      const cplx_ld v(x[l].real(), x[l].imag());
      y[k] += (__builtin_popcountll(k & l) % 2 == 0) ? v : -v;
    }
  }
  return y;
}

/// ||got - want||_2 / ||want||_2.
inline double rel_l2(const util::cvec& got, const std::vector<cplx_ld>& want) {
  long double err = 0, ref = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::norm(cplx_ld(got[i].real(), got[i].imag()) - want[i]);
    ref += std::norm(want[i]);
  }
  return static_cast<double>(std::sqrt(err / ref));
}

/// The unit roundoff of double, u = 2^-53.
inline constexpr double kUnitRoundoff = 0x1.0p-53;

}  // namespace spiral::testing
