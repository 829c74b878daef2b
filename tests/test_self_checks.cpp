// Reference-free self-tests of planned DFTs, after FFTW's benchfft
// verifier: identities every DFT satisfies, so they need no reference
// transform and scale to any n.
//
//   linearity   F(a x + b z) = a F(x) + b F(z)
//   impulse     F(e_s)[k] = w^{k s}, w = e^{-2 pi i / n}
//   time shift  F(x[. - s])[k] = w^{k s} F(x)[k]
//   round trip  F^-1(F(x)) = n x (the inverse is unscaled)
//
// Each identity is held to a relative L2 error of kBound * log2(n) * u
// (u = 2^-53); test_accuracy measures a planned DFT alone at <= 0.5 of
// that unit. The plans are the streamed 2^20 p=4 one (each stage group's
// last write non-temporal) and the 2^12 = 64 x 64 one, at nu = 0 and 4,
// and the 2^22 p=4 nu=4 one, past the long-double reference's reach.
// From 2^18 on, the largest twiddle diagonal is stored as two factors.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <tuple>

#include "backend/program.hpp"
#include "core/spiral_fft.hpp"
#include "spl/twiddle.hpp"
#include "test_helpers.hpp"

namespace spiral {
namespace {

using spiral::testing::kUnitRoundoff;

/// Error bound in units of log2(n) * u: each side of an identity carries
/// one or two transforms' rounding (measured 0.18-0.35 on these plans; a
/// wrong twiddle or lane address errs by O(1)).
constexpr double kBound = 1.0;

/// ||got - want||_2 / ||want||_2.
double rel_err(const util::cvec& got, const util::cvec& want) {
  long double err = 0, ref = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    err += std::norm(got[i] - want[i]);
    ref += std::norm(want[i]);
  }
  return static_cast<double>(std::sqrt(err / ref));
}

struct Shape {
  int lg;
  int threads;
  idx_t nu;
};

void PrintTo(const Shape& s, std::ostream* os) {
  *os << "n=2^" << s.lg << " p=" << s.threads << " nu=" << s.nu;
}

/// The forward and inverse plans of a shape, planned once per process.
struct Plans {
  std::unique_ptr<core::FftPlan> fwd, inv;
};

const Plans& plans_for(const Shape& s) {
  static std::map<std::tuple<int, int, idx_t>, Plans> cache;
  Plans& p = cache[{s.lg, s.threads, s.nu}];
  if (p.fwd == nullptr) {
    core::PlannerOptions o;
    o.threads = s.threads;
    o.vector_nu = s.nu;
    p.fwd = core::plan_dft(idx_t{1} << s.lg, o);
    o.direction = +1;
    p.inv = core::plan_dft(idx_t{1} << s.lg, o);
  }
  return p;
}

class SelfChecks : public ::testing::TestWithParam<Shape> {
 protected:
  void SetUp() override {
    n_ = idx_t{1} << GetParam().lg;
    fwd_ = plans_for(GetParam()).fwd.get();
    inv_ = plans_for(GetParam()).inv.get();
  }

  util::cvec forward(const util::cvec& x) const {
    util::cvec y(x.size());
    fwd_->execute(ctx_, x.data(), y.data());
    return y;
  }

  /// w^{k s} for k < n.
  util::cvec phases(idx_t s) const {
    util::cvec w(static_cast<std::size_t>(n_));
    for (idx_t k = 0; k < n_; ++k) {
      w[static_cast<std::size_t>(k)] = spl::root_of_unity(n_, (k * s) % n_);
    }
    return w;
  }

  void expect_within_bound(const util::cvec& got, const util::cvec& want,
                           const char* what) const {
    const double units =
        static_cast<double>(util::log2_exact(n_)) * kUnitRoundoff;
    const double err = rel_err(got, want);
    EXPECT_LE(err, kBound * units)
        << what << ": " << err / units << " log2(n) u";
  }

  idx_t n_ = 0;
  const core::FftPlan* fwd_ = nullptr;
  const core::FftPlan* inv_ = nullptr;
  mutable backend::ExecContext ctx_;
};

TEST_P(SelfChecks, Linearity) {
  util::Rng rng(41);
  const util::cvec x = rng.complex_signal(n_);
  const util::cvec z = rng.complex_signal(n_);
  const cplx a = rng.complex_unit();
  const cplx b = rng.complex_unit();
  util::cvec mix(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) mix[i] = a * x[i] + b * z[i];
  const util::cvec fx = forward(x);
  const util::cvec fz = forward(z);
  util::cvec want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) want[i] = a * fx[i] + b * fz[i];
  expect_within_bound(forward(mix), want, "linearity");
}

TEST_P(SelfChecks, Impulse) {
  const idx_t s = (n_ / 3) | 1;
  util::cvec e(static_cast<std::size_t>(n_));
  e[static_cast<std::size_t>(s)] = 1.0;
  expect_within_bound(forward(e), phases(s), "impulse");
}

TEST_P(SelfChecks, TimeShift) {
  util::Rng rng(42);
  const util::cvec x = rng.complex_signal(n_);
  const idx_t s = (n_ / 5) | 1;
  util::cvec shifted(x.size());
  for (idx_t j = 0; j < n_; ++j) {
    shifted[static_cast<std::size_t>((j + s) % n_)] =
        x[static_cast<std::size_t>(j)];
  }
  const util::cvec fx = forward(x);
  const util::cvec w = phases(s);
  util::cvec want(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) want[k] = w[k] * fx[k];
  expect_within_bound(forward(shifted), want, "time shift");
}

TEST_P(SelfChecks, RoundTrip) {
  util::Rng rng(43);
  const util::cvec x = rng.complex_signal(n_);
  const util::cvec fx = forward(x);
  util::cvec back(x.size());
  inv_->execute(ctx_, fx.data(), back.data());
  util::cvec want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    want[i] = x[i] * static_cast<double>(n_);
  }
  expect_within_bound(back, want, "round trip");
}

TEST_P(SelfChecks, PlanHasTheIntendedShape) {
  const Shape& s = GetParam();
  const backend::StageList& list = fwd_->stages();
  if (s.lg == 12) {
    // 64 x 64: two passes of 64-point codelets.
    ASSERT_EQ(list.stages.size(), 2u);
    for (const auto& st : list.stages) EXPECT_EQ(st.cn, 64) << st.label;
    return;
  }
  std::size_t factors = 0;
  for (const auto& st : list.stages) {
    factors = std::max(factors, st.in_scale.factors().size());
  }
  EXPECT_EQ(factors, 2u);
  backend::Program prog(list, backend::ExecPolicy::kThreadPool);
  prog.enable_simd(s.nu);
  ASSERT_GT(prog.group_count(), 0u);
  const bool streams =
      s.nu >= 4 && backend::simd::isa_width(backend::simd::detect_isa()) >= 4;
  for (std::size_t g = 0; g < prog.group_count(); ++g) {
    EXPECT_EQ(prog.group_streams(g), streams) << "group " << g;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Plans, SelfChecks,
    ::testing::Values(Shape{20, 4, 0}, Shape{20, 4, 4}, Shape{12, 1, 0},
                      Shape{12, 1, 4}, Shape{22, 4, 4}),
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "n2e" + std::to_string(info.param.lg) + "_p" +
             std::to_string(info.param.threads) + "_nu" +
             std::to_string(info.param.nu);
    });

}  // namespace
}  // namespace spiral
